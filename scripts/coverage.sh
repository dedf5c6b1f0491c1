#!/usr/bin/env bash
# Line coverage of src/*.cpp under Tier-1.
#
# usage: scripts/coverage.sh
#
# Configures a separate build-cov tree with gcc's --coverage
# instrumentation (Debug, -O0, so every source line maps to code),
# builds it, clears the previous run's counters, runs the whole Tier-1
# suite, then runs gcov over the objects of the `stellar` library (the
# src/ tree). It prints the total line coverage of src/*.cpp and the
# five least-covered files. Only gcov is needed; lcov and gcovr are
# not used.
#
# The script exits nonzero when a test fails; the coverage numbers are
# still printed, but they describe a partial run.
set -uo pipefail

cd "$(dirname "$0")/.."
repo="$(pwd)"
tree="${repo}/build-cov"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B "${tree}" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null || exit 1
cmake --build "${tree}" -j "${jobs}" >/dev/null || exit 1

find "${tree}" -name '*.gcda' -delete
(cd "${tree}" && ctest -j "${jobs}" --output-on-failure >ctest.log 2>&1)
tests_status=$?
grep -E "tests passed" "${tree}/ctest.log"

objects="${tree}/src/CMakeFiles/stellar.dir"
# gcov -n prints per-file summaries without writing .gcov files:
#   File '/abs/path/src/x/y.cpp'
#   Lines executed:87.50% of 120
# Headers pulled into each object are reported too; keep src/*.cpp.
# An incremental tree keeps the objects of deleted sources; skip them,
# or a removed file would count as uncovered lines forever.
find "${objects}" -name '*.gcno' | sort | while read -r gcno; do
    source="${repo}/src/${gcno#"${objects}/"}"
    [ -f "${source%.gcno}" ] || continue
    (cd "$(dirname "${gcno}")" && gcov -n "$(basename "${gcno}")" 2>/dev/null)
done | awk -v src="${repo}/src/" '
    /^File / {
        file = $0
        sub(/^File \047/, "", file)
        sub(/\047$/, "", file)
        next
    }
    /^Lines executed:/ && file != "" {
        keep = index(file, src) == 1 && file ~ /\.cpp$/ && !(file in seen)
        if (keep) {
            split($0, parts, /[:% ]+/)
            pct = parts[3]
            lines = parts[5]
            seen[file] = 1
            hit = int(pct * lines / 100 + 0.5)
            total_lines += lines
            total_hit += hit
            printf "%.2f %d %s\n", pct, lines, substr(file, length(src) + 1) > "/dev/stderr"
        }
        file = ""
    }
    END {
        if (total_lines == 0) {
            print "no coverage data found"
            exit 1
        }
        printf "src/*.cpp line coverage: %.1f%% (%d of %d lines)\n",
               100 * total_hit / total_lines, total_hit, total_lines
    }
' 2>"${tree}/per_file.txt"
awk_status=$?

echo "least-covered src/*.cpp files:"
sort -n "${tree}/per_file.txt" | head -n 5 |
    awk '{ printf "  %6.2f%%  %5d lines  src/%s\n", $1, $2, $3 }'

if [ "${awk_status}" -ne 0 ]; then
    exit 1
fi
exit "${tests_status}"
