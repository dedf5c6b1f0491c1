#!/usr/bin/env bash
# Build and test the three supported configurations: plain,
# AddressSanitizer+UBSan (STELLAR_SANITIZE), and ThreadSanitizer
# (STELLAR_TSAN). Each tree lives under build-matrix/<name> so the
# matrix never disturbs an existing build/ directory.
#
# usage: scripts/check_matrix.sh [--fuzz-smoke] [--serve-smoke]
#            [--shard-smoke] [--shuffle] [tree ...]
#   tree: any of plain, asan, tsan (default: all three)
#   --shuffle: run each tree's ctest in random order, every test up to
#       3 times (`--schedule-random --repeat until-fail:3`), so a test
#       that only passes because of how ctest happens to order or
#       overlap tests (a shared scratch path, say) fails here
#   --fuzz-smoke: after the asan tree passes, replay a short
#       stellar_fuzz soak (200 iterations, seed 1) inside it, so the
#       hostile-input invariant is checked under ASan+UBSan on every
#       matrix run (the long 2k-iteration soak lives in CI's fuzz job)
#   --serve-smoke: after the asan tree passes, boot a live stellar_serve
#       daemon inside it, answer a client request, soak it with ~200
#       hostile wire requests, then SIGTERM it and require a clean
#       drained exit (the long 2k-request soak lives in CI's serve-soak
#       job)
#   --shard-smoke: after the asan tree passes, split a hop-2 DSE sweep
#       into 4 shard-records files inside it and require the merge to
#       be byte-identical to the single-process run, and an incomplete
#       shard set to be rejected (the full hop-3 differential lives in
#       CI's dse-shard job)
#
# Every requested tree runs even when an earlier one fails; the per-tree
# statuses are reported at the end and the script exits nonzero if any
# leg failed. (An earlier version relied on `set -e` aborting mid-loop,
# which both hid the later trees' results and silently lost the failure
# when the ctest subshell was the last command of an `if` leg.)
#
# The TSan tree runs only the "concurrency"-labelled tests (thread
# pool, sharded enumeration, parallel DSE, fault isolation): TSan's
# value is data-race detection, and restricting it keeps the matrix
# fast enough to run before every push.
set -uo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

fuzz_smoke=0
serve_smoke=0
shard_smoke=0
ctest_order=()

# Split a small sweep across 4 shard scans in an already-built tree,
# merge the records files, and require byte-identity with the
# single-process run plus fail-closed rejection of an incomplete set.
shard_smoke_run() {
    local dir="$1"
    local tmp="${dir}/shard-smoke"
    local cli="${dir}/examples/stellar_cli"
    rm -rf "${tmp}"
    mkdir -p "${tmp}"
    local sweep="--dim 8 --max-hop 2 --max-coeff 2 --topk 8 \
        --analytic-top-k 12 --no-timings --threads 2"
    # shellcheck disable=SC2086
    "${cli}" dse ${sweep} >"${tmp}/single.out" || return 1
    local i
    for i in 0 1 2 3; do
        # shellcheck disable=SC2086
        "${cli}" dse ${sweep} --shard "${i}/4" \
            --emit-records "${tmp}/shard${i}.records" >/dev/null ||
            return 1
    done
    "${cli}" merge "${tmp}/shard0.records" "${tmp}/shard1.records" \
        "${tmp}/shard2.records" "${tmp}/shard3.records" \
        --no-timings --threads 2 >"${tmp}/merged.out" || return 1
    if ! cmp "${tmp}/single.out" "${tmp}/merged.out"; then
        echo "shard smoke: merged ranking diverged from single-process" >&2
        return 1
    fi
    if "${cli}" merge "${tmp}/shard0.records" "${tmp}/shard1.records" \
        "${tmp}/shard2.records" >/dev/null 2>&1; then
        echo "shard smoke: merge accepted an incomplete shard set" >&2
        return 1
    fi
    return 0
}

# Boot the daemon from an already-built tree, drive it over the wire,
# and require a graceful SIGTERM drain. Everything a robustness bug
# could corrupt is checked end to end: the socket answers, the soak
# finds no invariant violations, and the drained exit code is 0.
serve_smoke_run() {
    local dir="$1"
    local sock="${dir}/serve-smoke.sock"
    local log="${dir}/serve-smoke.log"
    rm -f "${sock}"
    "${dir}/examples/stellar_serve" --socket "${sock}" --workers 2 \
        >"${log}" 2>&1 &
    local pid=$!
    local bound=0
    for _ in $(seq 1 100); do
        if [ -S "${sock}" ]; then
            bound=1
            break
        fi
        sleep 0.1
    done
    if [ "${bound}" -ne 1 ]; then
        echo "serve smoke: daemon never bound ${sock}" >&2
        kill -KILL "${pid}" 2>/dev/null
        cat "${log}" >&2
        return 1
    fi
    if ! "${dir}/examples/stellar_client" --socket "${sock}" \
        '{"command":"dse","dim":3}' >/dev/null; then
        echo "serve smoke: client request failed" >&2
        kill -KILL "${pid}" 2>/dev/null
        return 1
    fi
    if ! "${dir}/examples/stellar_fuzz" --soak "${sock}" \
        --soak-threads 4 --iterations 200 --seed 1; then
        echo "serve smoke: soak reported violations" >&2
        kill -KILL "${pid}" 2>/dev/null
        return 1
    fi
    kill -TERM "${pid}"
    wait "${pid}"
    local rc=$?
    if [ "${rc}" -ne 0 ]; then
        echo "serve smoke: daemon exited ${rc} on SIGTERM (want 0)" >&2
        cat "${log}" >&2
        return 1
    fi
    if ! grep -q "drained" "${log}"; then
        echo "serve smoke: no drain message in daemon log" >&2
        cat "${log}" >&2
        return 1
    fi
    return 0
}

build_and_test() {
    local name="$1"
    shift
    local dir="build-matrix/${name}"
    echo "==== [${name}] configure + build ===="
    cmake -B "${dir}" -S . "$@" >/dev/null || return 1
    cmake --build "${dir}" -j "${jobs}" || return 1
    echo "==== [${name}] ctest ===="
    case "${name}" in
    tsan)
        (cd "${dir}" && ctest -L concurrency --output-on-failure -j "${jobs}" \
            ${ctest_order[@]+"${ctest_order[@]}"}) || return 1
        ;;
    *)
        (cd "${dir}" && ctest --output-on-failure -j "${jobs}" \
            ${ctest_order[@]+"${ctest_order[@]}"}) || return 1
        ;;
    esac
    if [ "${name}" = asan ] && [ "${fuzz_smoke}" -eq 1 ]; then
        echo "==== [${name}] fuzz smoke (200 iterations, seed 1) ===="
        "${dir}/examples/stellar_fuzz" --iterations 200 --seed 1 \
            --repro-dir "${dir}/fuzz-repros" || return 1
    fi
    if [ "${name}" = asan ] && [ "${serve_smoke}" -eq 1 ]; then
        echo "==== [${name}] serve smoke (live daemon, 200-request soak) ===="
        serve_smoke_run "${dir}" || return 1
    fi
    if [ "${name}" = asan ] && [ "${shard_smoke}" -eq 1 ]; then
        echo "==== [${name}] shard smoke (4-way split, bit-exact merge) ===="
        shard_smoke_run "${dir}" || return 1
    fi
    return 0
}

trees=()
for arg in "$@"; do
    case "${arg}" in
    --fuzz-smoke) fuzz_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --shard-smoke) shard_smoke=1 ;;
    --shuffle) ctest_order=(--schedule-random --repeat until-fail:3) ;;
    plain | asan | tsan) trees+=("${arg}") ;;
    *)
        echo "unknown argument '${arg}' (expected --fuzz-smoke, --serve-smoke, --shard-smoke, --shuffle, plain, asan, or tsan)" >&2
        exit 1
        ;;
    esac
done
if [ "${#trees[@]}" -eq 0 ]; then
    trees=(plain asan tsan)
fi

declare -A status
failed=0
for tree in "${trees[@]}"; do
    case "${tree}" in
    plain) build_and_test plain ;;
    asan) build_and_test asan -DSTELLAR_SANITIZE=ON ;;
    tsan) build_and_test tsan -DSTELLAR_TSAN=ON ;;
    esac
    rc=$?
    if [ "${rc}" -eq 0 ]; then
        status["${tree}"]=OK
    else
        status["${tree}"]="FAILED (exit ${rc})"
        failed=1
    fi
done

echo "==== matrix summary ===="
for tree in "${trees[@]}"; do
    echo "  ${tree}: ${status[${tree}]}"
done
if [ "${failed}" -ne 0 ]; then
    echo "==== matrix FAILED ===="
    exit 1
fi
echo "==== matrix OK: ${trees[*]} ===="
