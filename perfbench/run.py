#!/usr/bin/env python3
"""Build and run the stellar benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dse-scan --seed 1 --seconds 10 --trace 0

The first call configures and builds the library and the stellar_bench
driver (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. All arguments are passed to
stellar_bench (see perfbench/stellar_bench.cpp for their meaning).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out, "-j", jobs]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")) and run_quiet(compile_):
        return True
    # No tree yet, or a stale one (for example configured from another
    # checkout path): start clean once.
    shutil.rmtree(out, ignore_errors=True)
    return run_quiet(configure) and run_quiet(compile_)


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    out = build_dir()
    if shutil.which("cmake") is None or not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "stellar_bench")
    args = [binary] + sys.argv[1:] + ["--commit", commit()]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so the benchmark is the only one to wait for.
    os.execv(binary, args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
