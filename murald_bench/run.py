#!/usr/bin/env python3
"""Builds the murald benchmark from source and runs it once.

    python3 murald_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds
murald_bench/ (engine sources from src/, Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build when unset; later runs only re-check
the build.  Build output goes to stderr; the benchmark's own stdout is
passed through, and its last line is the result JSON.  Run records and
trace files land in <build dir>/runs/.

Exits nonzero, without a result line, when the engine sources are missing
or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "murald_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "murald_bench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        print("murald_bench: engine sources (src/) not found beside "
              "murald_bench/", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        print("murald_bench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(build_root, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so the AF_UNIX socket path stays short.
           "--out", os.path.relpath(out_dir, ROOT), "--git-sha", git_sha()]
    child = subprocess.Popen(cmd, cwd=ROOT)
    # A SIGTERM to this script stops the run too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(5))
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("murald_bench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
