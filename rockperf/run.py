#!/usr/bin/env python3
"""Build rockperf from this checkout's sources and run one workload.

Usage, from the repository root:

    python3 rockperf/run.py --workload giant-family|many-families
                            --seed N --seconds S --trace 0|1
                            [--threads T] [--size full|tiny]

The first call configures and builds rockperf/ (a CMake package of its
own that compiles the libraries under src/) into
$CARGO_TARGET_DIR/rockperf, default .bench_build/rockperf; later calls
only re-run the incremental build. Build output goes to stderr. The
benchmark's stdout is passed through; its last line is the result
object. Exits nonzero when the sources are missing, the build fails,
the run fails or times out, or any checked output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("giant-family", "many-families")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"rockperf: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the rockperf binary; return its
    directory relative to the repository root."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found (expected src/ beside rockperf/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(
        os.path.join(ROOT, target, "rockperf"), ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "rockperf", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rockperf",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {' '.join(step)} failed: {e}")
        if done.returncode != 0:
            die(f"build step {' '.join(step)} exited {done.returncode}")
    return build_dir


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"} and
            isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads (default: one per CPU)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny = smoke-check input sizes")
    args = parser.parse_args()

    build_dir = build()
    command = [os.path.join(build_dir, "rockperf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--threads", str(args.threads), "--size", args.size,
               "--work-dir", build_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        die(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    result = lines.pop() if lines else ""
    if not valid_result(result):
        sys.stdout.write(done.stdout)
        die(f"no result line (exit {done.returncode})", 1)
    for line in lines:
        print(line)
    print(result, flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
