#!/usr/bin/env python3
"""Build the workflow benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: corpus_label, train_unet, serve_unique (see perfbench/README.md).
The library and the benchmark are built with CMake (Release) into
$CARGO_TARGET_DIR when it is set, else .bench_build at the repository root;
result files and traces go to .bench_out. Build output goes to standard
error. The last line of standard output is the run's JSON
result, and the exit code is the benchmark's: 0 when every correctness check
passed, non-zero otherwise or when the sources are missing.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("corpus_label", "train_unet", "serve_unique")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then builds the perfbench target incrementally."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no library sources (CMakeLists.txt, src/) in {ROOT}; "
            "run from a full checkout of the repository")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(build_dir / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
            if done.returncode != 0:
                die(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(ROOT / ".bench_out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
