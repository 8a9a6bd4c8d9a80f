#!/usr/bin/env python3
"""End-to-end MNP benchmark: builds e2ebench/ against the repository's src/
and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. The benchmark's stdout ends with one JSON
result line: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mnp_dense_30x30", "mnp_long_10x10", "mnp_churn_30x30",
             "baselines_20x20")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: simulator sources (src/) not found next to e2ebench/")
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(base, "e2ebench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check decorator forwarding and traced-run fidelity")
    args = parser.parse_args()
    if args.self_test:
        build_dir = build(["e2e_selftest"])
        return subprocess.run([os.path.join(build_dir, "e2e_selftest")],
                              check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build_dir = build(["e2e_bench"])
    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace)], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
