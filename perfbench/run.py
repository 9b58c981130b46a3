#!/usr/bin/env python3
"""Build and run the nxsim end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt, which compiles the
nxsim libraries from src/) into .bench_build/perfbench; later calls
rebuild only what changed. After every build that changed a binary the
benchmark's self-tests run once. The benchmark's standard output is
passed through: its last line is the JSON result. A traced run writes
its spans to .bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCH = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
STAMP = os.path.join(BUILD, "selftest.passed")

# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def step(cmd, timeout):
    """Run a build or test step with its output on stderr."""
    env = dict(os.environ, TMPDIR=BUILD)
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return 1


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if step(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            return False
    return step(["cmake", "--build", BUILD, "-j", BUILD_JOBS], 840) == 0


def selftest_current():
    if not os.path.exists(STAMP):
        return False
    done = os.path.getmtime(STAMP)
    return all(os.path.getmtime(b) <= done for b in (BENCH, SELFTEST))


def selftest():
    if selftest_current():
        return True
    try:
        rc = subprocess.run([SELFTEST], cwd=BUILD, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=120).returncode
    except subprocess.TimeoutExpired:
        rc = 1
    if rc != 0:
        return False
    with open(STAMP, "w") as f:
        f.write("ok\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not selftest():
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "traces",
            "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
