#!/usr/bin/env python3
"""Builds and runs the admission benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The C++ package in perfbench/ compiles the
library from ../src in Release into $CARGO_TARGET_DIR (default
.bench_build), runs the helper self-test, then runs the driver.  The
driver's last stdout line is the result object; the exit code is non-zero
on any build, self-test or driver failure.  Cross-run totals and the traced
run's spans go to .bench_out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("burst_closed", "overlap_open", "tenant_ft")
# A benchmark run must end within 180 s; the driver binary gets 170 of them.
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout, capture=False):
    """Runs cmd; stdout is returned when capture, else kept for failures."""
    try:
        r = subprocess.run(cmd, timeout=timeout, check=False, text=True,
                           stdout=subprocess.PIPE,
                           stderr=None if capture else subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if r.returncode != 0 and not capture:
        sys.stderr.write(r.stdout[-20000:])
    return r


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no src/ next to perfbench/: run from the root of a checkout")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = run_step(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("configure failed")
    r = run_step(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)
    if r.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(root, build_dir)

    selftest = run_step([os.path.join(build_dir, "perfbench_selftest")], 60)
    if selftest.returncode != 0:
        fail("helper self-test failed")

    driver = os.path.join(build_dir, "perfbench_driver")
    # Cross-run totals are keyed by the driver binary, so a rebuilt program
    # never compares against totals of another version.
    with open(driver, "rb") as f:
        tag = hashlib.sha256(f.read()).hexdigest()[:16]
    state_dir = os.path.join(root, ".bench_out")
    os.makedirs(state_dir, exist_ok=True)
    r = run_step([driver, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--state-dir", state_dir,
                  "--binary-tag", tag], DRIVER_TIMEOUT_S, capture=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout or "")
        fail(f"driver exited with {r.returncode}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
