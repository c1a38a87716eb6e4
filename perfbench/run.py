#!/usr/bin/env python3
"""Build the fleet benchmark from source and run one workload.

    python3 perfbench/run.py --workload steady-lb --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune -- release profile, build directory
.bench_build at the repository root, dune's shared cache off so nothing
is written outside the checkout -- then runs it with the same arguments
from the repository root. The last line of standard output is the result
object. Exits non-zero without printing a result when the build or the
run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def main(argv):
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled", "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
