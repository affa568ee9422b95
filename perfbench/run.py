#!/usr/bin/env python3
"""Build the benchmark and phloemd from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|tune|serve --seed N --seconds S --trace 0|1

The build uses dune (its output goes to stderr) with the shared dune cache
off, so nothing is written outside the checkout. The benchmark's own
output, ending in one JSON result line, goes to stdout; its exit code is
passed through (1 when a correctness check failed).
"""

import os
import subprocess
import sys

TARGETS = ["./perfbench/perfbench.exe", "./bin/phloemd.exe"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main() -> int:
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE, *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
