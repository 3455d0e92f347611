#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload km-large-n --seed 1 --seconds 20 --trace 0

The benchmark is built with dune into _build/ and run with the
environment's RME_* variables removed. Its standard output is passed
through; the last line is the JSON result. A failed build exits with
code 2 and prints no result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
TARGET = "./perfbench/bench.exe"


def main(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RME_")}
    # Keep every build output inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            env=env,
            stdout=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: cannot build: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + argv, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
