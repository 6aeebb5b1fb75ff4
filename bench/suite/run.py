#!/usr/bin/env python3
"""Build clio_suite from source and run one workload.

Usage (from the repository root):
  python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The suite is configured and built into ./build-suite (after the first
call this only re-checks the build). Build output goes to stderr; stdout is
the suite's own output, whose last line is the result JSON. The exit
status is non-zero when the build fails or an integrity check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-suite")
BINARY = os.path.join(BUILD, "clio_suite")


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "clio_suite"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
