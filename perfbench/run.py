#!/usr/bin/env python3
"""Build and run the livephased end-to-end socket benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--fleet-rate-hz <frames/s>]

Run from the repository root. The benchmark binary and the livephase
library are built from source into .bench_build/ (CMake, incremental
after the first run); then the binary runs the workload and prints
one JSON result as the last line of stdout. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure and build incrementally; build chatter goes to
    stderr so stdout carries only the result."""
    subprocess.run(
        ["cmake", "-S", SOURCE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "3"],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
