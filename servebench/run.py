#!/usr/bin/env python3
"""Builds servebench from the checkout it sits in and runs it.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/servebench
(CMake, Release); build output goes to stderr so that the benchmark's JSON
result stays the last line of stdout. Exits non-zero without a result when
the build fails, e.g. in a directory without the metaprox sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "servebench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "servebench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("servebench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD_DIR, "servebench")
    args = [binary] + sys.argv[1:]
    if "--self-test" not in sys.argv[1:]:
        args += ["--out-dir", BUILD_DIR]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
