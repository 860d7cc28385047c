#!/usr/bin/env python3
"""Builds the mrcc_bench binary from source and runs it.

Run from anywhere inside a full checkout, for example:

    python3 mrcc_bench/run.py --workload paper-14d --seed 1 --seconds 20 --trace 0

The first call configures and builds (Release) the mrcc library, the
mrcc-build and mrcc-shard tools and mrcc_bench into .bench_build/ at the
root of the checkout; later calls rebuild only what changed. Every argument
is passed to mrcc_bench (see mrcc_bench.cc), which writes its records to
.bench_build/out/ and ends its standard output with one JSON line.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mrcc_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: %s has no src/CMakeLists.txt; run the benchmark "
                 "from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "mrcc_bench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "mrcc_bench"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: %s failed" % " ".join(step))


def main():
    build()
    args = [BINARY, "--out_dir", os.path.join(BUILD, "out")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(BINARY, args)


if __name__ == "__main__":
    main()
