#!/usr/bin/env python3
"""Builds and runs the smoke benches: python3 ci/bench_smoke.py OUT_DIR

Configures a Release build with the benchmarks on (tests and examples off)
in build-bench/ at the repository root, builds the smoke benches, and runs
each one as `bench_<name> --smoqe_json=OUT_DIR/BENCH_<name>.json`. Every
bench enforces its own gates (bit-identity before timing, zero warm
interning, its throughput floor) and exits nonzero when one fails; this
script runs them all and then exits 1 if any failed. The files all have
the one shape of bench::SmokeReport (bench/bench_common.h), which
ci/check_bench_regression.py compares against a baseline directory.

Scale comes from the environment, as for the benches themselves:
SMOQE_BENCH_PATIENTS (document size; CI uses 50) and SMOQE_BENCH_ROLES
(authz role sweep ceiling). A compiler launcher such as ccache is picked up
from CMAKE_CXX_COMPILER_LAUNCHER.
"""

import argparse
import os
import subprocess
import sys

# The one list of smoke benches: CI, nightly and the regression gate take
# whatever this script writes.
BENCHES = ("throughput", "parallel", "docplane", "rewrite", "mutation",
           "authz", "recovery")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("out_dir", help="directory for the BENCH_*.json files")
    out_dir = os.path.abspath(parser.parse_args().out_dir)

    subprocess.run(["cmake", "-B", BUILD, "-S", ROOT,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DSMOQE_BUILD_TESTS=OFF", "-DSMOQE_BUILD_EXAMPLES=OFF",
                    "-DSMOQE_BUILD_BENCHMARKS=ON"], check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target"] + [f"bench_{b}" for b in BENCHES], check=True)

    os.makedirs(out_dir, exist_ok=True)
    failed = []
    for bench in BENCHES:
        path = os.path.join(out_dir, f"BENCH_{bench}.json")
        if os.path.exists(path):
            os.remove(path)  # a failed run must not leave an old report
        print(f"== bench_{bench}", flush=True)
        binary = os.path.join(BUILD, "bench", f"bench_{bench}")
        if subprocess.run([binary, f"--smoqe_json={path}"]).returncode != 0:
            failed.append(bench)
            continue
        with open(path) as f:
            print(f.read(), flush=True)
    if failed:
        print(f"FAIL: {', '.join(failed)} failed an in-bench gate")
        return 1
    print(f"PASS: {len(BENCHES)} smoke benches wrote {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
