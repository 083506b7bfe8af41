#!/usr/bin/env python3
"""Build MitoSim's benchmark program and run one workload.

    python3 perfbench/run.py --workload walk_4k|populate_4g|thp_churn \
        [--seed N] [--frag-seed N] [--seconds S] [--trace 0|1] \
        [--length full|short]

Run it from the root of a MitoSim source tree. The first call configures
and builds perfbench/ (which compiles the simulator library from the
tree's src/) as a Release build under .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr. The program's
own report goes to stdout and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the host-time spans of the last traced iteration are
written to .bench_build/spans/<workload>.json (Chrome trace format).
The exit code is the program's: 0 when every check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "mitobench")

WORKLOADS = ("walk_4k", "populate_4g", "thp_churn")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no MitoSim source tree (CMakeLists.txt, src/) beside "
             "perfbench/; run from the root of a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "mitobench",
                  "-j", jobs])
    for cmd in steps:
        # Keep stdout for the report: the build talks on stderr.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--frag-seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--length", choices=("full", "short"), default="full")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--length", args.length]
    if args.frag_seed is not None:
        cmd += ["--frag-seed", str(args.frag_seed)]
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
