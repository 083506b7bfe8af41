#!/usr/bin/env python3
"""Diff two bench reports, ignoring host telemetry and vmcheck counters.

The simulated results in a BENCH_<name>.json report are deterministic:
they must be byte-identical across MITOSIM_SNAPSHOTS={0,1}, across
MITOSIM_FUSE={0,1}, across MITOSIM_TRACE settings, across --jobs
values, and (unless the model changed) across commits. That covers the
per-job "metrics" section too: the simulated telemetry channel (src/obs
registry flatten, walk-cycle attribution).

Two things may differ and are stripped:
  - the top-level "wall_ms" section (host wall-clock and host hot-path
    counters);
  - every key prefixed "check_", in each run's metrics and in each job
    of "metrics": the vmcheck counters, present only in checked runs.

Everything else must be equal. CI uses this as the determinism wall
for the populate snapshot cache, run fusion and the event tracer, and
to show that a checked run simulates exactly what an unchecked one does.

A golden (bench/golden/<bench>.json) pins a bench's simulated results
in the repository: only the "runs" and "speedups" sections, stripped
as above. Compared against a golden, a report must match in exactly
those sections.

Usage:
  tools/cmp_reports.py A.json B.json   # exit 1 + unified diff on drift
  tools/cmp_reports.py --golden GOLDEN.json B.json
  tools/cmp_reports.py --make-golden B.json > GOLDEN.json
"""

import difflib
import json
import sys


def strip_unstable(doc):
    doc = json.loads(json.dumps(doc))
    doc.pop("wall_ms", None)
    tables = [run.get("metrics", {}) for run in doc.get("runs", [])]
    tables += doc.get("metrics", {}).values()
    for table in tables:
        for k in [k for k in table if k.startswith("check_")]:
            table.pop(k)
    return doc


GOLDEN_SECTIONS = ("runs", "speedups")


def golden_of(doc):
    doc = strip_unstable(doc)
    return {sec: doc[sec] for sec in GOLDEN_SECTIONS}


def main():
    args = sys.argv[1:]
    golden = args[:1] == ["--golden"]
    if args[:1] == ["--make-golden"] and len(args) == 2:
        with open(args[1]) as f:
            print(json.dumps(golden_of(json.load(f)), indent=1,
                             sort_keys=True))
        return 0
    if golden:
        args = args[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path_a, path_b = args
    with open(path_a) as f:
        doc_a = strip_unstable(json.load(f))
    with open(path_b) as f:
        doc_b = strip_unstable(json.load(f))
    if golden:
        if set(doc_a) != set(GOLDEN_SECTIONS):
            print(f"{path_a}: a golden holds exactly "
                  f"{', '.join(GOLDEN_SECTIONS)}", file=sys.stderr)
            return 2
        doc_b = golden_of(doc_b)
    if doc_a == doc_b:
        print(f"identical (wall_ms and check_* excluded): "
              f"{path_a} == {path_b}")
        return 0
    lines_a = json.dumps(doc_a, indent=1, sort_keys=True).splitlines()
    lines_b = json.dumps(doc_b, indent=1, sort_keys=True).splitlines()
    print(f"DIFF {path_a} vs {path_b}", file=sys.stderr)
    for line in difflib.unified_diff(lines_a, lines_b,
                                     fromfile=path_a, tofile=path_b,
                                     lineterm=""):
        print(line, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
