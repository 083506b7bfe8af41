#!/usr/bin/env python3
"""Same-host A/B of perfbench between two source trees.

    tools/ab_perfbench.py --base REV [--head REV|DIR] --workload NAME \
        [--seed N] [--pairs N] [--seconds S] [--trace 0|1] \
        [--workdir DIR] [--keep]

Each side is a git revision, exported with `git archive` into
WORKDIR/base and WORKDIR/head (the repository's own checkout and its
.git are never touched), or an existing source directory used as it
is (for example `--head .` for uncommitted changes). Both sides build
perfbench once, as perfbench/run.py does, and then run

    python3 perfbench/run.py --workload NAME --seed N --seconds S

in N interleaved pairs; pair i runs base first when i is even and head
first when it is odd, so a drift in host speed hits both sides alike.

Every run's determinism digest must be the same on both sides: a
replacement or layout change that is meant to keep the model must not
move a single simulated bit. Per metric the script prints, for base
and head, the median and the quartiles over the runs, the change of
the median, and the pairs head won (better in the direction
BENCHMARK.json gives; unlisted metrics count lower as better). The
"gain" column says whether head won at least 9 of 10 pairs and its
median moved by more than base's inter-quartile range — the test a
claimed gain must pass.

Besides the end-to-end metrics (or, with --trace 1, the per-layer
metrics) the report's "# wall clock" line is parsed into
wall.setup_s and wall.sim_accesses_per_s: the same figures without the
host-probe normalisation.

Exit status: 0 when every run passed its checks and all digests agree,
1 otherwise, 2 for bad arguments or a failed build.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGEST_RE = re.compile(
    r"^digest (?P<workload>\S+) seed=(?P<seed>\d+) (?P<digest>[0-9a-f]+)")
WALL_RE = re.compile(
    r"^# wall clock: setup_s (?P<setup>\S+) s, "
    r"sim_accesses_per_s (?P<rate>\S+) 1/s")


class RunError(Exception):
    pass


def parse_run(text):
    """One mitobench report -> {"digest", "correct", "failed", "metrics"}.

    "metrics" maps a metric name to its value; the wall-clock line adds
    wall.setup_s and wall.sim_accesses_per_s.
    """
    digest = None
    result = None
    metrics = {}
    for line in text.splitlines():
        m = DIGEST_RE.match(line)
        if m:
            digest = m.group("digest")
            continue
        m = WALL_RE.match(line)
        if m:
            metrics["wall.setup_s"] = float(m.group("setup"))
            metrics["wall.sim_accesses_per_s"] = float(m.group("rate"))
            continue
        if line.startswith("{") and '"metrics"' in line:
            result = json.loads(line)
    if result is None:
        raise RunError("no result line in the report")
    if digest is None:
        raise RunError("no digest line in the report")
    for name, entry in result["metrics"].items():
        metrics[name] = float(entry["value"])
    return {
        "digest": digest,
        "correct": bool(result["correct"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def quartiles(values):
    """(q1, median, q3) of @p values, inclusive method."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def higher_is_better(name, directions):
    if name.startswith("wall."):
        name = name[len("wall."):]
    return directions.get(name, "lower") == "higher"


def load_directions(root):
    """Metric name -> "higher"/"lower" from BENCHMARK.json, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    out = {}
    if not os.path.isfile(path):
        return out
    with open(path) as f:
        doc = json.load(f)
    for key in ("end_to_end", "per_layer"):
        for m in doc.get(key, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def summarize(pairs, directions):
    """Per-metric statistics over [(base_run, head_run), ...].

    Returns a list of dicts sorted by metric name: base/head quartiles,
    relative change of the median, pairs won by head, and whether that
    amounts to a gain (>= 90% of pairs won and |median change| greater
    than base's inter-quartile range).
    """
    names = set(pairs[0][0]["metrics"])
    for b, h in pairs:
        names &= set(b["metrics"]) & set(h["metrics"])
    rows = []
    for name in sorted(names):
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        up = higher_is_better(name, directions)
        won = sum(1 for b, h in zip(base, head)
                  if (h > b if up else h < b))
        bq = quartiles(base)
        hq = quartiles(head)
        change = (hq[1] / bq[1] - 1.0) if bq[1] else 0.0
        better_median = hq[1] > bq[1] if up else hq[1] < bq[1]
        gain = (better_median and won * 10 >= 9 * len(pairs)
                and abs(hq[1] - bq[1]) > bq[2] - bq[0])
        rows.append({
            "metric": name,
            "better": "higher" if up else "lower",
            "base": bq,
            "head": hq,
            "change": change,
            "won": won,
            "pairs": len(pairs),
            "gain": gain,
        })
    return rows


def fmt(v):
    return f"{v:.6g}"


def format_table(rows):
    head = ("metric", "better", "base median [q1, q3]",
            "head median [q1, q3]", "change", "won", "gain")
    lines = []
    body = []
    for r in rows:
        body.append((
            r["metric"], r["better"],
            f"{fmt(r['base'][1])} [{fmt(r['base'][0])}, "
            f"{fmt(r['base'][2])}]",
            f"{fmt(r['head'][1])} [{fmt(r['head'][0])}, "
            f"{fmt(r['head'][2])}]",
            f"{r['change'] * 100:+.1f}%",
            f"{r['won']}/{r['pairs']}",
            "yes" if r["gain"] else "no",
        ))
    widths = [max(len(str(x[i])) for x in [head] + body)
              for i in range(len(head))]
    for row in [head] + body:
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def digests_agree(pairs):
    """True when every run of both sides reports the same digest."""
    digests = {r["digest"] for pair in pairs for r in pair}
    return len(digests) == 1


# ---------------------------------------------------------------------
# Trees, builds and runs
# ---------------------------------------------------------------------


def export_tree(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RunError(f"cannot export revision {rev}")


def prepare(side, spec, workdir):
    """Source directory for one side: an existing dir, or an export."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    dest = os.path.join(workdir, side)
    if not os.path.isdir(dest):
        export_tree(spec, dest)
    return dest


def build(tree, log):
    out = os.path.join(tree, ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(tree, "perfbench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "mitobench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise RunError("build failed in " + tree)


def run_once(tree, args):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = parse_run(res.stdout)
    run["exit"] = res.returncode
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision or source directory")
    ap.add_argument("--head", default="HEAD",
                    help="git revision or source directory (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=None,
                    help="where exported trees live (default: a new "
                         "temporary directory)")
    ap.add_argument("--keep", action="store_true",
                    help="keep a temporary --workdir afterwards")
    ap.add_argument("--json", default=None,
                    help="also write the runs and the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    temp = args.workdir is None
    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_perfbench.")
    os.makedirs(workdir, exist_ok=True)
    try:
        trees = {}
        for side, spec in (("base", args.base), ("head", args.head)):
            trees[side] = prepare(side, spec, workdir)
            with open(os.path.join(workdir, side + ".build.log"), "w") as log:
                build(trees[side], log)
            print(f"# {side}: {spec} -> {trees[side]}", flush=True)

        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            got = {side: run_once(trees[side], args) for side in order}
            pairs.append((got["base"], got["head"]))
            print(f"# pair {i + 1}/{args.pairs} ({order[0]} first): "
                  f"base digest {got['base']['digest']} "
                  f"head digest {got['head']['digest']}", flush=True)

        rows = summarize(pairs, load_directions(trees["head"]))
        print(f"# workload={args.workload} seed={args.seed} "
              f"pairs={args.pairs} seconds={args.seconds} "
              f"trace={args.trace}")
        print(format_table(rows))
        ok = True
        if not digests_agree(pairs):
            print("DIGEST MISMATCH between or within sides")
            ok = False
        bad = [(side, i) for i, pair in enumerate(pairs)
               for side, r in zip(("base", "head"), pair)
               if r["exit"] != 0 or not r["correct"]]
        for side, i in bad:
            print(f"CHECKS FAILED: {side} run of pair {i + 1}")
            ok = False
        if args.json:
            with open(args.json, "w") as f:
                json.dump({"args": vars(args), "pairs": pairs,
                           "summary": rows}, f, indent=1)
        return 0 if ok else 1
    except RunError as e:
        print(f"ab_perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        if temp and not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
