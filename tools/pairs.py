"""Paired benchmark runs of two qccs trees, written as `qccs-bench-pairs` JSON.

    python3 tools/pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        [--workloads W,...] [--seeds 700-709] [--seconds 10] \\
        [--held-out-seeds 710-719 --held-out-workloads qubit-scaling] [--note TEXT]
    python3 tools/pairs.py --summarise BENCH_N.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds N --trace 0`
once in each tree, one run after the other, on the same seed.  Over each two
seeds the order is ABBA: the parent runs first on the first seed and the
change runs first on the second, so a drift within the set, or an advantage
of running first, falls on both sides alike.  An A/A set runs the parent
against a copy of itself on the same seeds and protocol: its spread is the
floor that a claimed gain must clear.  Held-out pairs, on seeds not used while a change
was written, form a third set.

For every set and workload the file holds the pairs and, per end-to-end
metric, the summary: each side's median and quartiles
(statistics.quantiles, n=4), rounded to 4 places, and the pairs in which the
second side was better.  `ratios` gives, per metric, the second side's
median over the parent's and the median over pairs of the first run's value
over the second run's.  `--summarise` recomputes every summary and ratio of
a file from its pairs, prints the file so recomputed, and exits 1 when a
summary in the file differs from its recomputation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

FORMAT = "qccs-bench-pairs"
COMMAND = ("python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} "
           "--trace 0")
# a pair's second side, by its key in the pair: the prefix of its summary
# fields and the name of the field counting the pairs it won
SECOND = {"change": ("change", "pairs_won"), "parent_copy": ("copy", "copy_pairs_won")}


def seed_range(text: str) -> list:
    """'700-709' or '700,702,705' as a list of ints; 'none' as []."""
    if text == "none":
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`: the JSON object of its last output line."""
    args = COMMAND.format(workload=workload, seed=seed, seconds=seconds).split()
    out = subprocess.run([sys.executable, *args[1:]], cwd=tree, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pairs(trees: dict, workload: str, seeds: list, run) -> list:
    """Pairs of runs of the two trees {side: dir} (parent first in the dict),
    in ABBA order over each two seeds; `run(tree, workload, seed)` runs one."""
    (a, tree_a), (b, tree_b) = trees.items()
    pairs = []
    for k, seed in enumerate(seeds):
        order = [(a, tree_a), (b, tree_b)] if k % 2 == 0 else [(b, tree_b), (a, tree_a)]
        pair = {"seed": seed, "first": order[0][0]}
        for side, tree in order:
            pair[side] = run(tree, workload, seed)
            print(f"{workload} seed {seed} {side}: "
                  f"ops_per_s {pair[side]['metrics']['ops_per_s']['value']:.4g}",
                  file=sys.stderr)
        pairs.append({k: pair[k] for k in ("seed", "first", a, b)})
    return pairs


def _quartiles(xs: list) -> list:
    q = statistics.quantiles(xs, n=4)
    return [round(q[0], 4), round(q[2], 4)]


def _second(pairs: list) -> str:
    return next(k for k in pairs[0] if k in SECOND)


def summary(pairs: list, better: dict) -> dict:
    """Per metric: `better` ('lower' or 'higher'), both sides' medians and
    quartiles, and the pairs in which the second side was better."""
    side = _second(pairs)
    prefix, won_name = SECOND[side]
    out = {}
    for metric, way in better.items():
        xs = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        ys = [p[side]["metrics"][metric]["value"] for p in pairs]
        won = sum((y < x) if way == "lower" else (y > x) for x, y in zip(xs, ys))
        out[metric] = {"better": way,
                       "parent_median": round(statistics.median(xs), 4),
                       "parent_quartiles": _quartiles(xs),
                       f"{prefix}_median": round(statistics.median(ys), 4),
                       f"{prefix}_quartiles": _quartiles(ys),
                       won_name: f"{won}/{len(pairs)}"}
    return out


def ratios(pairs: list, metrics) -> dict:
    """Per metric: the second side's median over the parent's, and the median
    over pairs of the first run's value over the second run's."""
    side = _second(pairs)
    out = {}
    for metric in metrics:
        def value(pair, s):
            return pair[s]["metrics"][metric]["value"]

        out[metric] = {"median_ratio": round(
            statistics.median(value(p, side) for p in pairs)
            / statistics.median(value(p, "parent") for p in pairs), 4)}
        if all("first" in p for p in pairs):  # the earliest files do not say
            out[metric]["first_to_second"] = round(statistics.median(
                value(p, p["first"]) / value(p, side if p["first"] == "parent" else "parent")
                for p in pairs), 4)
    return out


def workload_set(pairs: list, better: dict) -> dict:
    side = _second(pairs)
    runs = [p[s] for p in pairs for s in ("parent", side)]
    return {"summary": summary(pairs, better),
            "ratios": ratios(pairs, better),
            "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", side)},
            "correct": all(r["correct"] for r in runs),
            "pairs": pairs}


def _sets(doc, path=()):
    """(path, set) for every object in doc that holds a summary of its pairs."""
    if isinstance(doc, dict):
        if "summary" in doc and "pairs" in doc:
            yield path, doc
        for key, value in doc.items():
            yield from _sets(value, path + (key,))


def summarise(doc: dict) -> list:
    """Recompute every summary and ratio of doc in place, keeping each
    metric's `better`; returns (path, metric, in the file, recomputed) for
    every summary that differed."""
    differ = []
    for path, one in _sets(doc):
        better = {m: s["better"] for m, s in one["summary"].items()}
        fresh = summary(one["pairs"], better)
        differ += [(path, m, one["summary"][m], fresh[m]) for m in better
                   if one["summary"][m] != fresh[m]]
        one["summary"] = fresh
        one["ratios"] = ratios(one["pairs"], better)
    return differ


def _better(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _revision(tree: str) -> str:
    got = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True, text=True)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--summarise", metavar="FILE")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workloads", default="teleport-check,qubit-scaling,law-suite")
    ap.add_argument("--seeds", default="700-709")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--held-out-seeds", default="none")
    ap.add_argument("--held-out-workloads", default="qubit-scaling")
    ap.add_argument("--note", default="", help="what the change is, for the file's `change`")
    ap.add_argument("--out", help="file to write (default: standard output)")
    args = ap.parse_args(argv)

    if args.summarise:
        with open(args.summarise, encoding="utf-8") as fh:
            doc = json.load(fh)
        differ = summarise(doc)
        for path, metric, had, fresh in differ:
            print(f"{'/'.join(path)} {metric}: file {had}, recomputed {fresh}", file=sys.stderr)
        print(json.dumps(doc, indent=2))
        return 1 if differ else 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required unless --summarise is given")

    better = _better(args.parent)
    workloads = args.workloads.split(",")
    seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds

    def run(tree, workload, seed):
        return run_once(tree, workload, seed, seconds)

    trees = {"parent": args.parent, "change": args.change}
    doc = {"format": FORMAT, "change": args.note, "parent": _revision(args.parent),
           "command": COMMAND.format(workload="W", seed="S", seconds=seconds),
           "machine": f"{os.cpu_count()}-core {platform.machine()}, {platform.system()} "
                      f"{platform.release()}, Python {platform.python_version()}",
           "method": "pairs of runs of the parent and the change on one seed, one after the "
                     "other, in ABBA order over each two seeds (even pair index: parent "
                     "first); the A/A set runs the parent against a copy of its tree on the "
                     "same protocol; quartiles by statistics.quantiles(n=4)",
           "workloads": {w: workload_set(run_pairs(trees, w, seed_range(args.seeds), run),
                                         better) for w in workloads}}
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "parent_copy")
        shutil.copytree(args.parent, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".bench_trace", ".pytest_cache"))
        aa_trees = {"parent": args.parent, "parent_copy": copy}
        doc["a_a"] = {w: workload_set(run_pairs(aa_trees, w, seed_range(args.seeds), run),
                                      better) for w in workloads}
    held_seeds = seed_range(args.held_out_seeds)
    if held_seeds:
        doc["held_out"] = {w: workload_set(run_pairs(trees, w, held_seeds, run), better)
                           for w in args.held_out_workloads.split(",")}
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
