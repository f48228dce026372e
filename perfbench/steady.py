"""Repeat each workload over several seeds and report how steady it is.

    python3 perfbench/steady.py --seeds 10 --sets 2

Run it from the root of a qccs checkout.  Every run is a fresh process of
`perfbench/run.py` (which pins the BLAS thread count to 1), one at a time.
Each set runs every workload of BENCHMARK.json once per seed; set k uses
seeds k*seeds ... (k+1)*seeds - 1.  For each end-to-end metric it prints
the median, the quartiles and the spread (q3 - q1) / median, and checks,
against the bounds in BENCHMARK.json:

- the spread of every metric is within its bound;
- with two or more sets, every later set's median is within the bound of
  the first's, in either direction;
- the share of failed operations is the same in every set.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(workload, k * args.seeds + i, bench["run_seconds"])
                 for i in range(args.seeds)] for k in range(args.sets)]
        print(f"== {workload}: {args.sets} set(s) x {args.seeds} seeds, "
              f"{bench['run_seconds']} s runs")
        shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        shares_ok = len(set(shares)) == 1
        print(f"   failed share per set: {', '.join(map(str, shares))}"
              f"{'' if shares_ok else '  DIFFERS'}")
        ok &= shares_ok and all(r["correct"] for runs in sets for r in runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_med = None
            for k, runs in enumerate(sets):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                notes = []
                if sp > bound:
                    notes.append("SPREAD OVER BOUND")
                    ok = False
                elif sp > bound / 3:
                    notes.append("spread over bound/3")
                if first_med is None:
                    first_med = med
                else:
                    moved = (med - first_med) / first_med
                    notes.append(f"vs set 0: {100 * moved:+.1f}%")
                    if abs(moved) > bound:
                        notes.append("MEDIAN MOVED BEYOND BOUND")
                        ok = False
                print(f"   {name:14s} set {k}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {100 * sp:.1f}% (bound {100 * bound:.0f}%)  {' '.join(notes)}")
    print("steady: all checks hold" if ok else "steady: some check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
