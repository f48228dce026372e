"""Run one benchmark workload and print its metrics as the last output line.

    python3 perfbench/run.py --workload teleport-check --seed 0 --seconds 30 --trace 0

Run it from the root of a qccs checkout.  The process re-executes itself
once with the BLAS thread count pinned to 1 and the hash seed derived from
--seed, so every run of one seed sees the same inputs and the same
iteration orders.  It then sets up (median of several cold starts), warms
up, and runs whole rounds of the workload's operations in a closed loop
until another round would overrun --seconds.

With --trace 0 it prints the end-to-end metrics, times in reference
seconds (see speed.py).  With --trace 1 it runs each round twice on the
same inputs, first untraced, then with every public function of the traced
qccs layers wrapped; it prints the per-layer metrics (the median over
traced rounds) and the tracing overhead (traced minus untraced time per
round), and writes the spans to .bench_trace/<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs  # standard library only, so safe before the re-exec

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
# a cold start: fresh interpreter, imports, input generation, warm-up; it
# prints the system-wide monotonic clock when done, so that the parent's
# polling of the child's exit does not count
SETUP_PROBE = ("import sys, time; sys.path[:0] = [{here!r}]; import workloads; "
               "workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).warm_up(); "
               "print(time.monotonic())")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pinned_env(seed: int) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def cold_start(code: str, args: tuple, env: dict) -> float:
    """Seconds from spawning `python3 -c code args` to the time it prints."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          timeout=150, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median cold start in reference seconds: each is timed between two
    baseline cold starts and scaled by their mean (see speed.py)."""
    import speed

    base = [cold_start(speed.BASELINE, (), env)]
    times = []
    for _ in range(SETUP_REPEATS):
        t = cold_start(SETUP_PROBE.format(here=HERE), (workload, str(seed)), env)
        base.append(cold_start(speed.BASELINE, (), env))
        times.append(t * speed.COLD_REFERENCE_S / statistics.fmean(base[-2:]))
    return statistics.median(times)


def run_rounds(work, seconds: float) -> list:
    """Whole rounds until another one would overrun `seconds`."""
    rounds, t0 = [], time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(work.run_round(len(rounds)))
        now = time.perf_counter()
        if (now - t0) + (now - r0) > seconds:
            return rounds


def end_to_end(ops: list, setup_s: float, probe) -> dict:
    """Times in reference seconds (see speed.py)."""
    good = [probe.reference_seconds(op.start, op.end) for op in ops if op.ok]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(good) / sum(good) if good else 0.0, "unit": "1/s"},
        "op_geomean_ms": {"value": 1000 * math.exp(statistics.fmean(map(math.log, good)))
                          if good else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced(work, seconds: float, name: str, seed: int) -> tuple:
    """Pairs of rounds on the same inputs, untraced then traced."""
    from tracer import Tracer, layer_metrics, per_layer_units

    tracer = Tracer()
    plain, rounds, bounds = [], [], []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(work.run_round(len(plain)))
        first = len(tracer.spans)
        tracer.install()
        try:
            rounds.append(work.run_round(len(rounds)))
        finally:
            tracer.uninstall()
        bounds.append((first, len(tracer.spans)))
        now = time.perf_counter()
        if (now - t0) + (now - r0) > seconds:
            break
    tracer.assign_ops([op for r in rounds for op in r])
    per_round = [layer_metrics(tracer.spans, a, b) for a, b in bounds]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    untraced_s = sum(op.seconds for r in plain for op in r)
    traced_s = sum(op.seconds for r in rounds for op in r)
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / len(rounds)
    metrics["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    metrics["trace.spans"] = statistics.median(b - a for a, b in bounds)
    out_dir = os.path.join(os.getcwd(), ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"{name}-seed{seed}.jsonl"))
    units = per_layer_units()
    return plain + rounds, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qccs", "__init__.py")):
        print("run.py: no src/qccs here; run it from the root of a qccs checkout",
              file=sys.stderr)
        return 2
    env = pinned_env(args.seed)
    if any(os.environ.get(k) != env[k] for k in (*PINNED_ENV, "PYTHONHASHSEED")):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    import speed
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed)
    work.warm_up()
    if args.trace:
        rounds, metrics = traced(work, args.seconds, args.workload, args.seed)
    else:
        setup_s = measure_setup(args.workload, args.seed, env)
        probe = speed.SpeedProbe()
        with probe.sampling():
            rounds = run_rounds(work, args.seconds)
        metrics = end_to_end([op for r in rounds for op in r], setup_s, probe)
    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if not op.ok]
    for op in failed[:5]:
        print(f"failed: {op.name}: {op.detail}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
