"""Command-line entry point: check, lts, run, bisim, laws, demo.

Batch tool; every command reads its inputs, prints a report (add --json for
the machine-readable form documented in docs/json_schemas.md), and exits 0 on
success, 1 on a negative verdict, 2 on errors, a negative seed, count or
bound among them, or `laws --qubits` below 1.  QCCS_TOL replaces the
default verdict tolerance (lp.TOL) of `bisim` and `laws`; `bisim --tol`
takes precedence over it.  `demo --tol` bounds the teleported-state error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bisim as bisim_mod
from . import demo as demo_mod
from . import laws as laws_mod
from . import lp
from .frontend import (
    ElaborationError, ParseError, Parser, elaborate, parse, pretty_print, tokenize, violations,
)
from .linalg import ATOL, factor_diagonal
from .lts import (
    InputPolicy, LtsError, OpenConfiguration, StuckError,
    build_lts, format_action, json_dumps, lts_to_dot, lts_to_json, run_trace,
)
from .syntax import ValueOutOfRange, WellformednessError


def _default_tol() -> float:
    env = os.environ.get("QCCS_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            value = math.nan
        if 0 < value < math.inf:
            return value
        print(f"warning: ignoring bad QCCS_TOL={env!r}", file=sys.stderr)
    return lp.TOL


def _tol_arg(value: float) -> float:
    if not 0 < value < math.inf:
        raise SystemExit2(f"--tol must be a finite number > 0, not {value!r}")
    return value


# the least value of each integer option, as its argparse dest
_LEAST = {"seed": 0, "samples": 0, "depth": 0, "qubits": 1,
          "max_nodes": 0, "max_depth": 0, "max_steps": 0}


def _check_least(args) -> None:
    for dest, least in _LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise SystemExit2(f"--{dest.replace('_', '-')} must be an integer >= {least}, "
                              f"not {value}")


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    return parse(text)


class SystemExit2(Exception):
    """Error that should terminate the command with exit code 2."""


def _pick_config(elab, name: str | None, path: str):
    if name:
        if name not in elab.configs:
            raise SystemExit2(
                f"{path}: no configuration named {name!r} "
                f"(available: {', '.join(elab.configs) or 'none'})")
        return name, elab.configs[name]
    if "Main" in elab.configs:
        return "Main", elab.configs["Main"]
    if len(elab.configs) == 1:
        name = next(iter(elab.configs))
        return name, elab.configs[name]
    raise SystemExit2(f"{path}: pick a configuration with --config "
                      f"(available: {', '.join(elab.configs) or 'none'})")


def _policy(elab, open_inputs: bool) -> InputPolicy:
    policy = elab.policy
    if open_inputs:
        print("note: open-input mode enumerates a finite stand-in for the "
              "environment; equivalences are sound for distinguishing but may "
              "miss inputs outside the policy", file=sys.stderr)
        return policy.open()
    return policy


# -- commands --


def cmd_check(args) -> int:
    source = _load(args.file)
    problems, faulty = [], set()
    for name, proc in source.processes.items():
        for v in violations(proc):
            problems.append(f"process {name}: {v}")
            faulty.add(id(proc))
    try:
        elaborate(source)
    except ElaborationError as exc:
        # a configuration whose process is a faulty declared one (the parser
        # inlines a reference as the same object) repeats its faults
        problems += [message for message, config in exc.faults
                     if config is None or id(source.configs[config].process) not in faulty]
    if problems:
        for p in problems:
            print(f"{args.file}: {p}")
        return 1
    counts = (f"{len(source.processes)} process(es), "
              f"{len(source.configs)} config(s), {len(source.checks)} check(s)")
    print(f"{args.file}: ok ({counts})")
    return 0


def cmd_lts(args) -> int:
    source = _load(args.file)
    elab = elaborate(source)
    name, config = _pick_config(elab, args.config, args.file)
    policy = _policy(elab, args.open)
    graph = build_lts(config, policy=policy, max_nodes=args.max_nodes,
                      max_depth=args.max_depth)
    if args.format == "dot":
        print(lts_to_dot(graph))
    else:
        payload = lts_to_json(graph)
        payload["config"] = name
        print(json_dumps(payload))
    return 0


def cmd_run(args) -> int:
    if args.script and args.scheduler != "interactive-script":
        raise SystemExit2("--script needs --scheduler interactive-script")
    source = _load(args.file)
    elab = elaborate(source)
    name, config = _pick_config(elab, args.config, args.file)
    policy = _policy(elab, args.open)
    if args.scheduler == "interactive-script":
        if not args.script:
            raise SystemExit2("--scheduler interactive-script needs --script FILE")
        try:
            with open(args.script, encoding="utf-8") as fh:
                scheduler = [int(tok) for tok in fh.read().split()]
        except OSError as exc:
            raise SystemExit2(f"cannot read {args.script}: {exc}")
        except ValueError as exc:
            raise SystemExit2(f"{args.script}: choices must be integers ({exc})")
    else:
        scheduler = args.scheduler
    try:
        trace = run_trace(config, scheduler=scheduler, seed=args.seed,
                          policy=policy, sample=args.sample,
                          max_steps=args.max_steps)
    except StuckError as exc:
        print(f"stuck: {exc}", file=sys.stderr)
        return 1

    if args.json:
        payload = {
            "format": "qccs-run", "version": 1, "config": name,
            "status": trace.status,
            "steps": [
                {
                    "action": format_action(s.action),
                    "support": [
                        {"term": pretty_print(c.process), "prob": p}
                        for c, p in s.distribution
                    ],
                    "sampled": s.sampled,
                }
                for s in trace.steps
            ],
            "final": [
                {
                    "term": pretty_print(c.process),
                    "vars": list(c.context.vars),
                    "prob": p,
                    "rho_diag": factor_diagonal(c.context.factor).tolist(),
                }
                for c, p in trace.final
            ],
        }
        print(json_dumps(payload))
        return 0

    print(f"run {name} ({trace.status}, {len(trace.steps)} step(s))")
    for i, step in enumerate(trace.steps):
        print(f"  {i + 1}. {format_action(step.action)}")
        if len(step.distribution) > 1 or step.sampled is not None:
            for k, (c, p) in enumerate(step.distribution):
                mark = " <== sampled" if step.sampled == k else ""
                print(f"       {p:.4g}  {c}{mark}")
    print("final distribution:")
    for c, p in trace.final:
        print(f"  {p:.4g}  {c}")
    return 0


def cmd_bisim(args) -> int:
    source = _load(args.file)
    elab = elaborate(source)
    policy = _policy(elab, args.open)
    tol = _tol_arg(args.tol) if args.tol is not None else _default_tol()

    queries = []
    if args.left or args.right:
        if not (args.left and args.right):
            raise SystemExit2("--left and --right must be given together")
        for side in (args.left, args.right):
            if side not in elab.configs:
                raise SystemExit2(f"no configuration named {side!r}")
        queries.append((args.mode, args.left, args.right))
    elif elab.checks:
        queries = list(elab.checks)
    else:
        raise SystemExit2("no --left/--right given and the file has no check directives")

    worst = 0
    reports = []
    for mode, left, right in queries:
        graph = build_lts([elab.configs[left], elab.configs[right]], policy=policy)
        fn = {"strong": bisim_mod.strong_bisim, "weak": bisim_mod.weak_bisim,
              "eq": bisim_mod.equality_check}[mode]
        result = fn(graph, graph.initial[0], graph.initial[1], tol)
        if args.json:
            # to_json reads the witness, which text mode never prints
            reports.append({**result.to_json(), "left_name": left, "right_name": right})
        else:
            verdict = "equivalent" if result.equivalent else "distinguished"
            print(f"{mode}: {left} vs {right}: {verdict}")
            if not result.equivalent and result.counterexample:
                print(f"  why: {result.counterexample.get('reason', result.counterexample)}")
        if not result.equivalent:
            worst = 1
    if args.json:
        out = reports[0] if len(reports) == 1 else {
            "format": "qccs-verdicts", "version": 1, "results": reports}
        print(json_dumps(out))
    return worst


def cmd_laws(args) -> int:
    tol = _default_tol()
    report = laws_mod.check_laws(samples=args.samples, seed=args.seed,
                                 depth=args.depth, qubits=args.qubits,
                                 tol=tol, mutate=args.mutate)
    if args.json:
        print(json_dumps(report.to_json()))
    else:
        total = sum(report.checked.values())
        print(f"laws: {total} instance(s) over {report.samples} samples, seed {report.seed}")
        for law, n in sorted(report.checked.items()):
            fails = sum(1 for f in report.failures if f.law == law)
            print(f"  {law}: {n - fails}/{n} pass")
        for f in report.failures[:10]:
            print(f"  FAIL {f.law} sample {f.sample}: {f.left}  vs  {f.right}")
    if args.mutate:
        # a mutated run is expected to surface failures; report them and exit 1
        # on stderr under --json, so that stdout stays one JSON document
        print(f"mutation run: checker caught {len(report.failures)} of "
              f"{sum(report.checked.values())} mutated instances",
              file=sys.stderr if args.json else sys.stdout)
        return 1 if report.failures else 0
    return 0 if report.ok else 1


def cmd_demo(args) -> int:
    tol = _tol_arg(args.tol)
    try:
        alpha = _parse_amplitude(args.alpha)
        beta = _parse_amplitude(args.beta)
        report = demo_mod.verify_teleport(alpha, beta, tol=tol)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if args.json:
        print(json_dumps({
            "format": "qccs-demo", "version": 1, "subject": "teleport",
            "alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag],
            "branches": [
                {"prob": b.probability, "error": b.error, "ok": b.fidelity_ok}
                for b in report.branches
            ],
            "steps": report.steps,
            "ok": report.ok,
        }))
        return 0 if report.ok else 1
    print(f"teleport alpha={alpha:.6g} beta={beta:.6g}: "
          f"{len(report.branches)} branches, {report.steps} steps")
    for b in report.branches:
        print(f"  p={b.probability:.4g} receiver-state error={b.error:.2e} "
              f"{'ok' if b.fidelity_ok else 'MISMATCH'}")
    print("verdict:", "teleported" if report.ok else "FAILED")
    return 0 if report.ok else 1


def _parse_amplitude(text: str) -> complex:
    parser = Parser(tokenize(text))
    value = parser.scalar_expr()
    parser.expect("EOF")
    return complex(value)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qccs",
        description="Interpreter and bisimilarity checker for a quantum process calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a source file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("lts", help="explore a configuration's transition system")
    p.add_argument("file")
    p.add_argument("--config")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--max-nodes", type=int, default=4000)
    p.add_argument("--max-depth", type=int, default=200)
    p.add_argument("--open", action="store_true",
                   help="enumerate environment inputs with the finite policy")
    p.set_defaults(fn=cmd_lts)

    p = sub.add_parser("run", help="execute one scheduled trace")
    p.add_argument("file")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--scheduler", choices=["first", "random", "interactive-script"],
                   default="first")
    p.add_argument("--script", help="choice file for --scheduler interactive-script")
    p.add_argument("--sample", action="store_true",
                   help="sample probabilistic branches instead of carrying distributions")
    p.add_argument("--max-steps", type=int, default=500)
    p.add_argument("--open", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bisim", help="decide bisimilarity between two configurations")
    p.add_argument("file")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--mode", choices=["strong", "weak", "eq"], default="strong")
    p.add_argument("--tol", type=float)
    p.add_argument("--open", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("laws", help="run the algebraic-law property suite")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--qubits", type=int, default=2)
    p.add_argument("--mutate", action="store_true",
                   help="swap a gate in each instance to confirm the suite catches it")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("demo", help="built-in protocol demonstrations")
    p.add_argument("subject", choices=["teleport"])
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", default="0")
    p.add_argument("--tol", type=float, default=ATOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_demo)

    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        _check_least(args)
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1 if args.command == "check" else 2
    except (ElaborationError, WellformednessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if args.command == "check" else 2
    except OpenConfiguration as exc:
        print(f"error: {exc}\nhint: pass --open to enumerate a finite input policy",
              file=sys.stderr)
        return 2
    except (SystemExit2, LtsError, lp.NumericalFailure, ValueOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
