"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of the traced qccs modules,
plus `Partition.split` and the `Distribution` constructor, and rebinds each
wrapper wherever a qccs module imported the function by name (`lts` imports
`context_equal` and `canonical`, `context` imports `lift_operator`, ...), so
that no call goes around it.  Each call records a span: name, parent span,
workload operation id, start, end, and the tracer's own time inside it: the
bookkeeping of the wrappers of its descendants and the observers that read
their arguments and results (an LP digest, a graph's size).  A span's
duration is end - start less that tracer time, so a layer's self time is
not the tracer's.  A call that re-enters a function already on the span
stack is passed through unrecorded, so every recorded span of a name is an
outermost one.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("frontend", "syntax", "lts", "context", "linalg", "lp", "bisim")
CHECKERS = ("bisim.strong_bisim", "bisim.weak_bisim", "bisim.equality_check")

NAME, PARENT, OP, START, END, HIDDEN, INFO = range(7)


def rebind(orig, new) -> list:
    """Point every qccs module-level name bound to `orig` at `new`.

    Returns (namespace, attribute, old value) triples for `restore`.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qccs" or mod_name.startswith("qccs.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                undo.append((mod, attr, orig))
    return undo


def restore(undo: list) -> None:
    for namespace, attr, value in reversed(undo):
        setattr(namespace, attr, value)


def _lp_info(args, kwargs, result):
    prog = args[0] if args else kwargs["lp"]
    digest = hashlib.blake2b(
        repr((prog.variables, prog.constraints, prog.objective)).encode(), digest_size=12
    ).digest()
    return digest, len(prog.constraints), len(prog.variables), result is None


def _qubits_info(args, kwargs, result):
    return max((len(a.vars) for a in args if hasattr(a, "vars") and hasattr(a, "rho")),
               default=0)


def _lts_info(args, kwargs, result):
    return result.node_count, sum(len(e) for e in result.edges)


def _blocks_info(args, kwargs, result):
    return result.partition.block_count


OBSERVERS = {
    "lp.feasible": _lp_info,
    "lts.build_lts": _lts_info,
    **{c: _blocks_info for c in CHECKERS},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self._hidden = [0.0]  # tracer seconds spent so far outside the calls it wraps

    def _wrap(self, name: str, fn):
        spans, stack, hidden = self.spans, self._stack, self._hidden
        clock = time.perf_counter
        observe = OBSERVERS.get(name)
        if observe is None and name.startswith("context."):
            observe = _qubits_info
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            entered = clock()
            rec = [name, stack[-1] if stack else -1, -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[0] = True
            hidden_before = hidden[0]
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[HIDDEN] = hidden[0] - hidden_before
                active[0] = False
                stack.pop()
            if observe is not None:
                rec[INFO] = observe(args, kwargs, result)
            hidden[0] += (rec[START] - entered) + (clock() - rec[END])
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"qccs.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._undo += rebind(fn, self._wrap(f"{layer}.{attr}", fn))
        bisim, lts = importlib.import_module("qccs.bisim"), importlib.import_module("qccs.lts")
        for cls, attr, name in ((bisim.Partition, "split", "bisim.Partition.split"),
                                (lts.Distribution, "__init__", "lts.Distribution")):
            fn = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, fn))
            self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def assign_ops(self, ops: list) -> None:
        """Give each span the index of the workload operation it ran in."""
        k = 0
        for rec in self.spans:
            while k < len(ops) and ops[k].end < rec[START]:
                k += 1
            rec[OP] = k if k < len(ops) and ops[k].start <= rec[START] else -1

    def write(self, path: str) -> None:
        """One JSON array per line: id, parent id, op id, name, start, end,
        tracer time inside (s)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[PARENT], s[OP], s[NAME], round(s[START] - t0, 9),
                                     round(s[END] - t0, 9), round(s[HIDDEN], 9)]))
                fh.write("\n")


def duration(span) -> float:
    """A span's time less the tracer's own time inside it."""
    return span[END] - span[START] - span[HIDDEN]


def _has_ancestor(spans, i: int, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list, first: int, last: int) -> dict:
    """Per-layer metrics of the spans recorded in [first, last): one round."""
    by_name: dict = {}
    for i in range(first, last):
        by_name.setdefault(spans[i][NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(duration(spans[i]) for i in by_name.get(name, ()))

    def secs_under(inner, outer):
        return sum(duration(spans[i]) for i in by_name.get(inner, ())
                   if _has_ancestor(spans, i, outer))

    feas = [spans[i][INFO] for i in by_name.get("lp.feasible", ()) if spans[i][INFO]]
    n_feas = len(feas)
    distinct = len({f[0] for f in feas})
    ctx_sizes = [spans[i][INFO] for name, idx in by_name.items()
                 if name.startswith("context.") for i in idx if spans[i][INFO]]
    built = [spans[i][INFO] for i in by_name.get("lts.build_lts", ()) if spans[i][INFO]]
    blocks = [spans[i][INFO] for c in CHECKERS for i in by_name.get(c, ())
              if spans[i][INFO] is not None]
    checker_s = sum(secs(c) for c in CHECKERS)

    return {
        "lp.feasible_calls": n_feas,
        "lp.feasible_s": secs("lp.feasible"),
        "lp.distinct_queries": distinct,
        "lp.distinct_ratio": distinct / n_feas if n_feas else 0.0,
        "lp.infeasible_calls": sum(1 for f in feas if f[3]),
        "lp.rows_mean": statistics.fmean(f[1] for f in feas) if feas else 0.0,
        "lp.vars_mean": statistics.fmean(f[2] for f in feas) if feas else 0.0,
        "lp.convex_hull_member_calls": calls("lp.convex_hull_member"),
        "lp.convex_hull_member_s": secs("lp.convex_hull_member"),
        "bisim.strong_s": secs("bisim.strong_bisim"),
        "bisim.weak_s": secs("bisim.weak_bisim"),
        "bisim.eq_s": secs("bisim.equality_check"),
        "bisim.self_s": checker_s - secs_under("lp.feasible", CHECKERS),
        "bisim.splits": calls("bisim.Partition.split"),
        "bisim.blocks": sum(blocks),
        "context.apply_unitary_calls": calls("context.apply_unitary"),
        "context.apply_unitary_s": secs("context.apply_unitary"),
        "context.measure_calls": calls("context.measure"),
        "context.measure_s": secs("context.measure"),
        "context.context_equal_calls": calls("context.context_equal"),
        "context.context_equal_s": secs("context.context_equal"),
        "context.max_qubits": max(ctx_sizes, default=0),
        "linalg.lift_operator_calls": calls("linalg.lift_operator"),
        "linalg.lift_operator_s": secs("linalg.lift_operator"),
        "linalg.permutation_op_calls": calls("linalg.permutation_op"),
        "linalg.permutation_op_s": secs("linalg.permutation_op"),
        "linalg.validate_observable_s": secs("linalg.validate_observable"),
        "lts.build_lts_s": secs("lts.build_lts"),
        "lts.nodes": sum(b[0] for b in built),
        "lts.edges": sum(b[1] for b in built),
        "lts.transitions_calls": calls("lts.transitions"),
        "lts.transitions_s": secs("lts.transitions"),
        "lts.intern_self_s": secs("lts.build_lts") - secs_under("lts.transitions",
                                                                ("lts.build_lts",)),
        "lts.run_trace_s": secs("lts.run_trace"),
        "lts.distribution_calls": calls("lts.Distribution"),
        "lts.distribution_s": secs("lts.Distribution"),
        "syntax.canonical_calls": calls("syntax.canonical"),
        "syntax.canonical_s": secs("syntax.canonical"),
        "frontend.parse_s": secs("frontend.parse"),
        "frontend.elaborate_s": secs("frontend.elaborate"),
    }


def per_layer_units() -> dict:
    """Unit of each per-layer metric, read off its name."""
    units = {}
    for name in list(layer_metrics([], 0, 0)) + ["trace.overhead_s", "trace.overhead_pct",
                                                 "trace.spans"]:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_pct"):
            units[name] = "%"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("max_qubits"):
            units[name] = "qubits"
        else:
            units[name] = "count"
    return units
