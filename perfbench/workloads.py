"""The three benchmark workloads.

A workload is built from its seed alone.  `warm_up` validates every
generated source and runs the workload's smallest operation once;
`run_round(index)` runs every operation of the workload once, in a closed
loop, and returns one `OpResult` per operation; only law-suite draws
different inputs for different round indexes.  An operation is timed from its
source text (or suite call) to the program's answer; checking the answer
against the oracle happens outside the timed interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import inputs
import oracle
from tracer import rebind, restore

# called through their modules, so that a traced run sees these calls too
from qccs import bisim, frontend, laws, lts

CHECKERS = {"strong": "strong_bisim", "weak": "weak_bisim", "eq": "equality_check"}


@dataclass
class OpResult:
    name: str
    start: float  # time.perf_counter() at the start and end of the timed work
    end: float
    ok: bool
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _timed(name: str, produce, verify) -> OpResult:
    """Time produce(); verify its output untimed.  Any exception fails the op."""
    t0 = time.perf_counter()
    try:
        out = produce()
    except Exception as exc:  # a crash of the program under test is a failed op
        return OpResult(name, t0, time.perf_counter(), False, f"raised {exc!r}")
    t1 = time.perf_counter()
    try:
        verify(out)
    except oracle.Mismatch as exc:
        return OpResult(name, t0, t1, False, str(exc))
    return OpResult(name, t0, t1, True)


def _decide(source: str, mode: str, left: str, right: str):
    """What `qccs bisim` does for one directive: parse to verdict."""
    elab = frontend.elaborate(frontend.parse(source))
    oracle.expect((mode, left, right) in elab.checks, f"no directive {mode} {left} {right}")
    graph = lts.build_lts([elab.configs[left], elab.configs[right]], policy=elab.policy)
    checker = getattr(bisim, CHECKERS[mode])
    return graph, checker(graph, graph.initial[0], graph.initial[1])


def _verify_verdict(expected: bool, teleported=()):
    def verify(out):
        graph, result = out
        oracle.expect(result.equivalent is expected,
                      f"verdict {result.equivalent}, expected {expected}")
        oracle.check_edges(graph)
        for side, amps in teleported:
            oracle.check_teleported(graph, graph.initial[("Left", "Right").index(side)], amps)
    return verify


class TeleportCheck:
    """Strong, weak and eq checks of the teleportation protocol pairs."""

    def __init__(self, seed: int):
        self.checks = inputs.teleport_checks(seed)

    def warm_up(self) -> None:
        for c in self.checks:
            frontend.elaborate(frontend.parse(c.source))
        self.run_op(self.checks[-1])

    def run_op(self, c) -> OpResult:
        return _timed(c.name, lambda: _decide(c.source, c.mode, "Left", "Right"),
                      _verify_verdict(c.expected, c.teleported))

    def run_round(self, index: int) -> list:
        return [self.run_op(c) for c in self.checks]


class QubitScaling:
    """GHZ-n and measurement fan-out models: explored, and fan-outs traced."""

    def __init__(self, seed: int):
        self.models = inputs.scaling_models(seed)

    def warm_up(self) -> None:
        for m in self.models:
            frontend.elaborate(frontend.parse(m.source))
        smallest = min((m for m in self.models if m.kind == "fanout"), key=lambda m: m.n)
        self.explore(smallest)
        self.trace(smallest)

    def explore(self, m) -> OpResult:
        def produce():
            elab = frontend.elaborate(frontend.parse(m.source))
            return lts.build_lts(elab.configs["Main"], policy=elab.policy)
        check = oracle.check_ghz if m.kind == "ghz" else oracle.check_fanout
        return _timed(f"{m.name}/explore", produce, lambda g: check(g, m.n))

    def trace(self, m) -> OpResult:
        def produce():
            elab = frontend.elaborate(frontend.parse(m.source))
            return lts.run_trace(elab.configs["Main"], policy=elab.policy)
        return _timed(f"{m.name}/trace", produce, lambda t: oracle.check_fanout_trace(t, m.n))

    def run_round(self, index: int) -> list:
        out = [self.explore(m) for m in self.models]
        out += [self.trace(m) for m in self.models if m.kind == "fanout"]
        return out


class _VerdictLog:
    """Records each checker verdict reached inside a suite as one operation,
    timed from the previous verdict (or the suite's start) to this one, and
    expected equivalent: every suite instance is a law or a rewrite that
    preserves strong bisimilarity."""

    def __init__(self):
        self.results: list = []
        self.last = 0.0

    def _wrap(self, mode: str, fn):
        def logged(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = time.perf_counter()
            self.results.append(OpResult(
                f"suite/{mode}", self.last, now, result.equivalent is True,
                "" if result.equivalent else "a law or rewrite instance was distinguished"))
            self.last = now
            return result
        return logged

    def run(self, name: str, call) -> None:
        undo = []
        for mode, attr in CHECKERS.items():
            fn = getattr(bisim, attr)
            undo += rebind(fn, self._wrap(mode, fn))
        try:
            self.last = time.perf_counter()
            call()
        except Exception as exc:  # a suite that crashes fails as one op
            self.results.append(OpResult(f"{name}/crash", self.last, time.perf_counter(),
                                         False, f"raised {exc!r}"))
        finally:
            restore(undo)


class LawSuite:
    """Seeded law and congruence suites plus the corpus check directives."""

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = []
        for path, mode, left, right, expected in inputs.CORPUS_ANSWERS:
            with open(path, encoding="utf-8") as fh:
                self.corpus.append((f"{path}:{mode}:{left}:{right}", fh.read(),
                                    mode, left, right, expected))

    def warm_up(self) -> None:
        self.run_corpus()

    def run_corpus(self) -> list:
        return [_timed(name, lambda: _decide(text, mode, left, right),
                       _verify_verdict(expected))
                for name, text, mode, left, right, expected in self.corpus]

    def run_round(self, index: int) -> list:
        s_laws, s_cong, s_eq = inputs.suite_seeds(self.seed, index)
        log = _VerdictLog()
        log.run("check_laws", lambda: laws.check_laws(samples=inputs.LAW_SAMPLES, seed=s_laws))
        log.run("congruence_suite",
                lambda: laws.congruence_suite(pairs=inputs.CONGRUENCE_PAIRS, seed=s_cong))
        log.run("equality_plus_context_suite",
                lambda: laws.equality_plus_context_suite(pairs=inputs.EQ_PAIRS, seed=s_eq))
        return log.results + self.run_corpus()


WORKLOADS = dict(zip(inputs.WORKLOADS, (TeleportCheck, QubitScaling, LawSuite)))
