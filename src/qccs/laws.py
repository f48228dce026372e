"""Seeded random terms and the algebraic-law / congruence property suites.

Generated terms are well-formed by construction: parallel compositions split
the available qubit pool, and a quantum output reserves its qubit away from
the continuation.  The suites check each law instance with the bisimilarity
checkers over freshly sampled contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, lp
from .bisim import equality_check, strong_bisim, weak_bisim
from .context import make_context
from .frontend import pretty_print
from .lts import Configuration, InputPolicy, build_lts
from .syntax import (
    Arith, BoolOp, Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Not,
    Parallel, ProcessExpr, QbitNew, QInput, QOutput, Relabel, RelabelFn,
    Restrict, Sum, Unitary, Var, qv, rebuild,
)

CCHANS = (Chan("c", False), Chan("d", False))
QCHANS = (Chan("qc", True), Chan("qd", True))
ONEQ_GATES = (linalg.GATE_H, linalg.GATE_X, linalg.GATE_Z, linalg.GATE_I)

# small domains keep the law-suite transition systems compact
SUITE_POLICY = InputPolicy(
    classical_domains=tuple((c, (0.0, 1.0)) for c in CCHANS),
    quantum_recipes=(("|0><0|", linalg.dm(linalg.KET0)),
                     ("|+><+|", linalg.dm(linalg.KET_PLUS))),
    closed_only=False,
)

SUITE_DEPTH = 2   # term depth of the congruence suites' random processes
SUITE_QUBITS = 2  # and the most free qubits they hold


def random_value_expr(rng, cvars, depth: int = 1):
    if depth > 0 and rng.random() < 0.3:
        op = rng.choice(["+", "-", "*"])
        return Arith(op, random_value_expr(rng, cvars, depth - 1),
                     random_value_expr(rng, cvars, depth - 1))
    if cvars and rng.random() < 0.5:
        return Var(rng.choice(list(cvars)))
    return Const(float(rng.integers(0, 4)))


def random_bool_expr(rng, cvars, depth: int = 1):
    if depth > 0 and rng.random() < 0.25:
        if rng.random() < 0.3:
            return Not(random_bool_expr(rng, cvars, depth - 1))
        op = rng.choice(["&&", "||"])
        return BoolOp(op, random_bool_expr(rng, cvars, depth - 1),
                      random_bool_expr(rng, cvars, depth - 1))
    op = rng.choice(["=", "<", "<="])
    return Cmp(op, random_value_expr(rng, cvars, 0), random_value_expr(rng, cvars, 0))


def random_process(
    rng,
    depth: int,
    qavail: tuple,
    cvars: tuple = (),
    classical_only: bool = False,
    allow_quantum_input: bool = False,
) -> ProcessExpr:
    """A well-formed term whose free quantum variables lie within qavail."""
    if depth <= 0:
        return Nil()

    choices = ["nil", "cin", "cout", "sum", "if", "rel", "res"]
    weights = [1.0, 1.5, 2.0, 2.0, 1.0, 0.7, 0.7]
    if len(qavail) >= 2:
        choices.append("par")
        weights.append(1.5)
    if qavail:
        choices.append("qout")
        weights.append(1.0)
    if not classical_only:
        if qavail:
            choices += ["unitary", "measure"]
            weights += [2.5, 1.5]
        choices.append("qbit")
        weights.append(0.6)
        if allow_quantum_input:
            choices.append("qin")
            weights.append(0.4)

    weights = np.array(weights) / sum(weights)
    kind = rng.choice(choices, p=weights)
    sub = lambda qs, cs=cvars: random_process(  # noqa: E731
        rng, depth - 1, tuple(sorted(qs)), tuple(sorted(cs)),
        classical_only, allow_quantum_input)

    if kind == "nil":
        return Nil()
    if kind == "cin":
        x = f"x{rng.integers(0, 3)}"
        return CInput(rng.choice(CCHANS), x, sub(qavail, set(cvars) | {x}))
    if kind == "cout":
        return COutput(rng.choice(CCHANS), random_value_expr(rng, cvars), sub(qavail))
    if kind == "qout":
        q = rng.choice(list(qavail))
        return QOutput(rng.choice(QCHANS), q, sub(set(qavail) - {q}))
    if kind == "qbit":
        b = f"b{rng.integers(0, 3)}"
        return QbitNew(b, sub(set(qavail) | {b}))
    if kind == "qin":
        b = f"b{rng.integers(0, 3)}"
        return QInput(rng.choice(QCHANS), b, sub(set(qavail) | {b}))
    if kind == "unitary":
        if len(qavail) >= 2 and rng.random() < 0.25:
            qs = list(rng.choice(list(qavail), size=2, replace=False))
            return Unitary(linalg.GATE_CNOT, tuple(qs), sub(qavail))
        q = rng.choice(list(qavail))
        return Unitary(rng.choice(ONEQ_GATES), (q,), sub(qavail))
    if kind == "measure":
        q = rng.choice(list(qavail))
        x = f"x{rng.integers(0, 3)}"
        return Measure(linalg.OBS_M01, (q,), x, sub(qavail, set(cvars) | {x}))
    if kind == "sum":
        return Sum(sub(qavail), sub(qavail))
    if kind == "par":
        pool = list(qavail)
        rng.shuffle(pool)
        cut = rng.integers(0, len(pool) + 1)
        return Parallel(sub(pool[:cut]), sub(pool[cut:]))
    if kind == "rel":
        pairs = []
        if rng.random() < 0.7:
            pairs.append((CCHANS[0], CCHANS[1]))
        if rng.random() < 0.4:
            pairs.append((QCHANS[0], QCHANS[1]))
        return Relabel(sub(qavail), RelabelFn(pairs))
    if kind == "res":
        pool = list(CCHANS + QCHANS)
        k = rng.integers(1, len(pool) + 1)
        chans = frozenset(rng.choice(pool, size=k, replace=False))
        return Restrict(sub(qavail), chans)
    if kind == "if":
        return If(random_bool_expr(rng, cvars), sub(qavail))
    raise AssertionError(kind)


def random_density(rng, n: int) -> np.ndarray:
    """Random pure state, occasionally a two-state mixture."""
    dim = 2**n

    def pure():
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return linalg.dm(v)

    if rng.random() < 0.25:
        return 0.5 * pure() + 0.5 * pure()
    return pure()


def _joint(e: ProcessExpr, f: ProcessExpr, rng, extra_vars=()):
    """A shared context covering both terms, plus the joint LTS."""
    vars_ = tuple(sorted(qv(e) | qv(f) | set(extra_vars)))
    ctx = make_context(vars_, random_density(rng, len(vars_)))
    lts = build_lts([Configuration(e, ctx), Configuration(f, ctx)],
                    policy=SUITE_POLICY, max_nodes=6000)
    return lts


def _check(mode, e, f, rng, extra_vars=(), tol: float = lp.TOL):
    lts = _joint(e, f, rng, extra_vars)
    fn = {"strong": strong_bisim, "weak": weak_bisim, "eq": equality_check}[mode]
    return fn(lts, lts.initial[0], lts.initial[1], tol)


@dataclass
class LawFailure:
    law: str
    sample: int
    left: str
    right: str
    counterexample: dict | None


@dataclass
class LawsReport:
    samples: int
    seed: int
    checked: dict = field(default_factory=dict)   # law -> count
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "format": "qccs-laws",
            "version": 1,
            "samples": self.samples,
            "seed": self.seed,
            "checked": self.checked,
            "failures": [
                {"law": f.law, "sample": f.sample, "left": f.left, "right": f.right,
                 "counterexample": f.counterexample}
                for f in self.failures
            ],
            "ok": self.ok,
        }


def _law_instances(e, f, g):
    return {
        "sum-commutative": (Sum(e, f), Sum(f, e)),
        "sum-idempotent": (Sum(e, e), e),
        "sum-associative": (Sum(e, Sum(f, g)), Sum(Sum(e, f), g)),
        "sum-unit": (Sum(e, Nil()), e),
        "parallel-unit": (Parallel(e, Nil()), e),
    }


def mutate_gate(term: ProcessExpr):
    """Mutate the first unitary, in pre-order, that has a mutation (for suite
    self-checks): a one-qubit gate is swapped for another gate, and a CNOT
    has its two qubits reversed.  Returns the new term and whether it differs
    from `term`."""
    swapped = {"H": linalg.GATE_X, "X": linalg.GATE_Z, "Z": linalg.GATE_H, "I": linalg.GATE_X}
    done = False

    def walk(t):
        nonlocal done
        if done:
            return t
        if isinstance(t, Unitary) and t.gate.name == "CNOT":
            done = True
            return Unitary(t.gate, t.qvars[::-1], t.body)
        if isinstance(t, Unitary) and t.gate.arity == 1:
            done = True
            return Unitary(swapped.get(t.gate.name, linalg.GATE_X), t.qvars, t.body)
        return rebuild(t, walk)

    out = walk(term)
    return out, out != term


def check_laws(samples: int = 40, seed: int = 0, depth: int = 3, qubits: int = 2,
               tol: float = lp.TOL, mutate: bool = False) -> LawsReport:
    """Check the sum/parallel static laws on seeded random terms.

    With `mutate` set, one side of each instance gets a gate mutated first;
    the report then records which instances the checker caught (all laws are
    expected to fail somewhere, demonstrating suite sensitivity).
    """
    rng = np.random.default_rng(seed)
    report = LawsReport(samples, seed)
    for k in range(samples):
        qavail = tuple(f"q{i}" for i in range(rng.integers(1, qubits + 1)))
        e = random_process(rng, depth, qavail)
        f = random_process(rng, depth, qavail)
        g = random_process(rng, depth, qavail)
        for law, (lhs, rhs) in _law_instances(e, f, g).items():
            if mutate:
                lhs, changed = mutate_gate(lhs)
                if not changed:
                    continue
            result = _check("strong", lhs, rhs, rng, tol=tol)
            report.checked[law] = report.checked.get(law, 0) + 1
            if not result.equivalent:
                report.failures.append(LawFailure(
                    law, k, pretty_print(lhs), pretty_print(rhs),
                    result.counterexample))
    return report


# -- congruence suite --


def equivalent_rewrite(rng, term: ProcessExpr) -> ProcessExpr:
    """A syntactic rewrite that preserves strong bisimilarity (and hence
    weak bisimilarity and equality): commuted/associated sums, idle summands,
    idle parallel components, or a duplicated summand."""
    kind = rng.choice(["commute", "assoc", "sum-nil", "par-nil", "dup"])
    if kind == "commute" and isinstance(term, Sum):
        return Sum(term.right, term.left)
    if kind == "assoc" and isinstance(term, Sum) and isinstance(term.left, Sum):
        return Sum(term.left.left, Sum(term.left.right, term.right))
    if kind == "sum-nil":
        return Sum(term, Nil())
    if kind == "par-nil":
        return Parallel(term, Nil())
    return Sum(term, term)


@dataclass
class CongruenceReport:
    pairs: int
    seed: int
    checked: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, ok: bool, detail: str):
        self.checked[name] = self.checked.get(name, 0) + 1
        if not ok:
            self.failures.append({"check": name, "detail": detail})


def _prefix_contexts(spare: str):
    c, qc = CCHANS[0], QCHANS[0]
    return [
        ("prefix-cin", lambda t: CInput(c, "zz", t)),
        ("prefix-cout", lambda t: COutput(c, Const(1.0), t)),
        ("prefix-qin", lambda t: QInput(qc, spare, t)),
        ("prefix-qout", lambda t: QOutput(qc, spare, t)),
        ("prefix-unitary", lambda t: Unitary(linalg.GATE_H, (spare,), t)),
        ("prefix-measure", lambda t: Measure(linalg.OBS_M01, (spare,), "zz", t)),
    ]


def congruence_suite(pairs: int = 20, seed: int = 0) -> CongruenceReport:
    """For checker-established equivalent pairs (E, F), verify closure under
    prefixing, summation, classical parallel composition, and relabeling."""
    rng = np.random.default_rng(seed)
    report = CongruenceReport(pairs, seed)
    spare = "qs"
    for _ in range(pairs):
        qavail = tuple(f"q{i}" for i in range(rng.integers(1, SUITE_QUBITS + 1)))
        e = random_process(rng, SUITE_DEPTH, qavail)
        f = equivalent_rewrite(rng, e)
        g = random_process(rng, SUITE_DEPTH, qavail)
        r = random_process(rng, SUITE_DEPTH, ("qr",), classical_only=True)

        for mode in ("strong", "weak"):
            base = _check(mode, e, f, rng)
            report.record(f"{mode}-base", base.equivalent, pretty_print(e))
            if not base.equivalent:
                continue
            for name, wrap in _prefix_contexts(spare):
                if name == "prefix-qout" and spare in (qv(e) | qv(f)):
                    continue
                res = _check(mode, wrap(e), wrap(f), rng, extra_vars=(spare,))
                report.record(f"{mode}-{name}", res.equivalent, pretty_print(wrap(e)))
            res = _check(mode, Sum(e, g), Sum(f, g), rng)
            report.record(f"{mode}-sum-context", res.equivalent, pretty_print(Sum(e, g)))
            res = _check(mode, Parallel(e, r), Parallel(f, r), rng, extra_vars=("qr",))
            report.record(f"{mode}-parallel-classical", res.equivalent,
                          pretty_print(Parallel(e, r)))
            fn = RelabelFn([(CCHANS[0], CCHANS[1]), (QCHANS[0], QCHANS[1])])
            res = _check(mode, Relabel(e, fn), Relabel(f, fn), rng)
            report.record(f"{mode}-relabel", res.equivalent, pretty_print(Relabel(e, fn)))
    return report


def equality_plus_context_suite(pairs: int = 10, seed: int = 1) -> CongruenceReport:
    """Equal processes stay weakly bisimilar under any added summand."""
    rng = np.random.default_rng(seed)
    report = CongruenceReport(pairs, seed)
    for _ in range(pairs):
        qavail = tuple(f"q{i}" for i in range(rng.integers(1, SUITE_QUBITS + 1)))
        e = random_process(rng, SUITE_DEPTH, qavail)
        f = equivalent_rewrite(rng, e)
        g = random_process(rng, SUITE_DEPTH, qavail)
        eq = _check("eq", e, f, rng)
        report.record("eq-base", eq.equivalent, pretty_print(e))
        if not eq.equivalent:
            continue
        res = _check("weak", Sum(e, g), Sum(f, g), rng)
        report.record("eq-implies-sum-weak", res.equivalent, pretty_print(Sum(e, g)))
    return report
