"""Seeded random terms and the algebraic-law / congruence property suites.

Generated terms are well-formed by construction: parallel compositions split
the available qubit pool, and a quantum output reserves its qubit away from
the continuation.  The three suites (check_laws, congruence_suite and
equality_plus_context_suite) share one report, LawsReport, and one check
step, LawsReport.check, which decides each law or context instance with the
checker of its mode over a freshly sampled shared context.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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


@dataclass
class LawFailure:
    law: str
    sample: int
    left: str
    right: str
    counterexample: dict | None


@dataclass
class LawsReport:
    """One suite run: the instances checked per law or context, and each one
    distinguished.  `samples` counts the draws (term triples for check_laws,
    equivalent pairs for the congruence suites)."""

    samples: int
    seed: int
    checked: dict = field(default_factory=dict)   # law -> count
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, law: str, sample: int, mode: str, lhs: ProcessExpr, rhs: ProcessExpr,
              rng, extra=(), tol: float = lp.TOL) -> bool:
        """Check one instance of `law`: explore both sides under SUITE_POLICY
        in one random context over their qubits and `extra`, decide them with
        the checker of `mode`, count the instance and record a failure.
        Returns the verdict.  The checker is read from this module's globals
        at each call, so a caller that rebinds those names sees each verdict."""
        vars_ = tuple(sorted(qv(lhs) | qv(rhs) | set(extra)))
        ctx = make_context(vars_, random_density(rng, len(vars_)))
        lts = build_lts([Configuration(lhs, ctx), Configuration(rhs, ctx)],
                        policy=SUITE_POLICY, max_nodes=6000)
        checker = {"strong": strong_bisim, "weak": weak_bisim, "eq": equality_check}[mode]
        result = checker(lts, lts.initial[0], lts.initial[1], tol)
        self.checked[law] = self.checked.get(law, 0) + 1
        if not result.equivalent:
            self.failures.append(LawFailure(law, sample, pretty_print(lhs), pretty_print(rhs),
                                            result.counterexample))
        return result.equivalent

    def to_json(self) -> dict:
        return {
            "format": "qccs-laws",
            "version": 1,
            "samples": self.samples,
            "seed": self.seed,
            "checked": self.checked,
            "failures": [asdict(f) for f in self.failures],
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
    """Check the sum/parallel static laws strongly on seeded random terms.

    With `mutate` set, one side of each instance gets a gate mutated first
    (an instance with no gate to mutate is skipped); the report then records
    which instances the checker caught (all laws are expected to fail
    somewhere, demonstrating suite sensitivity).
    """
    rng = np.random.default_rng(seed)
    report = LawsReport(samples, seed)
    for k in range(samples):
        qavail = tuple(f"q{i}" for i in range(rng.integers(1, qubits + 1)))
        e, f, g = (random_process(rng, depth, qavail) for _ in range(3))
        for law, (lhs, rhs) in _law_instances(e, f, g).items():
            if mutate:
                lhs, changed = mutate_gate(lhs)
                if not changed:
                    continue
            report.check(law, k, "strong", lhs, rhs, rng, tol=tol)
    return report


# -- congruence suites --


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


def _equivalent_pair(rng):
    """A random term e, an equivalent rewrite f of it, and a summand g over
    the same qubits."""
    qavail = tuple(f"q{i}" for i in range(rng.integers(1, SUITE_QUBITS + 1)))
    e = random_process(rng, SUITE_DEPTH, qavail)
    return e, equivalent_rewrite(rng, e), random_process(rng, SUITE_DEPTH, qavail)


_RELABEL = RelabelFn([(CCHANS[0], CCHANS[1]), (QCHANS[0], QCHANS[1])])

# The congruence contexts: a name, the context around one side t of a pair
# (given its summand g and classical component r), and the qubits it adds.
# Prefixes act on the spare qubit qs; drawn terms hold only q0, q1 and qr free.
_CONTEXTS = (
    ("prefix-cin", lambda t, g, r: CInput(CCHANS[0], "zz", t), ("qs",)),
    ("prefix-cout", lambda t, g, r: COutput(CCHANS[0], Const(1.0), t), ("qs",)),
    ("prefix-qin", lambda t, g, r: QInput(QCHANS[0], "qs", t), ("qs",)),
    ("prefix-qout", lambda t, g, r: QOutput(QCHANS[0], "qs", t), ("qs",)),
    ("prefix-unitary", lambda t, g, r: Unitary(linalg.GATE_H, ("qs",), t), ("qs",)),
    ("prefix-measure", lambda t, g, r: Measure(linalg.OBS_M01, ("qs",), "zz", t), ("qs",)),
    ("sum-context", lambda t, g, r: Sum(t, g), ()),
    ("parallel-classical", lambda t, g, r: Parallel(t, r), ("qr",)),
    ("relabel", lambda t, g, r: Relabel(t, _RELABEL), ()),
)


def congruence_suite(pairs: int = 20, seed: int = 0) -> LawsReport:
    """For pairs (e, f) found strongly or weakly bisimilar ("<mode>-base"),
    verify closure under each of _CONTEXTS ("<mode>-<context>"): prefixing,
    summation, classical parallel composition and relabelling."""
    rng = np.random.default_rng(seed)
    report = LawsReport(pairs, seed)
    for k in range(pairs):
        e, f, g = _equivalent_pair(rng)
        r = random_process(rng, SUITE_DEPTH, ("qr",), classical_only=True)
        for mode in ("strong", "weak"):
            if report.check(f"{mode}-base", k, mode, e, f, rng):
                for name, wrap, extra in _CONTEXTS:
                    report.check(f"{mode}-{name}", k, mode, wrap(e, g, r), wrap(f, g, r),
                                 rng, extra)
    return report


def equality_plus_context_suite(pairs: int = 10, seed: int = 1) -> LawsReport:
    """Equal processes stay weakly bisimilar under any added summand: for
    each drawn pair (e, f) found equal ("eq-base"), check e + g and f + g
    weakly ("eq-implies-sum-weak")."""
    rng = np.random.default_rng(seed)
    report = LawsReport(pairs, seed)
    for k in range(pairs):
        e, f, g = _equivalent_pair(rng)
        if report.check("eq-base", k, "eq", e, f, rng):
            report.check("eq-implies-sum-weak", k, "weak", Sum(e, g), Sum(f, g), rng)
    return report
