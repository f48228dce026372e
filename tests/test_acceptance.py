"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np

from qccs import linalg, lp
from qccs.bisim import Partition, _Matcher, strong_bisim
from qccs.context import make_context
from qccs.demo import verify_teleport
from qccs.laws import (
    check_laws, congruence_suite, equality_plus_context_suite,
)
from qccs.linalg import GATE_I, GATE_X, KET0, KET1, KET_MINUS, KET_PLUS, OBS_M01, dm
from qccs.lts import (
    Configuration, InputPolicy, OpenConfiguration, QIn, QOut, TAU, build_lts,
    transitions,
)
from qccs.syntax import (
    Chan, CInput, COutput, Const, If, Cmp, Measure, Nil, Parallel, QbitNew,
    QInput, QOutput, Restrict, Sum, Unitary, Var,
)

from helpers import (
    corpus_configs, matcher_witness, node_of, oracle_strong_bisimilar, random_synthetic_lts,
)

C = Chan("c", False)
QC = Chan("qc", True)
OPEN = InputPolicy(closed_only=False)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def cfg(term, vars_=(), state=None):
    if not vars_:
        return Configuration(term, make_context((), [[1.0]]))
    return Configuration(term, make_context(vars_, state))


class TestAcceptance:
    def test_criterion_1_teleportation(self):
        """Teleportation reproduces a 4-way quarter split delivering the input
        state, for fixed and random amplitudes, in under a second each."""
        s = 1 / np.sqrt(2)
        pairs = [(1.0, 0.0), (0.0, 1.0), (s, s), (s, -s)]
        rng = np.random.default_rng(2026)
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            pairs.append((complex(v[0]), complex(v[1])))

        verify_teleport(1.0, 0.0)  # warm-up outside the timed region
        worst_time = 0.0
        ok = True
        for alpha, beta in pairs:
            t0 = time.monotonic()
            rep = verify_teleport(alpha, beta, tol=1e-9)
            elapsed = time.monotonic() - t0
            worst_time = max(worst_time, elapsed)
            branch_ok = (
                len(rep.branches) == 4
                and all(abs(b.probability - 0.25) <= 1e-9 for b in rep.branches)
                and all(b.error <= 1e-9 for b in rep.branches)
            )
            ok = ok and branch_ok and elapsed < 1.0
        report(1, "teleportation quarter-split with exact state transfer", ok,
               f"9 amplitude pairs, worst {worst_time:.3f}s")

    def test_criterion_2_choice_example(self):
        """The measurement branch is simulated by the half/half combination of
        the two rotations."""
        t0 = time.monotonic()
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        res = strong_bisim(graph, graph.initial[0], graph.initial[1])
        elapsed = time.monotonic() - t0
        halves = [sorted(round(x, 6) for x in m["weights"])
                  for m in res.witness if "weights" in m]
        ok = res.equivalent and [0.5, 0.5] in halves and elapsed < 1.0
        report(2, "choice-vs-measurement strongly bisimilar with 1/2-1/2 witness",
               ok, f"{elapsed:.3f}s")

    def test_criterion_3_intro_pair(self):
        """Same outputs, different terminal states: distinguished."""
        p = COutput(C, Const(0.0), Nil())
        graph = build_lts([cfg(p, ("q",), dm(KET0)), cfg(p, ("q",), dm(KET1))])
        res = strong_bisim(graph, graph.initial[0], graph.initial[1])
        ok = not res.equivalent and res.counterexample is not None
        report(3, "terminal-context clause distinguishes |0> from |1> carriers", ok)

    def test_criterion_4_restriction_non_congruence(self):
        """X-then-I vs I-then-X: bisimilar unrestricted, distinguished under
        restriction of the classical barrier."""
        p = Unitary(GATE_X, ("q",), COutput(C, Const(0.0), Unitary(GATE_I, ("q",), Nil())))
        q = Unitary(GATE_I, ("q",), COutput(C, Const(0.0), Unitary(GATE_X, ("q",), Nil())))
        ctx = make_context(("q",), dm(KET0))
        g1 = build_lts([Configuration(p, ctx), Configuration(q, ctx)])
        plain = strong_bisim(g1, g1.initial[0], g1.initial[1])
        g2 = build_lts([cfg(Restrict(p, frozenset({C})), ("q",), dm(KET0)),
                        cfg(Restrict(q, frozenset({C})), ("q",), dm(KET0))])
        hidden = strong_bisim(g2, g2.initial[0], g2.initial[1])
        ok = plain.equivalent and not hidden.equivalent and hidden.counterexample is not None
        report(4, "bisimilarity not preserved by restriction", ok)

    def test_criterion_5_weak_transition_figures(self):
        """The three figure targets are weakly reachable; convex combinations
        stay feasible and overweight targets do not."""
        graph = build_lts(corpus_configs("weak_example", "C")[0])
        c = graph.initial[0]
        c5 = node_of(graph, cfg(Nil(), ("q",), dm(KET_PLUS)))
        c6 = node_of(graph, cfg(Nil(), ("q",), dm(KET_MINUS)))
        singles = Partition(list(range(graph.node_count)))
        label = QOut(QC, "q")
        matcher = _Matcher(graph, "weak", lp.TOL)

        def feas(m5, m6):
            vec = [0.0] * graph.node_count
            vec[c5], vec[c6] = m5, m6
            return matcher_witness(matcher, c, label, vec, singles)

        figs = (feas(0.5, 0.5) is not None      # fig 1
                and feas(1.0, 0.0) is not None  # fig 2
                and feas(0.75, 0.25) is not None)  # fig 3
        rng = np.random.default_rng(7)
        convex = all(
            feas(0.5 * p + (1 - p), 0.5 * p) is not None
            for p in rng.uniform(0.001, 0.999, size=20)
        )
        infeasible = feas(1.1, -0.1) is None and feas(1.1, 0.0) is None
        report(5, "weak-transition figures, convexity, and overweight rejection",
               figs and convex and infeasible)

    def test_criterion_6_static_laws(self):
        """Sum/parallel laws over >= 200 random terms, zero failures."""
        rep = check_laws(samples=100, seed=2026, depth=4, qubits=3)
        terms = rep.samples * 3  # e, f, g per sample
        instances = sum(rep.checked.values())
        ok = rep.ok and terms >= 200 and instances == 500
        report(6, "static laws on random terms", ok,
               f"{terms} terms, {instances} instances, {len(rep.failures)} failures")

    def test_criterion_7_congruence(self):
        """Closure of ~ and ~~ under prefix, summation, classical parallel,
        and relabeling; equality survives added summands."""
        strong_weak = congruence_suite(pairs=50, seed=2026)
        eq = equality_plus_context_suite(pairs=25, seed=2026)
        checked = sum(strong_weak.checked.values()) + sum(eq.checked.values())
        ok = strong_weak.ok and eq.ok
        report(7, "congruence properties", ok,
               f"{checked} checks, {len(strong_weak.failures) + len(eq.failures)} failures")

    def test_criterion_8_oracle_agreement(self):
        """Partition refinement matches exhaustive equivalence-relation search
        on >= 100 random systems with denominator-4 probabilities."""
        rng = np.random.default_rng(424242)
        systems, pairs = 0, 0
        mismatches = 0
        for _ in range(100):
            slts = random_synthetic_lts(rng, max_nodes=6)
            systems += 1
            res = strong_bisim(slts, 0, min(1, slts.n - 1))
            block = res.partition.block_of
            for i in range(slts.n):
                for j in range(i + 1, slts.n):
                    pairs += 1
                    if (block[i] == block[j]) != oracle_strong_bisimilar(slts, i, j):
                        mismatches += 1
        ok = systems >= 100 and mismatches == 0
        report(8, "brute-force oracle agreement", ok,
               f"{systems} systems, {pairs} pairs, {mismatches} mismatches")

    def test_criterion_9_rule_unit_suite(self):
        """Each operational rule has a positive and a negative case."""
        checks = []

        def rule(name, positive, negative):
            checks.append((name, positive(), negative()))

        state2 = linalg.tensor(dm(KET0), dm(KET0))

        # C-Inp: enumerated inputs; refused when the policy is closed
        def cinp_pos():
            trs = transitions(cfg(CInput(C, "x", Nil())), OPEN)
            return {a.value for a, _ in trs} == {0.0, 1.0, 2.0, 3.0}

        def cinp_neg():
            try:
                transitions(cfg(CInput(C, "x", Nil())))
                return False
            except OpenConfiguration:
                return True

        rule("C-Inp", cinp_pos, cinp_neg)

        # C-Outp: evaluated value; no transition under restriction
        rule("C-Outp",
             lambda: [a.value for a, _ in transitions(cfg(COutput(C, Const(3.0), Nil())))] == [3.0],
             lambda: transitions(cfg(Restrict(COutput(C, Const(3.0), Nil()), frozenset({C})))) == [])

        # C-Com: synchronisation on the transmitted value; none without a partner
        def ccom_pos():
            term = Restrict(Parallel(COutput(C, Const(7.0), Nil()), CInput(C, "x", Nil())),
                            frozenset({C}))
            return [a for a, _ in transitions(cfg(term))] == [TAU]

        def ccom_neg():
            term = Restrict(Parallel(COutput(C, Const(7.0), Nil()), COutput(C, Const(7.0), Nil())),
                            frozenset({C}))
            return transitions(cfg(term)) == []

        rule("C-Com", ccom_pos, ccom_neg)

        # Q-New: fresh allocation in |0><0|; name collision handled
        def qnew_pos():
            trs = transitions(cfg(QbitNew("q", Nil())))
            (target, _), = trs[0][1]
            return np.allclose(target.context.rho, dm(KET0))

        def qnew_neg():
            trs = transitions(cfg(QbitNew("q", Nil()), ("#0",), dm(KET0)))
            (target, _), = trs[0][1]
            return target.context.vars[0] != "#0" and len(target.context.vars) == 2

        rule("Q-New", qnew_pos, qnew_neg)

        # Q-Inp rule 1: fresh-extension obeys the partial-trace side condition
        def qinp1_pos():
            trs = transitions(cfg(QInput(QC, "q", Nil()), ("s",), dm(KET_PLUS)), OPEN)
            fresh = [d for a, d in trs if isinstance(a, QIn) and a.qvar == "#0"]
            if len(fresh) != 3:
                return False
            for d in fresh:
                (target, _), = d
                if not np.allclose(target.context.reduced(["s"]), dm(KET_PLUS), atol=1e-9):
                    return False
            return True

        def qinp1_neg():
            from qccs.context import TraceMismatch, extend_with_input

            epr = dm(np.array([1, 0, 0, 1]) / np.sqrt(2))
            try:
                extend_with_input(make_context(("s",), dm(KET0)), "r", epr)
                return False
            except TraceMismatch:
                return True

        rule("Q-Inp-1", qinp1_pos, qinp1_neg)

        # Q-Inp rule 2: in-context inputs range over the eligible names only
        def qinp2_pos():
            term = QInput(QC, "q", Nil())
            trs = transitions(cfg(term, ("r", "s"), state2), OPEN)
            named = {a.qvar for a, _ in trs if isinstance(a, QIn) and not a.qvar.startswith("#")}
            return named == {"r", "s"}

        def qinp2_neg():
            term = QInput(QC, "q", Unitary(linalg.GATE_CNOT, ("q", "s"), Nil()))
            trs = transitions(cfg(term, ("r", "s"), state2), OPEN)
            named = {a.qvar for a, _ in trs if isinstance(a, QIn) and not a.qvar.startswith("#")}
            return named == {"r"}  # s is held by the continuation

        rule("Q-Inp-2", qinp2_pos, qinp2_neg)

        # Q-Outp: context unchanged; no re-use after output
        def qoutp_pos():
            trs = transitions(cfg(QOutput(QC, "q", Nil()), ("q",), dm(KET_PLUS)))
            (target, _), = trs[0][1]
            return isinstance(trs[0][0], QOut) and np.allclose(target.context.rho, dm(KET_PLUS))

        def qoutp_neg():
            from qccs.syntax import check_wellformed

            bad = QOutput(QC, "q", Unitary(linalg.GATE_H, ("q",), Nil()))
            return check_wellformed(bad) != []

        rule("Q-Outp", qoutp_pos, qoutp_neg)

        # Unit: conjugation by the lifted unitary; a false guard blocks it
        rule("Unit",
             lambda: np.allclose(
                 transitions(cfg(Unitary(linalg.GATE_H, ("q",), Nil()),
                                 ("q",), dm(KET0)))[0][1][0][0].context.rho,
                 dm(KET_PLUS)),
             lambda: transitions(cfg(If(Cmp("=", Const(0.0), Const(1.0)),
                                        Unitary(linalg.GATE_H, ("q",), Nil())),
                                     ("q",), dm(KET0))) == [])

        # Meas: branch probabilities are the projected traces; certain
        # outcomes yield a single branch
        def meas_pos():
            trs = transitions(cfg(Measure(OBS_M01, ("q",), "x", COutput(C, Var("x"), Nil())),
                                  ("q",), dm(KET_PLUS)))
            dist = trs[0][1]
            probs = {}
            for target, p in dist:
                probs[target.process.expr.value] = p
            want0 = np.real(np.trace(dm(KET0) @ dm(KET_PLUS)))
            return abs(probs[0.0] - want0) < 1e-9 and abs(probs[1.0] - 0.5) < 1e-9

        rule("Meas", meas_pos,
             lambda: len(transitions(cfg(Measure(OBS_M01, ("q",), "x", Nil()),
                                         ("q",), dm(KET0)))[0][1]) == 1)

        # Q-Com: name-matched synchronisation keeps the context; mismatched
        # channels do not synchronise
        def qcom_pos():
            term = Restrict(Parallel(QOutput(QC, "r", Nil()), QInput(QC, "q", Nil())),
                            frozenset({QC}))
            trs = transitions(cfg(term, ("r", "s"), state2))
            if [a for a, _ in trs] != [TAU]:
                return False
            (target, _), = trs[0][1]
            return target.context.vars == ("r", "s")

        def qcom_neg():
            term = Restrict(Parallel(QOutput(QC, "r", Nil()),
                                     QInput(Chan("qd", True), "q", Nil())),
                            frozenset({QC, Chan("qd", True)}))
            return transitions(cfg(term, ("r", "s"), state2)) == []

        rule("Q-Com", qcom_pos, qcom_neg)

        # Inp-Int: interleaved input requires freshness wrt the peer
        def inpint_pos():
            term = Parallel(QInput(QC, "q", Nil()), Unitary(GATE_X, ("r",), Nil()))
            trs = transitions(cfg(term, ("r", "s"), state2), OPEN)
            return any(isinstance(a, QIn) and a.qvar == "s" for a, _ in trs)

        def inpint_neg():
            term = Parallel(QInput(QC, "q", Nil()), Unitary(GATE_X, ("r",), Nil()))
            trs = transitions(cfg(term, ("r", "s"), state2), OPEN)
            return not any(isinstance(a, QIn) and a.qvar == "r" for a, _ in trs)

        rule("Inp-Int", inpint_pos, inpint_neg)

        # Oth-Int: non-input actions interleave, carrying distributions
        def othint_pos():
            term = Parallel(Measure(OBS_M01, ("q",), "x", Nil()), COutput(C, Const(0.0), Nil()))
            trs = transitions(cfg(term, ("q",), dm(KET_PLUS)))
            taus = [d for a, d in trs if a == TAU]
            return len(taus) == 1 and len(taus[0]) == 2

        def othint_neg():
            # a quantum input does not travel through the plain interleaving
            # rule: the composite refuses it when the peer holds the qubit
            term = Parallel(QInput(QC, "q", Nil()), Unitary(GATE_X, ("r",), Nil()))
            trs = transitions(cfg(term, ("r",), dm(KET0)), OPEN)
            return not any(isinstance(a, QIn) and a.qvar == "r" for a, _ in trs)

        rule("Oth-Int", othint_pos, othint_neg)

        # Sum: either branch fires; duplicates collapse
        rule("Sum",
             lambda: len(transitions(cfg(Sum(COutput(C, Const(0.0), Nil()),
                                             COutput(C, Const(1.0), Nil()))))) == 2,
             lambda: len(transitions(cfg(Sum(COutput(C, Const(0.0), Nil()),
                                             COutput(C, Const(0.0), Nil()))))) == 1)

        # Rel: actions are renamed; kinds cannot cross
        def rel_pos():
            from qccs.syntax import Relabel, RelabelFn

            term = Relabel(COutput(C, Const(0.0), Nil()), RelabelFn([(C, Chan("d", False))]))
            return [a.chan.name for a, _ in transitions(cfg(term))] == ["d"]

        def rel_neg():
            from qccs.syntax import BadRelabeling, RelabelFn

            try:
                RelabelFn([(C, QC)])
                return False
            except BadRelabeling:
                return True

        rule("Rel", rel_pos, rel_neg)

        # Res: filters by the action's channel name, internal moves pass
        rule("Res",
             lambda: [a for a, _ in transitions(cfg(
                 Restrict(Unitary(linalg.GATE_H, ("q",), Nil()), frozenset({C, QC})),
                 ("q",), dm(KET0)))] == [TAU],
             lambda: transitions(cfg(Restrict(QOutput(QC, "q", Nil()), frozenset({QC})),
                                     ("q",), dm(KET0))) == [])

        # Cho: only true guards contribute
        rule("Cho",
             lambda: len(transitions(cfg(If(Cmp("=", Const(1.0), Const(1.0)),
                                            COutput(C, Const(0.0), Nil()))))) == 1,
             lambda: transitions(cfg(If(Cmp("=", Const(1.0), Const(2.0)),
                                        COutput(C, Const(0.0), Nil())))) == [])

        failures = [(n, p, g) for n, p, g in checks if not (p and g)]
        ok = not failures and len(checks) == 16
        report(9, "rule-engine unit suite (positive and negative per rule)", ok,
               f"{len(checks)} rules" + (f", failing: {failures}" if failures else ""))
