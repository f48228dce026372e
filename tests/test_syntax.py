"""Term-level tests: free variables, substitution, validity, evaluation."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from qccs.linalg import GATE_CNOT, GATE_H, GATE_X, OBS_M01, computational_observable
from qccs.syntax import (
    Arith, BoolOp, Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Not,
    Parallel, QbitNew, QInput, QOutput, Relabel, RelabelFn, Restrict, Sum,
    SyntaxError_, UnboundVariable, Unitary, Var, BadRelabeling, canonical,
    check_wellformed, eval_bool, eval_expr, fv_classical, is_classical, qv,
    rebuild, subst_classical, subst_quantum, subterms,
)

from helpers import qv_oracle

C = Chan("c", False)
D = Chan("d", False)
QC = Chan("qc", True)
QD = Chan("qd", True)


def u(q, body=None):
    return Unitary(GATE_H, (q,), body or Nil())


class TestQv:
    def test_nil(self):
        assert qv(Nil()) == frozenset()

    def test_output_prefix_adds(self):
        # qc!q.U[r].nil references both the sent qubit and the rotated one
        t = QOutput(QC, "q", u("r"))
        assert qv(t) == {"q", "r"}

    def test_allocation_binds(self):
        t = QbitNew("q", Unitary(GATE_CNOT, ("q", "r"), Nil()))
        assert qv(t) == {"r"}

    def test_quantum_input_binds(self):
        assert qv(QInput(QC, "q", u("q"))) == frozenset()

    def test_measure_collects(self):
        t = Measure(OBS_M01, ("q",), "x", COutput(C, Var("x"), Nil()))
        assert qv(t) == {"q"}

    def test_matches_oracle_on_random_terms(self):
        from qccs.laws import random_process

        rng = np.random.default_rng(42)
        for _ in range(300):
            t = random_process(rng, 4, ("q0", "q1", "q2"), allow_quantum_input=True)
            assert qv(t) == qv_oracle(t)


class TestFvClassical:
    def test_input_binds(self):
        assert fv_classical(CInput(C, "x", COutput(C, Var("x"), Nil()))) == frozenset()

    def test_free_output(self):
        assert fv_classical(COutput(C, Var("x"), Nil())) == {"x"}

    def test_measurement_binds(self):
        t = Measure(OBS_M01, ("q",), "x", COutput(C, Var("x"), Nil()))
        assert fv_classical(t) == frozenset()

    def test_guard_variables_are_free(self):
        t = If(Cmp("=", Var("y"), Const(0.0)), Nil())
        assert fv_classical(t) == {"y"}


class TestWellformed:
    def test_output_then_use(self):
        t = QOutput(QC, "q", u("q"))
        kinds = [v.kind for v in check_wellformed(t)]
        assert kinds == ["output-then-use"]

    def test_parallel_overlap(self):
        t = Parallel(u("q"), Unitary(GATE_X, ("q",), Nil()))
        report = check_wellformed(t)
        assert [v.kind for v in report] == ["parallel-overlap"]
        assert report[0].path == ()

    def test_duplicate_qvar(self):
        t = Unitary(GATE_CNOT, ("q", "q"), Nil())
        assert [v.kind for v in check_wellformed(t)] == ["duplicate-qvar"]

    def test_nested_violation_path(self):
        bad = QOutput(QC, "q", u("q"))
        t = Sum(Nil(), bad)
        report = check_wellformed(t)
        assert report[0].path == (1,)

    def test_teleport_term_is_ok(self):
        from qccs.demo import build_teleport_process

        assert check_wellformed(build_teleport_process()) == []


class TestSubstitution:
    def test_classical_output(self):
        t = COutput(C, Var("x"), Nil())
        assert subst_classical(t, "x", 3.0) == COutput(C, Const(3.0), Nil())

    def test_classical_shadowing(self):
        t = CInput(C, "x", COutput(C, Var("x"), Nil()))
        assert subst_classical(t, "x", 3.0) == t

    def test_guard_substitution_enables_branch(self):
        t = If(Cmp("=", Var("x"), Const(0.0)), Nil())
        t2 = subst_classical(t, "x", 0.0)
        assert eval_bool(t2.cond)

    def test_quantum_free(self):
        assert subst_quantum(u("q"), "q", "r") == u("r")

    def test_quantum_bound_shadowed(self):
        t = QInput(QC, "q", u("q"))
        assert subst_quantum(t, "q", "r") == t

    def test_quantum_capture_avoided(self):
        # (qc?r.U[q, r].nil)[r/q]: the bound r must be renamed first
        t = QInput(QC, "r", Unitary(GATE_CNOT, ("q", "r"), Nil()))
        out = subst_quantum(t, "q", "r")
        assert qv(out) == {"r"}
        assert out.qvar != "r"  # binder renamed
        assert out.body.qvars == ("r", out.qvar)
        # verified against the independent free-variable walker
        assert qv_oracle(out) == {"r"}

    def test_substitution_tracks_qv(self):
        from qccs.laws import random_process

        rng = np.random.default_rng(7)
        for _ in range(200):
            t = random_process(rng, 3, ("q0", "q1"), allow_quantum_input=True)
            free = qv(t)
            if "q0" not in free or "q1" in free:
                continue
            out = subst_quantum(t, "q0", "q1")
            assert qv(out) == (free - {"q0"}) | {"q1"}
            assert check_wellformed(out) == []


class TestEval:
    def test_arithmetic(self):
        assert eval_expr(Arith("+", Const(1.0), Const(2.0))) == 3.0
        assert eval_expr(Arith("-", Arith("*", Const(2.0), Const(3.0)), Const(1.0))) == 5.0

    def test_comparison(self):
        assert eval_bool(Cmp("=", Const(0.0), Const(0.0)))
        assert eval_bool(Cmp("<=", Const(1.0), Const(1.0)))
        assert not eval_bool(Cmp("<", Const(1.0), Const(1.0)))

    def test_connectives(self):
        t = BoolOp("&&", Cmp("<", Const(0.0), Const(1.0)),
                   Not(Cmp("=", Const(1.0), Const(2.0))))
        assert eval_bool(t)

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            eval_expr(Var("x"))


class TestIsClassical:
    def test_pure_classical(self):
        assert is_classical(CInput(C, "x", COutput(C, Var("x"), Nil())))

    def test_quantum_output_is_classical(self):
        # sending a qubit never changes the accompanying state
        assert is_classical(QOutput(QC, "q", Nil()))

    def test_measurement_is_not(self):
        assert not is_classical(Measure(OBS_M01, ("q",), "x", Nil()))

    def test_allocation_is_not(self):
        assert not is_classical(QbitNew("q", Nil()))

    def test_unitary_is_not(self):
        assert not is_classical(u("q"))

    def test_quantum_input_is_not(self):
        assert not is_classical(QInput(QC, "q", Nil()))


class TestCanonical:
    def test_alpha_equivalent_terms_agree(self):
        t1 = QbitNew("a", u("a"))
        t2 = QbitNew("b", u("b"))
        assert canonical(t1) == canonical(t2)

    def test_free_names_are_kept(self):
        t1 = u("a")
        t2 = u("b")
        assert canonical(t1) != canonical(t2)

    def test_classical_binders(self):
        t1 = CInput(C, "x", COutput(C, Var("x"), Nil()))
        t2 = CInput(C, "y", COutput(C, Var("y"), Nil()))
        assert canonical(t1) == canonical(t2)

    def test_measure_binder(self):
        m = computational_observable(2, "MM")
        t1 = Measure(m, ("q", "r"), "x", COutput(C, Var("x"), Nil()))
        t2 = Measure(m, ("q", "r"), "z", COutput(C, Var("z"), Nil()))
        assert canonical(t1) == canonical(t2)

    def test_idempotent(self):
        t = QbitNew("a", Measure(OBS_M01, ("a",), "x", COutput(C, Var("x"), Nil())))
        assert canonical(canonical(t)) == canonical(t)

    def test_binders_numbered_in_preorder_left_to_right(self):
        t = Sum(CInput(C, "x", QbitNew("a", Unitary(GATE_H, ("a",), COutput(C, Var("x"), Nil())))),
                Measure(OBS_M01, ("q",), "y", COutput(C, Var("y"), Nil())))
        assert canonical(t) == Sum(
            CInput(C, "%1", QbitNew("%2", Unitary(GATE_H, ("%2",), COutput(C, Var("%1"), Nil())))),
            Measure(OBS_M01, ("q",), "%3", COutput(C, Var("%3"), Nil())))

    def test_invariant_under_renaming_every_binder(self):
        from qccs.laws import random_process

        rng = np.random.default_rng(11)
        renamed = 0
        for _ in range(300):
            t = random_process(rng, 4, ("q0", "q1", "q2"), ("x0", "y"),
                               allow_quantum_input=True)
            t2 = _rename_binders(t, (f"v{k}" for k in itertools.count()))
            renamed += t2 != t
            assert canonical(t2) == canonical(t)
        assert renamed > 150


def _rename_expr(e, cenv):
    if isinstance(e, Var):
        return Var(cenv.get(e.name, e.name))
    if isinstance(e, Const):
        return e
    if isinstance(e, Not):
        return Not(_rename_expr(e.body, cenv))
    return type(e)(e.op, _rename_expr(e.left, cenv), _rename_expr(e.right, cenv))


def _rename_binders(t, fresh, qenv=None, cenv=None):
    """Rename every binder of t to the next name from `fresh`, by hand."""
    qenv, cenv = qenv or {}, cenv or {}

    def go(b, q=qenv, c=cenv):
        return _rename_binders(b, fresh, q, c)

    def use(qs):
        return tuple(qenv.get(p, p) for p in qs)

    if isinstance(t, (CInput, Measure)):
        x = next(fresh)
        qvars = {"qvars": use(t.qvars)} if isinstance(t, Measure) else {}
        return replace(t, var=x, body=go(t.body, qenv, {**cenv, t.var: x}), **qvars)
    if isinstance(t, (QbitNew, QInput)):
        p = next(fresh)
        return replace(t, qvar=p, body=go(t.body, {**qenv, t.qvar: p}, cenv))
    if isinstance(t, QOutput):
        return replace(t, qvar=use((t.qvar,))[0], body=go(t.body))
    if isinstance(t, Unitary):
        return replace(t, qvars=use(t.qvars), body=go(t.body))
    if isinstance(t, COutput):
        return replace(t, expr=_rename_expr(t.expr, cenv), body=go(t.body))
    if isinstance(t, If):
        return replace(t, cond=_rename_expr(t.cond, cenv), body=go(t.body))
    if isinstance(t, (Sum, Parallel)):
        return replace(t, left=go(t.left), right=go(t.right))
    if isinstance(t, (Relabel, Restrict)):
        return replace(t, body=go(t.body))
    assert isinstance(t, Nil)
    return t


class TestRebuild:
    A, B = QOutput(QC, "q", Nil()), u("r")
    ONE_OF_EACH = [
        (Nil(), ()),
        (CInput(C, "x", A), (A,)),
        (COutput(C, Var("x"), A), (A,)),
        (QbitNew("s", A), (A,)),
        (QInput(QC, "s", A), (A,)),
        (QOutput(QD, "s", A), (A,)),
        (Unitary(GATE_CNOT, ("s", "t"), A), (A,)),
        (Measure(OBS_M01, ("s",), "x", A), (A,)),
        (Sum(A, B), (A, B)),
        (Parallel(A, B), (A, B)),
        (Relabel(A, RelabelFn([(C, D)])), (A,)),
        (Restrict(A, frozenset([C])), (A,)),
        (If(Cmp("=", Var("x"), Const(0.0)), A), (A,)),
    ]

    def test_covers_every_constructor(self):
        assert len({type(t) for t, _ in self.ONE_OF_EACH}) == 13

    @pytest.mark.parametrize("term, children", ONE_OF_EACH,
                             ids=[type(t).__name__ for t, _ in ONE_OF_EACH])
    def test_identity_rebuild_and_children_in_order(self, term, children):
        assert rebuild(term, lambda s: s) == term
        assert subterms(term) == children
        wrapped = rebuild(term, lambda s: Sum(s, Nil()))
        assert type(wrapped) is type(term)
        assert subterms(wrapped) == tuple(Sum(s, Nil()) for s in children)

    def test_non_term_raises(self):
        for fn in (subterms, lambda t: rebuild(t, lambda s: s), qv, canonical):
            with pytest.raises(SyntaxError_, match="bad process term"):
                fn(Var("x"))


class TestRelabelFn:
    def test_kind_preservation_enforced(self):
        with pytest.raises(BadRelabeling):
            RelabelFn([(C, QC)])

    def test_identity_elsewhere(self):
        f = RelabelFn([(C, D)])
        assert f.apply(C) == D
        assert f.apply(D) == D
        assert f.apply(QC) == QC

    def test_canonical_order(self):
        f1 = RelabelFn([(C, D), (QC, QD)])
        f2 = RelabelFn([(QC, QD), (C, D)])
        assert f1 == f2
