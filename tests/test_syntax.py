"""Term-level tests: free variables, substitution, validity, evaluation."""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qccs.linalg import GATE_CNOT, GATE_H, GATE_X, OBS_M01, Gate, computational_observable
from qccs.syntax import (
    Arith, BoolOp, Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Not,
    Parallel, QbitNew, QInput, QOutput, Relabel, RelabelFn, Restrict, Sum,
    SyntaxError_, UnboundVariable, Unitary, Var, BadRelabeling, alpha_key,
    canonical, check_wellformed, eval_bool, eval_expr, fv_classical,
    qv, rebuild, subst_classical, subst_quantum, subterms,
)

from helpers import fv_oracle, hash_oracle, is_classical, qv_oracle, wellformed_oracle

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

    def test_arity(self):
        t = Sum(Unitary(GATE_CNOT, ("q",), Nil()), Measure(OBS_M01, ("q", "r"), "x", Nil()))
        report = check_wellformed(t)
        assert [(v.kind, v.path) for v in report] == [("arity", (0,)), ("arity", (1,))]

    def test_nested_violation_path(self):
        bad = QOutput(QC, "q", u("q"))
        t = Sum(Nil(), bad)
        report = check_wellformed(t)
        assert report[0].path == (1,)

    def test_teleport_term_is_ok(self):
        from qccs.demo import build_teleport_process

        assert check_wellformed(build_teleport_process()) == []

    def test_a_misshapen_operator_has_no_arity(self):
        # its own fault says what is wrong; the term's other findings stay
        t = Unitary(G3, ("q",), QOutput(QC, "q", u("q")))
        assert [(v.kind, v.path) for v in check_wellformed(t)] == [("output-then-use", (0,))]

    def test_matches_the_walk_on_random_and_broken_terms(self):
        # each random term is broken three times in turn, at random nodes, so
        # later breaks sit above, below or beside earlier ones, and a broken
        # subterm's stored findings are read by each new node above it
        from qccs.laws import random_process

        rng = np.random.default_rng(30)
        rules, ill, deep = list(BREAKS), 0, Counter()
        for _ in range(200):
            t = random_process(rng, 4, ("q0", "q1", "q2"), allow_quantum_input=True)
            assert check_wellformed(t) == wellformed_oracle(t) == []
            for _ in range(3):
                paths = list(_paths(t))
                path = paths[rng.integers(len(paths))]
                rule, q = rules[rng.integers(len(rules))], f"q{rng.integers(3)}"
                t = _replace_at(t, path, lambda s: BREAKS[rule](s, q))
                report = check_wellformed(t)
                assert report == wellformed_oracle(t), t
                ill += bool(report)
                deep.update(v.kind for v in report if len(v.path) >= 2)
        assert ill >= 50
        assert all(deep[kind] >= 20 for kind in rules if kind != "misshapen"), deep

    def test_a_teleport_build_checks_each_node_once(self, monkeypatch):
        from qccs import syntax
        from qccs.demo import build_teleport
        from qccs.lts import build_lts

        stored = vars(syntax._Term)["_violations"]
        compute, seen = stored.compute, []  # the nodes themselves: no id is reused
        monkeypatch.setattr(stored, "compute", lambda node: seen.append(node) or compute(node))
        graph = build_lts(build_teleport(0.6, 0.8))
        assert len(seen) > graph.node_count > 10
        assert len({id(node) for node in seen}) == len(seen)


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


def _nodes(t):
    yield t
    for s in subterms(t):
        yield from _nodes(s)


G3 = Gate("G3", np.eye(3, dtype=complex))  # unitary, but not over qubits

# a way to break each validity rule around a subterm s, on the qubit q, and
# a misshapen gate, which breaks none
BREAKS = {
    "output-then-use": lambda s, q: QOutput(QC, q, Unitary(GATE_H, (q,), s)),
    "parallel-overlap": lambda s, q: Parallel(Unitary(GATE_X, (q,), Nil()), u(q, s)),
    "duplicate-qvar": lambda s, q: Unitary(GATE_CNOT, (q, q), s),
    "arity": lambda s, q: Measure(OBS_M01, (q, "r"), "x", Unitary(GATE_CNOT, (q,), s)),
    "misshapen": lambda s, q: Unitary(G3, (q,), s),
}


def _paths(t, path=()):
    """The child-index path of each node of t, in pre-order."""
    yield path
    for k, s in enumerate(subterms(t)):
        yield from _paths(s, path + (k,))


def _replace_at(t, path, f):
    """t with its subterm at `path` replaced by f(subterm)."""
    if not path:
        return f(t)
    ks = iter(range(len(subterms(t))))
    return rebuild(t, lambda s: _replace_at(s, path[1:], f) if next(ks) == path[0] else s)


class TestStoredSummaries:
    """The qv, fv_classical, hash and alpha_key stored on each node, against
    uncached walks, on 4,000 seeded terms: 800 generated with quantum input
    allowed and, for each, four of its substitutions."""

    CVARS = ("x0", "x1", "x2", "y")
    QVARS = ("q0", "q1", "q2", "b0")

    @classmethod
    def terms(cls):
        from qccs.laws import random_process

        rng = np.random.default_rng(6)
        for _ in range(800):
            t = random_process(rng, 4, ("q0", "q1", "q2"), ("x0", "y"),
                               allow_quantum_input=True)
            yield t
            yield subst_classical(t, str(rng.choice(cls.CVARS)), 1.0)
            yield subst_classical(t, "y", 2.0)
            # binders are named b0..b2, so a free q0 under one of them
            # makes the substitution rename it first
            yield subst_quantum(t, str(rng.choice(cls.QVARS)), str(rng.choice(cls.QVARS)))
            yield subst_quantum(t, "q0", "b0")

    def test_summaries_match_uncached_walks(self):
        checked = 0
        for t in self.terms():
            for node in _nodes(t):
                assert qv(node) == qv_oracle(node)
                assert fv_classical(node) == fv_oracle(node)
                assert hash(node) == hash_oracle(node)
                checked += 1
        assert checked > 25_000

    def test_keys_are_equal_exactly_when_canonical_forms_are(self):
        from qccs.laws import random_process

        rng = np.random.default_rng(14)
        names = (f"v{k}" for k in itertools.count())
        pool, renamed = [], 0
        for _ in range(150):
            t = random_process(rng, 3, ("q0", "q1"), ("x0",), allow_quantum_input=True)
            t2 = _rename_binders(t, names)
            renamed += t2 != t
            assert alpha_key(t2) == alpha_key(t) and hash(alpha_key(t2)) == hash(alpha_key(t))
            pool += [t, t2]
        assert renamed > 60
        forms = [canonical(t) for t in pool]
        keys = [alpha_key(t) for t in pool]
        agree = 0
        for i, j in itertools.combinations(range(len(pool)), 2):
            same = forms[i] == forms[j]
            assert (keys[i] == keys[j]) == same, (pool[i], pool[j])
            agree += same and pool[i] != pool[j]
        assert agree > 90

    def test_substituting_a_variable_that_is_not_free_returns_the_term(self):
        shared = 0
        for t in itertools.islice(self.terms(), 0, None, 5):
            for node in _nodes(t):
                for x in self.CVARS:
                    if x not in fv_oracle(node):
                        assert subst_classical(node, x, 1.0) is node
                        shared += 1
                for q in self.QVARS:
                    if q not in qv_oracle(node):
                        assert subst_quantum(node, q, "b1") is node
                        shared += 1
        assert shared > 35_000

    def test_a_node_keeps_its_substitutions(self):
        t = CInput(C, "y", COutput(C, Arith("+", Var("x"), Var("y")), Nil()))
        zero = subst_classical(t, "x", 0.0)
        assert subst_classical(t, "x", 0.0) is zero
        # -0.0 == 0.0, but the substituted constant keeps its sign
        negative = subst_classical(t, "x", -0.0)
        assert negative == zero and negative is not zero
        assert str(negative.body.expr.left.value) == "-0.0"
        v = u("q")
        assert subst_quantum(v, "q", "r") is subst_quantum(v, "q", "r")

    def test_pickle_leaves_the_summaries_behind(self):
        # a string's hash, and so a term's, differs between interpreters
        import pickle

        from qccs.demo import build_teleport_process

        t = build_teleport_process()
        alpha_key(t), qv(t), fv_classical(t)
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t
        assert all(not k.startswith("_") for n in _nodes(copy) for k in vars(n))
        assert hash(copy) == hash_oracle(t)


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
