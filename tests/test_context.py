"""Quantum-context tests: allocation, input extension, evolution, equality."""

import numpy as np
import pytest

from qccs import context, linalg
from qccs.context import (
    ContextError, DuplicateVar, InvalidObservable, NotDensity, NotUnitary, TraceMismatch,
    UnknownVar, apply_unitary, context_equal, extend_with_input, make_context, measure,
    new_qubit,
)
from qccs.demo import build_teleport
from qccs.linalg import (
    ATOL, CNOT_MAT, GATE_CNOT, GATE_H, GATE_I, I2, KET0, KET1, KET_MINUS, KET_PLUS,
    OBS_M01, Gate, Observable, computational_observable, dm, tensor,
)
from qccs.lts import build_lts

from helpers import (
    OBS_MPM, apply_one_oracle, apply_operator, dense_context_equal, lift_oracle, partial_trace,
    ptrace_oracle,
)

EPR = dm(np.array([1, 0, 0, 1]) / np.sqrt(2))


def random_density(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return dm(v)


class TestAllocation:
    def test_from_empty(self):
        ctx = new_qubit(make_context((), [[1.0]]), "q")
        assert ctx.vars == ("q",)
        np.testing.assert_allclose(ctx.rho, dm(KET0), atol=1e-12)

    def test_prepends(self):
        ctx = make_context(("q",), dm(KET1))
        out = new_qubit(ctx, "r")
        assert out.vars == ("r", "q")
        np.testing.assert_allclose(out.rho, tensor(dm(KET0), dm(KET1)), atol=1e-12)

    def test_two_allocations(self):
        ctx = new_qubit(new_qubit(make_context((), [[1.0]]), "r1"), "r2")
        assert ctx.vars == ("r2", "r1")
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        np.testing.assert_allclose(ctx.rho, want, atol=1e-12)

    def test_duplicate_rejected(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(DuplicateVar):
            new_qubit(ctx, "q")


class TestMakeContext:
    def test_state_of_wrong_dimension(self):
        with pytest.raises(ContextError, match=r"^state of shape \(4, 4\) does not fit 1 qubits$"):
            make_context(("q",), EPR)

    def test_density_checked_before_dimension(self):
        with pytest.raises(NotDensity, match="^state is not a density matrix"):
            make_context(("q",), 2 * EPR)


class TestInputExtension:
    def test_product_extension(self):
        ctx = extend_with_input(make_context((), [[1.0]]), "r", dm(KET_PLUS))
        assert ctx.vars == ("r",)
        np.testing.assert_allclose(ctx.rho, dm(KET_PLUS), atol=1e-12)

    def test_entangled_extension_accepted(self):
        # the EPR state restricts to the maximally mixed state (oracle-checked)
        np.testing.assert_allclose(ptrace_oracle(EPR, [1]), I2 / 2, atol=1e-12)
        ctx = make_context(("q",), I2 / 2)
        out = extend_with_input(ctx, "r", EPR)
        assert out.vars == ("r", "q")

    def test_trace_mismatch_rejected(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(TraceMismatch):
            extend_with_input(ctx, "r", EPR)  # Tr_r EPR = I/2 != |0><0|

    def test_non_density_rejected(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(NotDensity):
            extend_with_input(ctx, "r", np.eye(4, dtype=complex))

    def test_round_trip_recovers_original(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 1)
        out = extend_with_input(make_context(("q",), rho), "r",
                                tensor(random_density(rng, 1), rho))
        np.testing.assert_allclose(out.reduced(["q"]), rho, atol=1e-9)


class TestUnitary:
    def test_hadamard_prepares_plus(self):
        ctx = apply_unitary(make_context(("q",), dm(KET0)), GATE_H, ["q"])
        np.testing.assert_allclose(ctx.rho, dm(KET_PLUS), atol=1e-12)

    def test_epr_preparation(self):
        # H on the first qubit then CNOT yields the shared pair
        ctx = make_context(("q1", "q2"), dm(np.array([1, 0, 0, 0])))
        ctx = apply_unitary(ctx, GATE_H, ["q1"])
        ctx = apply_unitary(ctx, GATE_CNOT, ["q1", "q2"])
        np.testing.assert_allclose(ctx.rho, EPR, atol=1e-12)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(1)
        ctx = make_context(("q",), random_density(rng, 1))
        out = apply_unitary(ctx, GATE_I, ["q"])
        np.testing.assert_allclose(out.rho, ctx.rho, atol=1e-12)

    def test_trace_preserved_and_invertible(self):
        rng = np.random.default_rng(2)
        ctx = make_context(("a", "b"), random_density(rng, 2))
        out = apply_unitary(ctx, GATE_CNOT, ["b", "a"])
        assert abs(np.trace(out.rho) - 1.0) < 1e-12
        back = apply_unitary(out, Gate("CNOT+", CNOT_MAT.conj().T), ["b", "a"])
        np.testing.assert_allclose(back.rho, ctx.rho, atol=1e-9)

    def test_rejects_non_unitary(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(NotUnitary):
            apply_unitary(ctx, Gate("P0", np.array([[1, 0], [0, 0]], dtype=complex)), ["q"])

    def test_unknown_var(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(UnknownVar):
            apply_unitary(ctx, GATE_H, ["r"])


class TestMeasure:
    def test_plus_state_splits_evenly(self):
        ctx = make_context(("q",), dm(KET_PLUS))
        out = measure(ctx, OBS_M01, ["q"])
        assert len(out) == 2
        (ev0, p0, c0), (ev1, p1, c1) = out
        assert (ev0, ev1) == (0.0, 1.0)
        assert abs(p0 - 0.5) < 1e-9 and abs(p1 - 0.5) < 1e-9
        np.testing.assert_allclose(c0.rho, dm(KET0), atol=1e-9)
        np.testing.assert_allclose(c1.rho, dm(KET1), atol=1e-9)

    def test_certain_outcome_drops_other_branch(self):
        ctx = make_context(("q",), dm(KET0))
        out = measure(ctx, OBS_M01, ["q"])
        assert len(out) == 1 and out[0][0] == 0.0 and abs(out[0][1] - 1.0) < 1e-12

    def test_trivial_observable(self):
        triv = Observable("triv", ((0.0, np.eye(2, dtype=complex)),))
        ctx = make_context(("q",), dm(KET_PLUS))
        out = measure(ctx, triv, ["q"])
        assert len(out) == 1 and abs(out[0][1] - 1.0) < 1e-12
        np.testing.assert_allclose(out[0][2].rho, ctx.rho, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ctx = make_context(("a", "b"), random_density(rng, 2))
            out = measure(ctx, OBS_M01, [rng.choice(["a", "b"])])
            assert abs(sum(p for _, p, _ in out) - 1.0) < 1e-9
            for _, _, post in out:
                assert abs(np.trace(post.rho) - 1.0) < 1e-9

    def test_probabilities_are_projected_traces(self):
        # p_i = Tr(P_i rho) with the projector lifted onto the measured qubit
        rng = np.random.default_rng(4)
        ctx = make_context(("a", "b"), random_density(rng, 2))
        out = measure(ctx, OBS_M01, ["b"])
        for ev, p, _ in out:
            base = [m for e, m in OBS_M01.outcomes if e == ev][0]
            proj = lift_oracle(base, [1], 2)
            assert abs(p - np.real(np.trace(proj @ ctx.rho))) < 1e-9

    def test_observable_validated_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "validate_observable")
        obs = Observable("M01", OBS_M01.outcomes)
        ctx = make_context(("a", "b"), tensor(dm(KET_PLUS), dm(KET_PLUS)))
        for v in ("a", "b", "a"):
            assert len(measure(ctx, obs, [v])) == 2
        assert calls == [id(obs)]

    def test_bad_observable_raises_on_every_call(self, monkeypatch):
        calls = count_calls(monkeypatch, "validate_observable")
        bad = Observable("bad", ((0.0, dm(KET0)), (1.0, dm(KET_PLUS))))
        ctx = make_context(("q",), dm(KET0))
        for _ in range(3):
            with pytest.raises(InvalidObservable, match="bad: .*orthogonal"):
                measure(ctx, bad, ["q"])
        assert calls == [id(bad)]


def count_calls(monkeypatch, name: str) -> list:
    """Wrap linalg.<name> so that each call logs the id of its first argument."""
    calls, fn = [], getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda op, *rest: calls.append(id(op)) or fn(op, *rest))
    return calls


class TestOperatorChecks:
    """Whether a gate or measurement is valid is worked out once, on the
    operator object, however often a term applies it."""

    def test_each_operator_is_checked_at_most_once_per_build(self, monkeypatch):
        unitary = count_calls(monkeypatch, "is_unitary")
        observable = count_calls(monkeypatch, "validate_observable")
        graph = build_lts(build_teleport(0.6, 0.8))
        assert graph.node_count > 10
        assert len(unitary) == len(set(unitary))
        assert len(observable) == 1  # the protocol's one, fresh measurement

    def test_a_bad_operator_raises_on_every_call(self, monkeypatch):
        calls = count_calls(monkeypatch, "is_unitary")
        gate = Gate("P0", np.array([[1, 0], [0, 0]], dtype=complex))
        bad = Observable("bad", ((0.0, dm(KET0)), (1.0, dm(KET0))))
        ctx = make_context(("q",), dm(KET0))
        for _ in range(3):
            with pytest.raises(NotUnitary, match="^operator is not unitary$"):
                apply_unitary(ctx, gate, ["q"])
            with pytest.raises(InvalidObservable, match="^observable bad: .*completeness$"):
                measure(ctx, bad, ["q"])
        assert calls == [id(gate.matrix)]

    def test_a_misshapen_gate_raises_its_fault(self):
        # a 3x3 unitary acts on no number of qubits, so it has no arity: a
        # term that applies it is well formed, and applying it raises
        from qccs.lts import Configuration
        from qccs.syntax import Nil, Unitary

        ctx = make_context(("q",), dm(KET0))
        for matrix in (np.eye(3), np.diag([1.0, 1.0, 0.0])):
            gate = Gate("G", matrix.astype(complex))
            with pytest.raises(NotUnitary, match="^operator is not unitary$"):
                apply_unitary(ctx, gate, ["q"])
            with pytest.raises(NotUnitary, match="^operator is not unitary$"):
                build_lts(Configuration(Unitary(gate, ("q",), Nil()), ctx))

    def test_a_misshapen_observable_raises_its_fault(self):
        # a 3x3 measurement has no arity either: measure reports its own
        # fault, not the dimension of the qubits it is applied to
        from qccs.lts import Configuration
        from qccs.syntax import Measure, Nil

        ctx = make_context(("q",), dm(KET0))
        obs = Observable("M", ((0.0, np.diag([1.0, 1.0, 0.0]).astype(complex)),
                               (1.0, np.diag([0.0, 0.0, 1.0]).astype(complex))))
        want = "^observable M: projectors must be square over qubits$"
        with pytest.raises(InvalidObservable, match=want):
            measure(ctx, obs, ["q"])
        with pytest.raises(InvalidObservable, match=want):
            build_lts(Configuration(Measure(obs, ("q",), "x", Nil()), ctx))

    def test_a_faulty_observable_raises_its_fault_at_any_count(self):
        bad = Observable("bad", ((0.0, dm(KET0)), (1.0, dm(KET0))))
        ctx = make_context(("a", "b"), tensor(dm(KET0), dm(KET0)))
        with pytest.raises(InvalidObservable, match="^observable bad: orthogonal, completeness$"):
            measure(ctx, bad, ["a", "b"])

    def test_a_count_other_than_the_dimension_is_validated_at_that_count(self):
        ctx = make_context(("a", "b"), tensor(dm(KET0), dm(KET0)))
        with pytest.raises(InvalidObservable, match="^observable M01: dimension$"):
            measure(ctx, OBS_M01, ["a", "b"])


class TestCell:
    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        names = ("c", "a", "b")
        for _ in range(10):
            rho = random_density(rng, 3)
            base = make_context(names, rho)
            for perm in ([0, 2, 1], [1, 0, 2], [2, 1, 0], [1, 2, 0]):
                moved = make_context(tuple(names[k] for k in perm), ptrace_oracle(rho, perm))
                # the same diagonal in sorted-name order, entry for entry
                assert moved.cell == base.cell

    def test_empty_and_basis_states(self):
        assert make_context((), np.eye(1, dtype=complex)).cell == int(1 / (2 * 1e-9))
        # |k><k| in sorted order has f = k + 1: far apart cells
        cells = {make_context(("b", "a"), dm(np.eye(4)[k])).cell for k in range(4)}
        assert len(cells) == 4


class TestContextEqual:
    def test_identical(self):
        ctx = make_context(("q",), dm(KET0))
        assert context_equal(ctx, ctx)

    def test_reordered_product(self):
        rng = np.random.default_rng(5)
        a, b = random_density(rng, 1), random_density(rng, 1)
        c1 = make_context(("q", "r"), tensor(a, b))
        c2 = make_context(("r", "q"), tensor(b, a))
        # oracle: reordering by index-level summation
        np.testing.assert_allclose(ptrace_oracle(c1.rho, [1, 0]), c2.rho, atol=1e-12)
        assert context_equal(c1, c2)

    def test_different_states(self):
        assert not context_equal(make_context(("q",), dm(KET0)),
                                 make_context(("q",), dm(KET1)))

    def test_different_variable_sets(self):
        assert not context_equal(make_context(("q",), dm(KET0)),
                                 make_context(("r",), dm(KET0)))

    def test_equivalence_on_random_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = random_density(rng, 2)
            orders = [("a", "b"), ("b", "a")]
            ctxs = []
            for o in orders:
                perm = [("a", "b").index(v) for v in o]
                ctxs.append(make_context(o, ptrace_oracle(rho, perm)))
            c1, c2 = ctxs
            assert context_equal(c1, c1)                      # reflexive
            assert context_equal(c1, c2) == context_equal(c2, c1)  # symmetric
            assert context_equal(c1, c2) and context_equal(c2, c1)

    def test_entangled_reorder(self):
        c1 = make_context(("q", "r"), EPR)
        c2 = make_context(("r", "q"), EPR)  # EPR is swap-symmetric
        assert context_equal(c1, c2)


def random_mixed(rng, n, rank):
    """A random n-qubit state mixing `rank` random pure states."""
    weights = rng.dirichlet(np.ones(rank))
    return sum(w * random_density(rng, n) for w in weights)


def random_unitary(rng, k):
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def dense_cell(names, rho) -> int:
    """QContext.cell computed from rho reordered to sorted-name order."""
    d = np.real(np.diag(partial_trace(rho, sorted(range(len(names)), key=names.__getitem__))))
    f = float(np.arange(1, d.size + 1) @ d)
    return int(np.floor(f / (ATOL * d.size * (d.size + 1))))


def random_cases(seed, count=40):
    """(names, rho, ctx, rng): seeded states of rank 1-3 on 1-4 qubits, over
    permuted name orders."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        names = tuple(str(v) for v in rng.permutation(["a", "b", "c", "d"][:n]))
        rho = random_mixed(rng, n, int(rng.integers(1, 4)))
        yield names, rho, make_context(names, rho), rng


def pick(rng, names, most):
    """A random ordered selection of 1 to `most` of the names."""
    k = int(rng.integers(1, min(len(names), most) + 1))
    return [str(v) for v in rng.choice(names, size=k, replace=False)]


class TestFactoredAgainstDense:
    """Each operation on the factor K against the same operation on rho = K K^dag."""

    def test_unitary(self):
        for names, rho, ctx, rng in random_cases(30):
            rvars = pick(rng, names, 2)
            u = random_unitary(rng, len(rvars))
            want = apply_operator(u, rho, [names.index(v) for v in rvars])
            np.testing.assert_allclose(apply_unitary(ctx, Gate("U", u), rvars).rho, want,
                                       atol=1e-12)

    def test_measure(self):
        for names, rho, ctx, rng in random_cases(31):
            rvars = pick(rng, names, 2)
            obs = (OBS_MPM if len(rvars) == 1 and rng.integers(2)
                   else computational_observable(len(rvars)))
            positions = [names.index(v) for v in rvars]
            got = measure(ctx, obs, rvars)
            want = []
            for ev, proj in obs.outcomes:
                projected = apply_operator(proj, rho, positions)
                p = float(np.real(np.trace(projected)))
                if p > context.PROB_CUTOFF:
                    want.append((ev, p, projected / p))
            assert [ev for ev, _, _ in got] == [ev for ev, _, _ in want]
            for (_, p, post), (_, q, dense) in zip(got, want):
                assert abs(p - q) < 1e-12 and post.vars == names
                np.testing.assert_allclose(post.rho, dense, atol=1e-12)

    def test_new_qubit(self):
        for names, rho, ctx, _ in random_cases(32):
            out = new_qubit(ctx, "r")
            assert out.vars == ("r",) + names
            np.testing.assert_allclose(out.rho, tensor(dm(KET0), rho), atol=1e-12)

    def test_input_extension(self):
        for names, rho, ctx, rng in random_cases(33):
            single = random_mixed(rng, 1, int(rng.integers(1, 3)))
            sigma = tensor(single, rho)
            product = extend_with_input(ctx, "r", single)
            joint = extend_with_input(ctx, "r", sigma)
            for out in (product, joint):
                assert out.vars == ("r",) + names
                assert out.factor.shape[1] <= out.factor.shape[0]
                np.testing.assert_allclose(out.rho, sigma, atol=1e-12)

    def test_reduced(self):
        for names, rho, ctx, rng in random_cases(34):
            keep = pick(rng, names, 4)
            want = partial_trace(rho, [names.index(v) for v in keep])
            np.testing.assert_allclose(ctx.reduced(keep), want, atol=1e-12)

    def test_diag_and_cell(self):
        for names, rho, ctx, _ in random_cases(35):
            # the dense diagonal with the qubits in sorted-name order
            order = [names.index(v) for v in sorted(names)]
            want = np.real(np.diag(partial_trace(rho, order)))
            np.testing.assert_allclose(ctx.diag, want, atol=1e-12)
            assert ctx.cell == dense_cell(names, rho)

    def test_rank_cutoff(self):
        assert make_context(("q",), dm(KET0)).factor.shape == (2, 1)
        # eigenvalues 0.6, 0.4, 0 and -1e-12 in a random basis: the last two
        # are dropped, so rho moves by about 1e-12
        u = random_unitary(np.random.default_rng(36), 2)
        rho = u @ np.diag([0.6 + 1e-12, 0.4, 0.0, -1e-12]) @ u.conj().T
        ctx = make_context(("a", "b"), rho)
        assert ctx.factor.shape == (4, 2)
        np.testing.assert_allclose(ctx.rho, rho, atol=1e-11)
        with pytest.raises(NotDensity):
            make_context(("a", "b"), u @ np.diag([0.6 + 2e-9, 0.4, 0.0, -2e-9]) @ u.conj().T)

    def _count_full_comparisons(self, monkeypatch) -> list:
        calls = []
        compare = linalg.approx_equal
        monkeypatch.setattr(linalg, "approx_equal", lambda a, b: calls.append(1) or compare(a, b))
        return calls

    def test_context_equal_on_perturbed_copies(self, monkeypatch):
        calls = self._count_full_comparisons(monkeypatch)
        rng = np.random.default_rng(37)
        seen = {}
        for _ in range(40):
            n = int(rng.integers(1, 5))
            names = ("a", "b", "c", "d")[:n]
            d = 2**n
            # every eigenvalue is at least 1e-6 / d, so shifts of a few ATOL
            # leave a density matrix
            rho = (1 - 1e-6) * random_mixed(rng, n, int(rng.integers(1, 4))) + 1e-6 * np.eye(d) / d
            base = make_context(names, rho)
            for scale, where in ((0.4, "all"), (3.0, "diagonal"), (3.0, "off-diagonal")):
                delta = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
                delta = delta + delta.conj().T
                np.fill_diagonal(delta, np.real(np.diag(delta)) - np.trace(delta).real / d)
                if where == "diagonal":
                    delta = np.diag(np.diag(delta))
                if where == "off-diagonal":
                    np.fill_diagonal(delta, 0.0)
                delta *= scale * ATOL / np.abs(delta).max()
                perm = [int(k) for k in rng.permutation(n)]
                moved = make_context(tuple(names[k] for k in perm),
                                     partial_trace(rho + delta, perm))
                dense = linalg.approx_equal(rho + delta, rho)
                calls.clear()
                got = context_equal(moved, base)
                assert got == dense == (scale < 1)
                # only a diagonal beyond ATOL settles a pair before rho is built
                assert bool(calls) == (where != "diagonal")
                seen[where] = seen.get(where, 0) + 1
        assert min(seen.values()) >= 10

    def test_equal_diagonals_reach_full_comparison(self, monkeypatch):
        calls = self._count_full_comparisons(monkeypatch)
        plus, minus = make_context(("q",), dm(KET_PLUS)), make_context(("q",), dm(KET_MINUS))
        np.testing.assert_allclose(plus.diag, minus.diag, atol=1e-15)
        calls.clear()
        assert not context_equal(plus, minus)
        assert len(calls) == 1
        assert not linalg.approx_equal(plus.rho, minus.rho)

    def test_context_equal_fast_path_against_the_dense_reference(self, monkeypatch):
        # same names in the same order and factors equal entry by entry
        # match without building rho; every verdict is the dense reference's
        calls = self._count_full_comparisons(monkeypatch)
        rng = np.random.default_rng(42)
        seen = {}

        def check(kind, c1, c2, want, full=None):
            assert dense_context_equal(c1, c2) == want, kind
            calls.clear()
            assert context_equal(c1, c2) == want, kind
            if full is not None:
                assert bool(calls) == full, kind
            seen[kind] = seen.get(kind, 0) + 1

        for _ in range(40):
            n = int(rng.integers(1, 5))
            names = ("a", "b", "c", "d")[:n]
            base = make_context(names, random_mixed(rng, n, int(rng.integers(1, 4))))
            k, r = base.factor, base.factor.shape[1]
            check("identical", base, context.QContext(names, k.copy()), True, full=False)
            # the same rho from another factor: K U for a unitary U
            u, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
            other = context.QContext(names, k @ u)
            check("other factor", base, other, True, full=True)
            perm = [int(v) for v in rng.permutation(n)]

            def permuted(factor):
                return context.QContext(tuple(names[v] for v in perm), factor.reshape(
                    [2] * n + [r]).transpose(perm + [n]).reshape(factor.shape))

            check("permuted", base, permuted(k), True)
            # K moved so that rho moves by `scale` ATOL in its largest entry
            delta = rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape)
            step = np.abs((k + delta * 1e-6) @ (k + delta * 1e-6).conj().T - base.rho).max()
            for scale in (0.3, 3.0):
                near = k + delta * (1e-6 * scale * ATOL / step)
                check(f"perturbed x{scale}", context.QContext(names, near), base, scale < 1)
                check(f"perturbed x{scale}, permuted", permuted(near), base, scale < 1)
        assert min(seen.values()) == 40
        # a NaN never matches, not even itself by value
        broken = context.QContext(("q",), np.array([[np.nan], [0.0]], dtype=complex))
        check("nan", broken, context.QContext(("q",), broken.factor.copy()), False)


class TestMeasureKernel:
    """measure permutes K's rows once for all its projectors: against P rho P
    / p built densely, and bit for bit against one permutation per projector."""

    OBSERVABLES = (OBS_M01, OBS_MPM, computational_observable(2))

    def test_matches_dense_projection_and_one_permutation_per_projector(self):
        rng = np.random.default_rng(41)
        dropped = 0
        for case in range(60):
            n = int(rng.integers(1, 6))
            names = tuple(str(v) for v in rng.permutation(list("abcde")[:n]))
            obs = self.OBSERVABLES[int(rng.integers(3 if n > 1 else 2))]
            rho = random_mixed(rng, n, int(rng.integers(1, 4)))
            if case % 4 == 0:  # a basis state: some outcomes have probability 0
                rho = dm(np.eye(2**n)[int(rng.integers(2**n))])
            ctx = make_context(names, rho)
            rvars = [str(v) for v in rng.choice(names, size=obs.dim.bit_length() - 1,
                                                replace=False)]
            positions = [names.index(v) for v in rvars]
            got = measure(ctx, obs, rvars)
            want, old = [], []
            for ev, proj in obs.outcomes:
                lifted = lift_oracle(proj, positions, n)
                projected = lifted @ rho @ lifted
                p = float(np.real(np.trace(projected)))
                k = apply_one_oracle(proj, ctx.factor, positions)
                q = float(np.vdot(k, k).real)
                if q > context.PROB_CUTOFF:
                    want.append((ev, p, projected / p))
                    old.append((q, k / np.sqrt(q)))
                else:
                    dropped += 1
            assert [ev for ev, _, _ in got] == [ev for ev, _, _ in want]
            for (_, p, post), (_, q, dense), (p_old, k_old) in zip(got, want, old):
                assert abs(p - q) < 1e-12 and post.vars == names
                np.testing.assert_allclose(post.rho, dense, atol=1e-12)
                assert p == p_old and np.array_equal(post.factor, k_old)
        assert dropped >= 5
