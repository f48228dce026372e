"""Quantum-context tests: allocation, input extension, evolution, equality."""

import numpy as np
import pytest

from qccs import context, linalg
from qccs.context import (
    DuplicateVar, InvalidObservable, NotDensity, NotUnitary, QContext, TraceMismatch,
    UnknownVar, apply_unitary, context_equal, extend_with_input, make_context, measure,
    new_qubit,
)
from qccs.linalg import (
    CNOT_MAT, H_MAT, I2, KET0, KET1, KET_PLUS, OBS_M01, Observable, dm, tensor,
)

from helpers import lift_oracle, ptrace_oracle

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
        ctx = apply_unitary(make_context(("q",), dm(KET0)), H_MAT, ["q"])
        np.testing.assert_allclose(ctx.rho, dm(KET_PLUS), atol=1e-12)

    def test_epr_preparation(self):
        # H on the first qubit then CNOT yields the shared pair
        ctx = make_context(("q1", "q2"), dm(np.array([1, 0, 0, 0])))
        ctx = apply_unitary(ctx, H_MAT, ["q1"])
        ctx = apply_unitary(ctx, CNOT_MAT, ["q1", "q2"])
        np.testing.assert_allclose(ctx.rho, EPR, atol=1e-12)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(1)
        ctx = make_context(("q",), random_density(rng, 1))
        out = apply_unitary(ctx, I2, ["q"])
        np.testing.assert_allclose(out.rho, ctx.rho, atol=1e-12)

    def test_trace_preserved_and_invertible(self):
        rng = np.random.default_rng(2)
        ctx = make_context(("a", "b"), random_density(rng, 2))
        out = apply_unitary(ctx, CNOT_MAT, ["b", "a"])
        assert abs(np.trace(out.rho) - 1.0) < 1e-12
        back = apply_unitary(out, CNOT_MAT.conj().T, ["b", "a"])
        np.testing.assert_allclose(back.rho, ctx.rho, atol=1e-9)

    def test_rejects_non_unitary(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(NotUnitary):
            apply_unitary(ctx, np.array([[1, 0], [0, 0]], dtype=complex), ["q"])

    def test_unknown_var(self):
        ctx = make_context(("q",), dm(KET0))
        with pytest.raises(UnknownVar):
            apply_unitary(ctx, H_MAT, ["r"])


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

    def _count_validations(self, monkeypatch) -> list:
        calls = []
        validate = linalg.validate_observable
        monkeypatch.setattr(context, "_observable_problems", {})
        monkeypatch.setattr(linalg, "validate_observable",
                            lambda obs, dim: calls.append(obs.name) or validate(obs, dim))
        return calls

    def test_observable_validated_once(self, monkeypatch):
        calls = self._count_validations(monkeypatch)
        ctx = make_context(("a", "b"), tensor(dm(KET_PLUS), dm(KET_PLUS)))
        for v in ("a", "b", "a"):
            assert len(measure(ctx, OBS_M01, [v])) == 2
        # a copy under another name has the same content digest
        assert len(measure(ctx, Observable("copy", OBS_M01.outcomes), ["b"])) == 2
        assert calls == ["M01"]

    def test_bad_observable_raises_on_every_call(self, monkeypatch):
        calls = self._count_validations(monkeypatch)
        bad = Observable("bad", ((0.0, dm(KET0)), (1.0, dm(KET_PLUS))))
        ctx = make_context(("q",), dm(KET0))
        for _ in range(3):
            with pytest.raises(InvalidObservable, match="bad: .*orthogonal"):
                measure(ctx, bad, ["q"])
        assert calls == ["bad"]


class TestCell:
    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        names = ("c", "a", "b")
        for _ in range(10):
            rho = random_density(rng, 3)
            base = QContext(names, rho)
            for perm in ([0, 2, 1], [1, 0, 2], [2, 1, 0], [1, 2, 0]):
                moved = QContext(tuple(names[k] for k in perm), ptrace_oracle(rho, perm))
                # the same diagonal in sorted-name order, entry for entry
                assert moved.cell == base.cell

    def test_empty_and_basis_states(self):
        assert QContext((), np.eye(1, dtype=complex)).cell == int(1 / (2 * 1e-9))
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
                ctxs.append(QContext(o, ptrace_oracle(rho, perm)))
            c1, c2 = ctxs
            assert context_equal(c1, c1)                      # reflexive
            assert context_equal(c1, c2) == context_equal(c2, c1)  # symmetric
            assert context_equal(c1, c2) and context_equal(c2, c1)

    def test_entangled_reorder(self):
        c1 = make_context(("q", "r"), EPR)
        c2 = make_context(("r", "q"), EPR)  # EPR is swap-symmetric
        assert context_equal(c1, c2)
