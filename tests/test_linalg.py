"""Matrix kernel tests: tensors, partial trace, qubit reordering, operator
application, each through the factor kernel (rho = K K^dag)."""

import numpy as np
import pytest

from qccs import linalg
from qccs.linalg import (
    CNOT_MAT, H_MAT, I2, KET0, KET1, X_MAT, Y_MAT, Z_MAT,
    BadIndex, DimensionMismatch, DuplicatePosition, Observable, dagger, dm,
    factor_density, tensor, trace, validate_observable,
)

from helpers import OBS_MPM, lift_oracle, ptrace_oracle


def random_density(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return dm(v)


def partial_trace(rho, keep):
    """Tr_rest(rho), by reducing rho's factor."""
    return linalg.reduce_factor(factor_density(rho), keep)


def apply_operator(op, rho, positions):
    """op rho op^dag, by applying op to the rows of rho's factor."""
    k = linalg.apply_to_factor(op, factor_density(rho), positions)
    return k @ dagger(k)


def random_unitary(rng, n):
    z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestBasics:
    def test_tensor_identity(self):
        np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=1e-12)

    def test_trace_projector(self):
        assert abs(trace(dm(KET0)) - 1.0) < 1e-12

    def test_hadamard_involution(self):
        np.testing.assert_allclose(H_MAT @ H_MAT, I2, atol=1e-12)

    def test_pauli_matrices_square_to_identity(self):
        for m in (X_MAT, Y_MAT, Z_MAT):
            np.testing.assert_allclose(m @ m, I2, atol=1e-12)

    def test_dagger(self):
        np.testing.assert_allclose(dagger(Y_MAT), Y_MAT, atol=1e-12)  # Hermitian

    def test_cnot_truth_table(self):
        basis = [tensor(a.reshape(2, 1), b.reshape(2, 1)).reshape(-1)
                 for a in (KET0, KET1) for b in (KET0, KET1)]
        # |10> -> |11>, |11> -> |10>
        np.testing.assert_allclose(CNOT_MAT @ basis[2], basis[3], atol=1e-12)
        np.testing.assert_allclose(CNOT_MAT @ basis[3], basis[2], atol=1e-12)
        np.testing.assert_allclose(CNOT_MAT @ basis[0], basis[0], atol=1e-12)


class TestPartialTrace:
    def test_keep_tail_of_product(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 1)
        joint = tensor(dm(KET0), rho)
        np.testing.assert_allclose(partial_trace(joint, [1]), rho, atol=1e-12)

    def test_epr_reduces_to_maximally_mixed(self):
        # expected value fixed by the hand-computed oracle
        epr = dm((tensor(KET0.reshape(2, 1), KET0.reshape(2, 1)).reshape(-1)
                  + tensor(KET1.reshape(2, 1), KET1.reshape(2, 1)).reshape(-1))
                 / np.sqrt(2))
        expected = ptrace_oracle(epr, [0])
        np.testing.assert_allclose(expected, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(epr, [0]), expected, atol=1e-12)
        np.testing.assert_allclose(partial_trace(epr, [1]), np.eye(2) / 2, atol=1e-12)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(partial_trace(rho, [0, 1]), rho, atol=1e-12)

    def test_keep_reordered(self):
        rng = np.random.default_rng(2)
        a, b = random_density(rng, 1), random_density(rng, 1)
        joint = tensor(a, b)
        np.testing.assert_allclose(partial_trace(joint, [1, 0]), tensor(b, a), atol=1e-12)

    @pytest.mark.parametrize("n,keep", [(2, [0]), (3, [1]), (3, [0, 2]), (4, [2, 0]),
                                        (4, [3, 1]), (3, [2, 0, 1]), (4, [1, 3, 0, 2])])
    def test_matches_index_oracle(self, n, keep):
        rng = np.random.default_rng(10 + n)
        rho = random_density(rng, n)
        np.testing.assert_allclose(
            partial_trace(rho, keep), ptrace_oracle(rho, keep), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        assert abs(trace(partial_trace(rho, [0, 2])) - 1.0) < 1e-12

    def test_bad_index(self):
        with pytest.raises(linalg.BadIndex):
            partial_trace(np.eye(4) / 4, [0, 2])


class TestPermutation:
    """Reordering qubits, done by a partial trace that keeps every qubit."""

    def test_identity(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        np.testing.assert_allclose(partial_trace(rho, [0, 1, 2]), rho, atol=1e-12)

    def test_swap_on_basis(self):
        ket01 = np.zeros(4)
        ket01[1] = 1.0  # |01>
        ket10 = np.zeros(4)
        ket10[2] = 1.0  # |10>
        np.testing.assert_allclose(partial_trace(dm(ket01), [1, 0]), dm(ket10), atol=1e-12)

    def test_three_qubit_cycle_conjugation(self):
        # reordering A (x) B (x) C by the cycle must permute the factors
        rng = np.random.default_rng(4)
        a, b, c = (random_density(rng, 1) for _ in range(3))
        got = partial_trace(tensor(a, b, c), [1, 2, 0])  # old qubit 1 moves to front
        np.testing.assert_allclose(got, tensor(b, c, a), atol=1e-12)

    def test_unitary(self):
        # a reordering keeps the spectrum, and the inverse reordering undoes it
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        moved = partial_trace(rho, [2, 0, 1])
        np.testing.assert_allclose(np.linalg.eigvalsh(moved), np.linalg.eigvalsh(rho),
                                   atol=1e-12)
        np.testing.assert_allclose(partial_trace(moved, [1, 2, 0]), rho, atol=1e-12)


class TestLiftOperator:
    """An operator lifted onto named qubits, applied by `apply_operator`."""

    def test_full_width_natural_order(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 2)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply_operator(u, rho, [0, 1]), u @ rho @ dagger(u),
                                   atol=1e-12)

    def test_single_x_on_second_of_two(self):
        np.testing.assert_allclose(
            apply_operator(X_MAT, dm(np.array([1, 0, 0, 0])), [1]),
            dm(np.array([0, 1, 0, 0])), atol=1e-12)  # |00><00| -> |01><01|

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_index_oracle(self, n):
        rng = np.random.default_rng(20 + n)
        for k in range(1, min(n, 3) + 1):
            for _ in range(3):
                positions = [int(p) for p in rng.choice(n, size=k, replace=False)]
                u = random_unitary(rng, k)
                rho = random_density(rng, n)
                lifted = lift_oracle(u, positions, n)
                np.testing.assert_allclose(
                    apply_operator(u, rho, positions),
                    lifted @ rho @ dagger(lifted), atol=1e-12)

    def test_lift_preserves_unitarity_and_trace(self):
        rng = np.random.default_rng(6)
        u = random_unitary(rng, 1)
        rho = random_density(rng, 3)
        evolved = apply_operator(u, rho, [1])
        assert abs(trace(evolved) - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh((evolved + dagger(evolved)) / 2)) >= -1e-9
        np.testing.assert_allclose(apply_operator(dagger(u), evolved, [1]), rho, atol=1e-9)

    def test_duplicate_position(self):
        with pytest.raises(DuplicatePosition):
            apply_operator(CNOT_MAT, np.eye(4) / 4, [1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_operator(CNOT_MAT, np.eye(4) / 4, [0])

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            apply_operator(X_MAT, np.eye(4) / 4, [2])


class TestObservable:
    def test_computational_basis_ok(self):
        obs = Observable("M", ((0.0, dm(KET0)), (1.0, dm(KET1))))
        assert validate_observable(obs, 2) == []

    def test_trivial_observable_ok(self):
        obs = Observable("triv", ((0.0, np.eye(2, dtype=complex)),))
        assert validate_observable(obs, 2) == []

    def test_incomplete_projectors(self):
        obs = Observable("bad", ((0.0, dm(KET0)), (1.0, dm(KET0))))
        problems = validate_observable(obs, 2)
        assert "completeness" in problems and "orthogonal" in problems

    def test_duplicate_eigenvalues(self):
        obs = Observable("dup", ((1.0, dm(KET0)), (1.0, dm(KET1))))
        assert "duplicate-eigenvalue" in validate_observable(obs, 2)

    def test_non_projector(self):
        obs = Observable("nonproj", ((0.0, H_MAT), (1.0, np.eye(2) - H_MAT)))
        assert "idempotent" in validate_observable(obs, 2)

    def test_gate_equality_by_name_and_matrix(self):
        g1 = linalg.Gate("G", X_MAT)
        g2 = linalg.Gate("G", X_MAT.copy())
        g3 = linalg.Gate("G", Z_MAT)
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != g3

    def test_plus_state_observable(self):
        assert validate_observable(OBS_MPM, 2) == []

    def test_two_qubit_computational(self):
        obs = linalg.computational_observable(2)
        assert validate_observable(obs, 4) == []
        assert [ev for ev, _ in obs.outcomes] == [0.0, 1.0, 2.0, 3.0]
