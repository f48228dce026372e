"""Complex-matrix kernel for few-qubit quantum states.

States are held as factors: a 2^n x r array K of dtype complex stands for
the density matrix rho = K K^dag, and every state operation acts on the rows
of K.  Gates, observables and density matrices are square arrays whose
dimension is a power of two.  Qubit index 0 is the leftmost tensor factor
(the most significant bit of a basis index), so the basis state
|b0 b1 ... b{n-1}> has index b0*2^(n-1) + ... + b{n-1}.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# The state tolerance: the entrywise bound under which two matrices are equal.
# It validates states, gates and observables, merges equal configurations into
# one node, and checks probability sums.  Class masses use lp.TOL instead.
ATOL = 1e-9


class LinalgError(Exception):
    pass


class DimensionMismatch(LinalgError):
    pass


class BadIndex(LinalgError):
    pass


class DuplicatePosition(LinalgError):
    pass


def ket(*amplitudes) -> np.ndarray:
    return np.array(amplitudes, dtype=complex)


def dm(psi) -> np.ndarray:
    """Density matrix |psi><psi| of a state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of 2")
    return n


def tensor(*ops) -> np.ndarray:
    if not ops:
        return np.array([[1.0 + 0j]])
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def dagger(a) -> np.ndarray:
    return np.asarray(a).conj().T


def trace(a) -> complex:
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("trace of a non-square matrix")
    return complex(np.trace(a))


def approx_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b), initial=0.0) <= ATOL)


def is_hermitian(a) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and approx_equal(a, dagger(a))


def is_unitary(a) -> bool:
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        return False
    return approx_equal(a @ dagger(a), np.eye(a.shape[0]))


# Eigenvalues at most this large are dropped when a density matrix is
# factored: rounding noise on the zero eigenvalues of a low-rank state, far
# below ATOL, so that a pure state keeps one column.
RANK_CUTOFF = 1e-14


def factor_density(rho) -> np.ndarray | None:
    """A 2^n x r factor K with rho = K K^dag, or None if rho is not a density
    matrix (trace 1, Hermitian and PSD, each within ATOL).

    One eigh of the Hermitian part both validates and factors: K holds the
    columns sqrt(lam) v of the eigenpairs with lam > RANK_CUTOFF.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return None
    if abs(trace(rho) - 1.0) > ATOL or not is_hermitian(rho):
        return None
    evals, evecs = np.linalg.eigh((rho + dagger(rho)) / 2)
    if evals[0] < -ATOL:
        return None
    keep = evals > RANK_CUTOFF
    return evecs[:, keep] * np.sqrt(evals[keep])


def _rows_first(k: np.ndarray, positions) -> tuple:
    """The rows of the 2^n x r factor k as a tensor with the listed qubits'
    axes first (in listed order), the other qubits next and r last, plus the
    inverse axis order, which puts the axes back."""
    n = qubit_count(k.shape[0])
    positions = list(positions)
    if len(set(positions)) != len(positions):
        raise DuplicatePosition(f"duplicate positions in {positions}")
    if any(p < 0 or p >= n for p in positions):
        raise BadIndex(f"position out of range in {positions} (n={n})")
    order = positions + [i for i in range(n) if i not in positions] + [n]
    inverse = [0] * (n + 1)
    for i, axis in enumerate(order):
        inverse[axis] = i
    return k.reshape([2] * n + [k.shape[1]]).transpose(order), inverse


def apply_to_factor(ops, k: np.ndarray, positions) -> list:
    """[op K for op in ops], with each m-qubit op acting on the listed
    qubits of the rows of the 2^n x r factor K (in listed order) and as the
    identity elsewhere.

    K's rows are permuted once, by _rows_first, into a 2^m x 2^(n-m) r
    matrix.  Each op contracts it in one matmul, and the inverse axis order
    puts each product back: O(2^n r 2^m) work per op, on the rows only.
    """
    positions = list(positions)
    t, inverse = _rows_first(k, positions)
    rows = t.reshape(2 ** len(positions), -1)
    products = []
    for op in ops:
        op = np.asarray(op, dtype=complex)
        m = qubit_count(op.shape[0])
        if len(positions) != m:
            raise DimensionMismatch(f"{m}-qubit operator applied to {len(positions)} positions")
        products.append((op @ rows).reshape(t.shape).transpose(inverse).reshape(k.shape))
    return products


def reduce_factor(k: np.ndarray, keep) -> np.ndarray:
    """Tr_rest(K K^dag): the density matrix of the listed qubits of the
    factor K, in listed order.  K reshaped to (d_keep, d_rest r) is a factor
    of it."""
    t, _ = _rows_first(k, keep)
    kp = t.reshape(2 ** len(keep), -1)
    return kp @ dagger(kp)


def factor_diagonal(k: np.ndarray, order=None) -> np.ndarray:
    """diag(K K^dag): the squared row norms of K.  `order`, a permutation
    of all qubit positions, indexes the diagonal by the qubits in that
    order: the 2^n norms are permuted as a vector, not K's rows."""
    d = (k.real**2 + k.imag**2).sum(axis=1)
    if order is None:
        return d
    return d.reshape([2] * len(order)).transpose(order).reshape(-1)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=complex))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _over_qubits(m) -> bool:
    """Is m square, with a side that is a power of two?"""
    d = m.shape[0]
    return m.shape == (d, d) and d > 0 and d & (d - 1) == 0


class _Operator:
    """A gate or measurement.  `fault` says what is wrong with it, or is None,
    worked out once per object.  A `misshapen` one, whose fault is MISSHAPEN,
    is not square over qubits; it has no arity, so no term that applies it
    breaks the arity rule, and applying it raises its fault."""

    @property
    def misshapen(self) -> bool:
        return self.fault == self.MISSHAPEN

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Gate(_Operator):
    """A named unitary; equality compares the name plus a matrix fingerprint."""

    MISSHAPEN = "matrix must be square over qubits"

    name: str
    matrix: np.ndarray = field(compare=False, repr=False)
    key: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "key", _digest(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def arity(self) -> int:
        return qubit_count(self.dim)

    @cached_property
    def fault(self) -> str | None:
        if not _over_qubits(self.matrix):
            return self.MISSHAPEN
        return None if is_unitary(self.matrix) else "matrix is not unitary"


@dataclass(frozen=True)
class Observable(_Operator):
    """Spectral form of a measurement: (eigenvalue, projector) pairs."""

    MISSHAPEN = "projectors must be square over qubits"

    name: str
    outcomes: tuple = field(compare=False, repr=False)
    key: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "key",
            _digest(np.array([ev for ev, _ in self.outcomes]), *(p for _, p in self.outcomes)),
        )

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[0]

    @cached_property
    def fault(self) -> str | None:
        """validate_observable's problems at the observable's own dimension."""
        if not _over_qubits(self.outcomes[0][1]):
            return self.MISSHAPEN
        return ", ".join(validate_observable(self, self.dim)) or None


def validate_observable(obs: Observable, dim: int) -> list[str]:
    """Check the spectral-form invariants; returns the violated ones (empty = ok)."""
    problems = []
    eigenvalues = [ev for ev, _ in obs.outcomes]
    if len(set(eigenvalues)) != len(eigenvalues):
        problems.append("duplicate-eigenvalue")
    projectors = [np.asarray(p, dtype=complex) for _, p in obs.outcomes]
    if any(p.shape != (dim, dim) for p in projectors):
        problems.append("dimension")
        return problems
    if not all(is_hermitian(p) for p in projectors):
        problems.append("hermitian")
    if not all(approx_equal(p @ p, p) for p in projectors):
        problems.append("idempotent")
    zero = np.zeros((dim, dim))
    if not all(approx_equal(p @ q, zero) for i, p in enumerate(projectors)
               for q in projectors[i + 1 :]):
        problems.append("orthogonal")
    if not approx_equal(sum(projectors), np.eye(dim)):
        problems.append("completeness")
    return problems


# -- named constants, as printed in the source language docs --

KET0 = ket(1, 0)
KET1 = ket(0, 1)
KET_PLUS = ket(1, 1) / np.sqrt(2)
KET_MINUS = ket(1, -1) / np.sqrt(2)

I2 = np.eye(2, dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
Y_MAT = np.array([[0, 1j], [-1j, 0]], dtype=complex)
CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

GATE_I = Gate("I", I2)
GATE_H = Gate("H", H_MAT)
GATE_X = Gate("X", X_MAT)
GATE_Z = Gate("Z", Z_MAT)
GATE_Y = Gate("Y", Y_MAT)
GATE_CNOT = Gate("CNOT", CNOT_MAT)

# Pauli numbering used by the conditional-correction sugar: sigma1 = X,
# sigma2 = Z, sigma3 = the [[0, i], [-i, 0]] variant of Y.
GATE_SIGMA = (
    Gate("sigma0", I2),
    Gate("sigma1", X_MAT),
    Gate("sigma2", Z_MAT),
    Gate("sigma3", Y_MAT),
)

BUILTIN_GATES = {
    g.name: g for g in (GATE_I, GATE_H, GATE_X, GATE_Z, GATE_Y, GATE_CNOT, *GATE_SIGMA)
}


def basis_projector(bits: str) -> np.ndarray:
    """Projector onto a computational basis state given as a bit string."""
    vecs = {"0": KET0, "1": KET1}
    v = tensor(*[vecs[b].reshape(2, 1) for b in bits]).reshape(-1)
    return dm(v)


def computational_observable(k: int, name: str | None = None) -> Observable:
    """The k-qubit measurement whose outcome i projects onto |binary(i)>."""
    outcomes = tuple(
        (float(i), basis_projector(format(i, f"0{k}b"))) for i in range(2**k)
    )
    return Observable(name or f"M{2**k}", outcomes)


OBS_M01 = Observable("M01", ((0.0, dm(KET0)), (1.0, dm(KET1))))
