"""Dense complex-matrix kernel for few-qubit quantum states.

Everything operates on square numpy arrays of dtype complex whose dimension
is a power of two.  Qubit index 0 is the leftmost tensor factor (the most
significant bit of a basis index), so the basis state |b0 b1 ... b{n-1}>
has index b0*2^(n-1) + ... + b{n-1}.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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


def is_density_matrix(rho) -> bool:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != rho.shape[1]:
        return False
    if abs(trace(rho) - 1.0) > ATOL:
        return False
    if not is_hermitian(rho):
        return False
    return float(np.min(np.linalg.eigvalsh((rho + dagger(rho)) / 2))) >= -ATOL


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out all qubits not in `keep`, preserving the order of the kept ones.

    `keep` is a collection of qubit indices into the tensor factors of rho.
    """
    rho = np.asarray(rho, dtype=complex)
    n = qubit_count(rho.shape[0])
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch("partial trace of a non-square matrix")
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise BadIndex(f"duplicate qubit index in {keep}")
    if any(k < 0 or k >= n for k in keep):
        raise BadIndex(f"qubit index out of range in {keep} (n={n})")
    order = keep + [i for i in range(n) if i not in keep]
    dk, dd = 2 ** len(keep), 2 ** (n - len(keep))
    t = rho.reshape([2] * (2 * n)).transpose(order + [n + i for i in order])
    return np.trace(t.reshape(dk, dd, dk, dd), axis1=1, axis2=3)


def apply_operator(op, rho, positions) -> np.ndarray:
    """op rho op^dag, with the k-qubit op acting on the listed qubits of the
    n-qubit state rho (in listed order) and as the identity elsewhere.

    The axes of rho reshaped to [2]*2n are permuted so the listed qubits come
    first among the rows and among the columns; op then contracts the leading
    row axes and conj(op) the leading column axes, and the permutation is
    undone: O(4^n 2^k) work, with no 2^n x 2^n lift of op.
    """
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    k = qubit_count(op.shape[0])
    n = qubit_count(rho.shape[0])
    positions = list(positions)
    if len(positions) != k:
        raise DimensionMismatch(f"{k}-qubit operator applied to {len(positions)} positions")
    if len(set(positions)) != len(positions):
        raise DuplicatePosition(f"duplicate positions in {positions}")
    if any(p < 0 or p >= n for p in positions):
        raise BadIndex(f"position out of range in {positions} (n={n})")
    order = positions + [i for i in range(n) if i not in positions]
    axes = order + [n + i for i in order]
    dk, dr = 2**k, 2 ** (n - k)
    t = rho.reshape([2] * (2 * n)).transpose(axes).reshape(dk, dr * dk * dr)
    t = op.conj() @ (op @ t).reshape(dk * dr, dk, dr)
    return t.reshape([2] * (2 * n)).transpose(np.argsort(axes)).reshape(rho.shape)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=complex))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Gate:
    """A named unitary; equality compares the name plus a matrix fingerprint."""

    name: str
    matrix: np.ndarray = field(compare=False, repr=False)
    key: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "key", _digest(self.matrix))

    @property
    def arity(self) -> int:
        return qubit_count(self.matrix.shape[0])

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Observable:
    """Spectral form of a measurement: (eigenvalue, projector) pairs."""

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
    def arity(self) -> int:
        return qubit_count(self.outcomes[0][1].shape[0])

    def __str__(self) -> str:
        return self.name


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
    for p in projectors:
        if not is_hermitian(p):
            problems.append("hermitian")
            break
    for p in projectors:
        if not approx_equal(p @ p, p):
            problems.append("idempotent")
            break
    done = False
    for i, p in enumerate(projectors):
        for q in projectors[i + 1 :]:
            if not approx_equal(p @ q, np.zeros((dim, dim))):
                problems.append("orthogonal")
                done = True
                break
        if done:
            break
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
OBS_MPM = Observable("Mpm", ((0.0, dm(KET_PLUS)), (1.0, dm(KET_MINUS))))
