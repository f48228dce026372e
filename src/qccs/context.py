"""Quantum contexts: an ordered tuple of qubit names plus their joint state.

All operations return fresh values; a context is never mutated.  The empty
context is the 1x1 matrix [[1]], so allocating into nothing needs no special
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import ATOL, Observable, apply_operator, partial_trace

# outcomes this unlikely are rounding error: dropped, not renormalised
PROB_CUTOFF = 1e-12


class ContextError(Exception):
    pass


class DuplicateVar(ContextError):
    pass


class UnknownVar(ContextError):
    pass


class TraceMismatch(ContextError):
    pass


class NotUnitary(ContextError):
    pass


class NotDensity(ContextError):
    pass


class InvalidObservable(ContextError):
    pass


@dataclass(frozen=True, eq=False)
class QContext:
    vars: tuple
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise DuplicateVar(f"duplicate variable in {self.vars}")
        dim = 2 ** len(self.vars)
        if self.rho.shape != (dim, dim):
            raise ContextError(
                f"state of shape {self.rho.shape} does not fit {len(self.vars)} qubits"
            )

    @property
    def size(self) -> int:
        return len(self.vars)

    def index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVar(f"{var} is not in the context {self.vars}") from None

    def reduced(self, keep_vars) -> np.ndarray:
        """State of the named qubits, in the given order."""
        return partial_trace(self.rho, [self.index(v) for v in keep_vars])

    def __str__(self) -> str:
        if not self.vars:
            return "(empty)"
        return f"{','.join(self.vars)} = {format_state(self.rho)}"


EMPTY = QContext((), np.array([[1.0 + 0j]]))


def _fmt_amp(z: complex) -> str:
    re, im = z.real, z.imag
    if abs(im) < ATOL:
        return f"{re:.4g}"
    if abs(re) < ATOL:
        return f"{im:.4g}i"
    sign = "+" if im >= 0 else "-"
    return f"({re:.4g}{sign}{abs(im):.4g}i)"


def format_state(rho: np.ndarray) -> str:
    """Compact display: a ket combination for pure states, otherwise the
    diagonal of the density matrix."""
    n = linalg.qubit_count(rho.shape[0])
    evals, evecs = np.linalg.eigh((rho + linalg.dagger(rho)) / 2)
    if evals[-1] >= 1.0 - 1e-6:
        psi = evecs[:, -1]
        k = int(np.argmax(np.abs(psi)))
        psi = psi * np.exp(-1j * np.angle(psi[k]))  # fix the global phase
        parts = [
            f"{_fmt_amp(z)}|{format(idx, f'0{n}b')}>"
            for idx, z in enumerate(psi)
            if abs(z) > 1e-6
        ]
        return " + ".join(parts).replace("+ -", "- ")
    diag = ", ".join(f"{x:.4g}" for x in np.real(np.diag(rho)))
    return f"mixed[diag: {diag}]"


def make_context(vars, rho) -> QContext:
    """Validated constructor: rho must be a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if not linalg.is_density_matrix(rho):
        raise NotDensity("state is not a density matrix (trace 1, Hermitian, PSD)")
    return QContext(tuple(vars), rho)


def new_qubit(ctx: QContext, r: str) -> QContext:
    """Allocate a fresh qubit in |0><0|, prepended to the variable list."""
    if r in ctx.vars:
        raise DuplicateVar(f"{r} is already in the context")
    return QContext((r,) + ctx.vars, linalg.tensor(linalg.dm(linalg.KET0), ctx.rho))


def extend_with_input(ctx: QContext, r: str, sigma) -> QContext:
    """Extend the context with an input qubit r whose joint state is sigma.

    sigma must restrict to the current state once r is traced out; this is
    what keeps an input from disturbing the systems already present.
    """
    if r in ctx.vars:
        raise DuplicateVar(f"{r} is already in the context")
    sigma = np.asarray(sigma, dtype=complex)
    n = ctx.size + 1
    if sigma.shape != (2**n, 2**n):
        raise ContextError(f"extension state must cover {n} qubits")
    if not linalg.is_density_matrix(sigma):
        raise NotDensity("extension state is not a density matrix")
    rest = partial_trace(sigma, range(1, n))
    if not linalg.approx_equal(rest, ctx.rho):
        raise TraceMismatch("tracing out the input qubit does not recover the old state")
    return QContext((r,) + ctx.vars, sigma)


def apply_unitary(ctx: QContext, u, rvars) -> QContext:
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise NotUnitary("operator is not unitary")
    positions = [ctx.index(v) for v in rvars]
    return QContext(ctx.vars, apply_operator(u, ctx.rho, positions))


def measure(ctx: QContext, obs: Observable, rvars) -> list:
    """Project with each outcome of obs on the named qubits.

    Returns (eigenvalue, probability, post-context) triples for the outcomes
    with nonzero probability; probabilities are Tr(P rho P) and the
    post-states are the renormalised projections P rho P / p.
    """
    positions = [ctx.index(v) for v in rvars]
    dim = 2 ** len(positions)
    problems = linalg.validate_observable(obs, dim)
    if problems:
        raise InvalidObservable(f"observable {obs.name}: {', '.join(problems)}")
    results = []
    for eigenvalue, projector in obs.outcomes:
        projected = apply_operator(projector, ctx.rho, positions)
        p = float(np.real(linalg.trace(projected)))
        if p <= PROB_CUTOFF:
            continue
        results.append((float(eigenvalue), p, QContext(ctx.vars, projected / p)))
    return results


def context_equal(c1: QContext, c2: QContext) -> bool:
    """Equality up to reordering of the qubit tuple.

    The variable name sets must agree; c1's state is reordered to c2's
    variable order before the entrywise comparison.
    """
    if set(c1.vars) != set(c2.vars):
        return False
    if c1.vars == c2.vars:
        return linalg.approx_equal(c1.rho, c2.rho)
    return linalg.approx_equal(c1.reduced(c2.vars), c2.rho)
