"""Quantum contexts: an ordered tuple of qubit names plus their joint state.

The state is held as a factor: a 2^n x r array K with rho = K K^dag, which
every state the system creates keeps at low rank (r = 1 for pure states).
Operations act on K; rho itself is built only for output and for the rare
comparison that the diagonals cannot settle.  All operations return fresh
values; a context is never mutated.  The empty context is the 1x1 factor
[[1]], so allocating into nothing needs no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import ATOL, Gate, Observable, _stored, apply_to_factor

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
    """Qubit names and a 2^n x r factor K of their state rho = K K^dag.

    Build one from a density matrix with make_context.
    """

    vars: tuple
    factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise DuplicateVar(f"duplicate variable in {self.vars}")
        if self.factor.ndim != 2 or self.factor.shape[0] != 2 ** len(self.vars):
            raise ContextError(
                f"factor of shape {self.factor.shape} does not fit {len(self.vars)} qubits"
            )

    @property
    def rho(self) -> np.ndarray:
        """The density matrix K K^dag, built afresh on every access."""
        return self.factor @ self.factor.conj().T

    def index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVar(f"{var} is not in the context {self.vars}") from None

    def reduced(self, keep_vars) -> np.ndarray:
        """State of the named qubits, in the given order."""
        return linalg.reduce_factor(self.factor, [self.index(v) for v in keep_vars])

    @_stored
    def names(self) -> tuple:
        """The qubit names, sorted: what equal contexts share exactly."""
        return tuple(sorted(self.vars))

    @_stored
    def diag(self) -> np.ndarray:
        """diag(rho) with the qubits in sorted-name order: the squared row
        norms of K with its rows in that order."""
        return linalg.factor_diagonal(self.factor, [self.vars.index(v) for v in self.names])

    @_stored
    def cell(self) -> int:
        """floor(f / w), where f = sum_i (i+1) diag_i and w = 2 ATOL sum_i (i+1).

        context_equal bounds each diagonal entry's change by ATOL, so it
        changes f by at most w/2: contexts it accepts lie in the same cell or
        in adjacent ones.
        """
        d = self.diag.size
        f = float(np.arange(1, d + 1) @ self.diag)
        return math.floor(f / (ATOL * d * (d + 1)))

    def __str__(self) -> str:
        if not self.vars:
            return "(empty)"
        return f"{','.join(self.vars)} = {format_state(self.rho)}"


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


def _factor(rho, what: str) -> np.ndarray:
    k = linalg.factor_density(rho)
    if k is None:
        raise NotDensity(f"{what} is not a density matrix (trace 1, Hermitian, PSD)")
    return k


def make_context(vars, rho) -> QContext:
    """Validated constructor: rho must be a density matrix of the named qubits."""
    vars, rho = tuple(vars), np.asarray(rho, dtype=complex)
    k = _factor(rho, "state")
    dim = 2 ** len(vars)
    if rho.shape != (dim, dim):
        raise ContextError(f"state of shape {rho.shape} does not fit {len(vars)} qubits")
    return QContext(vars, k)


def new_qubit(ctx: QContext, r: str) -> QContext:
    """Allocate a fresh qubit in |0><0|, prepended to the variable list:
    |0> (x) K is K stacked over zeros."""
    if r in ctx.vars:
        raise DuplicateVar(f"{r} is already in the context")
    k = ctx.factor
    return QContext((r,) + ctx.vars, np.concatenate([k, np.zeros_like(k)]))


def extend_with_input(ctx: QContext, r: str, sigma) -> QContext:
    """Extend the context with an input qubit r, prepended to the variables.

    A 2x2 sigma is the input's own state, joining the context as a product:
    the factor is the Kronecker product of sigma's factor and K, of rank at
    most 2 r <= 2^(n+1), so it never needs re-factoring.  Otherwise sigma is
    the joint state of r and the context, and must restrict to the current
    state once r is traced out; this is what keeps an input from disturbing
    the systems already present.
    """
    if r in ctx.vars:
        raise DuplicateVar(f"{r} is already in the context")
    sigma = np.asarray(sigma, dtype=complex)
    extended = (r,) + ctx.vars
    if sigma.shape == (2, 2):
        return QContext(extended, np.kron(_factor(sigma, "input state"), ctx.factor))
    dim = 2 ** len(extended)
    if sigma.shape != (dim, dim):
        raise ContextError(f"extension state must cover 1 or {len(extended)} qubits")
    joint = QContext(extended, _factor(sigma, "extension state"))
    if not linalg.approx_equal(joint.reduced(ctx.vars), ctx.rho):
        raise TraceMismatch("tracing out the input qubit does not recover the old state")
    return joint


def apply_unitary(ctx: QContext, gate: Gate, rvars) -> QContext:
    """The context after gate acts on the named qubits.  The gate's own
    finding says whether it is a unitary over qubits."""
    if gate.fault:
        raise NotUnitary("operator is not unitary")
    positions = [ctx.index(v) for v in rvars]
    return QContext(ctx.vars, apply_to_factor([gate.matrix], ctx.factor, positions)[0])


def measure(ctx: QContext, obs: Observable, rvars) -> list:
    """Project with each outcome of obs on the named qubits.

    Returns (eigenvalue, probability, post-context) triples for the outcomes
    with nonzero probability.  K's rows are permuted once, and every
    projector P acts on those same rows (apply_to_factor).  Probabilities are
    Tr(P rho P) = ||P K||_F^2, taken on P K in K's own row order, and the
    post-states have the renormalised factors P K / sqrt(p).  A faulty
    observable raises its own fault, a misshapen one included; a valid one
    given a number of qubits that differs from its dimension, which no
    well-formed term does, raises `dimension`.
    """
    positions = [ctx.index(v) for v in rvars]
    if obs.fault:
        raise InvalidObservable(f"observable {obs.name}: {obs.fault}")
    if 2 ** len(positions) != obs.dim:
        raise InvalidObservable(f"observable {obs.name}: dimension")
    projected = apply_to_factor([p for _, p in obs.outcomes], ctx.factor, positions)
    results = []
    for (eigenvalue, _), k in zip(obs.outcomes, projected):
        p = float(np.vdot(k, k).real)
        if p <= PROB_CUTOFF:
            continue
        results.append((float(eigenvalue), p, QContext(ctx.vars, k / math.sqrt(p))))
    return results


def context_equal(c1: QContext, c2: QContext) -> bool:
    """Equality up to reordering of the qubit tuple.

    The variable name sets must agree; c1's state is reordered to c2's
    variable order before the entrywise comparison.  Two contexts with the
    same variable order and factors equal entry by entry are equal at once:
    they would build the same rho.  A factor holding a NaN never matches
    that way, and falls through.  A pair whose diagonals (in sorted-name
    order) differ by more than ATOL in some entry fails the entrywise
    comparison, so it is rejected before either rho is built.
    """
    if c1 is c2:
        return True
    if c1.names != c2.names:
        return False
    k1, k2 = c1.factor, c2.factor
    if c1.vars == c2.vars and k1.shape == k2.shape and (k1 == k2).all():
        return True
    if np.abs(c1.diag - c2.diag).max() > ATOL:
        return False
    if c1.vars == c2.vars:
        return linalg.approx_equal(c1.rho, c2.rho)
    return linalg.approx_equal(c1.reduced(c2.vars), c2.rho)


# a lookup compares a group of up to this many contexts directly: a cell
# costs about one comparison, so cells pay only in larger groups
SCAN_LIMIT = 4


class ContextIndex:
    """Contexts filed under caller-given keys, looked up by context_equal.

    Ids count from 0 in filing order.  file() is the one lookup: it returns
    the lowest id under the key within ATOL of the query, or files the query
    when there is none.  It is the merge rule by which a new state merges
    into the lowest-id equal one, and by which a stuck node joins its
    terminal class (lts.Lts.terminal).  A lookup in a group of up to
    SCAN_LIMIT contexts compares them all.  In a larger group it compares only
    the contexts in the query's `cell` and the two next to it: the group's
    contexts are bucketed by cell at its first such lookup.
    """

    def __init__(self):
        self._contexts: list = []
        self._groups: dict = {}  # key -> [ids ascending, {cell: ids} or None]

    def _candidates(self, group: list, ctx: QContext) -> list:
        ids, cells = group
        if len(ids) <= SCAN_LIMIT:
            return ids
        if cells is None:
            cells = group[1] = {}
            for i in ids:
                cells.setdefault(self._contexts[i].cell, []).append(i)
        c = ctx.cell
        return sorted(cells.get(c - 1, []) + cells.get(c, []) + cells.get(c + 1, []))

    def file(self, key, ctx: QContext) -> tuple:
        """(the lowest id under key within ATOL of ctx, False) if there is
        one, else (the new id of ctx, now filed under key, True), hashing the
        key once when it is known."""
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = [[], None]
        else:
            for i in self._candidates(group, ctx):
                if context_equal(self._contexts[i], ctx):
                    return i, False
        i = len(self._contexts)
        self._contexts.append(ctx)
        group[0].append(i)
        if group[1] is not None:
            group[1].setdefault(ctx.cell, []).append(i)
        return i, True
