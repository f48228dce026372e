"""Quantum contexts: an ordered tuple of qubit names plus their joint state.

All operations return fresh values; a context is never mutated.  The empty
context is the 1x1 matrix [[1]], so allocating into nothing needs no special
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def names(self) -> tuple:
        """The qubit names, sorted: what equal contexts share exactly."""
        return tuple(sorted(self.vars))

    @cached_property
    def cell(self) -> int:
        """floor(f / w), where f = sum_i (i+1) Re rho_ii over the diagonal
        reordered to sorted-name order and w = 2 ATOL sum_i (i+1).

        context_equal bounds each diagonal entry's change by ATOL, so it
        changes f by at most w/2: contexts it accepts lie in the same cell or
        in adjacent ones.
        """
        n = len(self.vars)
        diag = np.real(np.diagonal(self.rho))
        if n > 1:
            order = sorted(range(n), key=self.vars.__getitem__)
            diag = diag.reshape([2] * n).transpose(order).reshape(-1)
        d = diag.size
        f = float(np.arange(1, d + 1) @ diag)
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


# validate_observable's findings by (content digest, dimension): an
# observable is checked once, and a bad one still raises on every call
_observable_problems: dict = {}


def measure(ctx: QContext, obs: Observable, rvars) -> list:
    """Project with each outcome of obs on the named qubits.

    Returns (eigenvalue, probability, post-context) triples for the outcomes
    with nonzero probability; probabilities are Tr(P rho P) and the
    post-states are the renormalised projections P rho P / p.
    """
    positions = [ctx.index(v) for v in rvars]
    dim = 2 ** len(positions)
    problems = _observable_problems.get((obs.key, dim))
    if problems is None:
        problems = _observable_problems[(obs.key, dim)] = linalg.validate_observable(obs, dim)
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


# a lookup compares a group of up to this many contexts directly: a cell
# costs about one comparison, so cells pay only in larger groups
SCAN_LIMIT = 4


class ContextIndex:
    """Contexts filed under caller-given keys, looked up by context_equal.

    Ids count from 0 in filing order.  matches() yields, in ascending order,
    the ids under a key whose contexts context_equal accepts against the
    query; find() returns the first, the lowest id within ATOL.  file() files
    a context unless find() has an answer: the one rule by which a new state
    merges into the lowest-id equal one.  A lookup in a group of up to
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

    def _append(self, group: list, ctx: QContext) -> int:
        i = len(self._contexts)
        self._contexts.append(ctx)
        group[0].append(i)
        if group[1] is not None:
            group[1].setdefault(ctx.cell, []).append(i)
        return i

    def add(self, key, ctx: QContext) -> int:
        """File ctx under key; returns its id."""
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = [[], None]
        return self._append(group, ctx)

    def file(self, key, ctx: QContext) -> tuple:
        """(find(key, ctx), False) if that is an id, else (add(key, ctx), True),
        hashing the key once when it is known."""
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = [[], None]
        else:
            for i in self._candidates(group, ctx):
                if context_equal(self._contexts[i], ctx):
                    return i, False
        return self._append(group, ctx), True

    def matches(self, key, ctx: QContext, accept=None):
        """Ids under key within ATOL of ctx, ascending; `accept(id)` filters
        candidates before any context is compared."""
        group = self._groups.get(key)
        for i in () if group is None else self._candidates(group, ctx):
            if (accept is None or accept(i)) and context_equal(self._contexts[i], ctx):
                yield i

    def find(self, key, ctx: QContext, accept=None) -> int | None:
        return next(self.matches(key, ctx, accept), None)
