"""Shared test oracles, written independently of the code under test.

The partial-trace/lift oracles manipulate indices directly; the dense
partial trace and operator application are the density-matrix references
for the factored state kernel; the free-variable
oracle re-states the defining clauses; the brute-force bisimilarity oracle
enumerates every equivalence relation and decides hull membership with exact
rational arithmetic; the reference refinement loop solves every matching
question afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from qccs import lp
from qccs import syntax as S
from qccs.bisim import TAU_HAT, class_vector, weak_reach_feasible, weak_terminates_in
from qccs.frontend import elaborate, parse
from qccs.lts import Tau

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_configs(name: str, *configs: str) -> list:
    """The named configurations of corpus/<name>.qccs, from one elaboration."""
    elab = elaborate(parse((CORPUS / f"{name}.qccs").read_text(encoding="utf-8")))
    return [elab.configs[c] for c in configs]


# -- index-level linear algebra oracles --


def ptrace_oracle(rho: np.ndarray, keep) -> np.ndarray:
    """Partial trace by direct summation over basis indices."""
    n = int(np.log2(rho.shape[0]))
    keep = list(keep)
    drop = [i for i in range(n) if i not in keep]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)

    def assemble(kept_bits, dropped_bits):
        bits = [0] * n
        for pos, b in zip(keep, kept_bits):
            bits[pos] = b
        for pos, b in zip(drop, dropped_bits):
            bits[pos] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for i in range(dim_out):
        ibits = [(i >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
        for j in range(dim_out):
            jbits = [(j >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
            for e in range(2 ** len(drop)):
                ebits = [(e >> (len(drop) - 1 - k)) & 1 for k in range(len(drop))]
                out[i, j] += rho[assemble(ibits, ebits), assemble(jbits, ebits)]
    return out


def lift_oracle(op: np.ndarray, positions, n: int) -> np.ndarray:
    """Embed op on the listed qubits by writing each matrix entry directly."""
    k = int(np.log2(op.shape[0]))
    positions = list(positions)
    rest = [i for i in range(n) if i not in positions]
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for big_i in range(dim):
        ibits = [(big_i >> (n - 1 - b)) & 1 for b in range(n)]
        for big_j in range(dim):
            jbits = [(big_j >> (n - 1 - b)) & 1 for b in range(n)]
            if any(ibits[r] != jbits[r] for r in rest):
                continue
            oi = 0
            for p in positions:
                oi = (oi << 1) | ibits[p]
            oj = 0
            for p in positions:
                oj = (oj << 1) | jbits[p]
            out[big_i, big_j] = op[oi, oj]
    return out


# -- dense references: the density-matrix forms of the factor kernel --


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out all qubits of rho not in `keep`, keeping the listed order."""
    rho = np.asarray(rho, dtype=complex)
    n = int(np.log2(rho.shape[0]))
    keep = list(keep)
    order = keep + [i for i in range(n) if i not in keep]
    dk, dd = 2 ** len(keep), 2 ** (n - len(keep))
    t = rho.reshape([2] * (2 * n)).transpose(order + [n + i for i in order])
    return np.trace(t.reshape(dk, dd, dk, dd), axis1=1, axis2=3)


def apply_operator(op, rho, positions) -> np.ndarray:
    """op rho op^dag, with the k-qubit op on the listed qubits of rho: the
    listed row and column axes are moved first, contracted, and moved back."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    k, n = int(np.log2(op.shape[0])), int(np.log2(rho.shape[0]))
    positions = list(positions)
    order = positions + [i for i in range(n) if i not in positions]
    axes = order + [n + i for i in order]
    dk, dr = 2**k, 2 ** (n - k)
    t = rho.reshape([2] * (2 * n)).transpose(axes).reshape(dk, dr * dk * dr)
    t = op.conj() @ (op @ t).reshape(dk * dr, dk, dr)
    return t.reshape([2] * (2 * n)).transpose(np.argsort(axes)).reshape(rho.shape)


# -- free quantum variables, restated clause by clause --


def qv_oracle(t) -> set:
    if isinstance(t, S.Nil):
        return set()
    if isinstance(t, (S.CInput, S.COutput)):
        return qv_oracle(t.body)
    if isinstance(t, S.QbitNew):
        return qv_oracle(t.body) - {t.qvar}
    if isinstance(t, S.QInput):
        return qv_oracle(t.body) - {t.qvar}
    if isinstance(t, S.QOutput):
        return qv_oracle(t.body) | {t.qvar}
    if isinstance(t, (S.Unitary, S.Measure)):
        return qv_oracle(t.body) | set(t.qvars)
    if isinstance(t, (S.Sum, S.Parallel)):
        return qv_oracle(t.left) | qv_oracle(t.right)
    if isinstance(t, (S.Relabel, S.Restrict, S.If)):
        return qv_oracle(t.body)
    raise TypeError(t)


# -- synthetic probabilistic transition systems --


@dataclass
class SyntheticLts:
    """Abstract finite LTS: integer nodes, arbitrary hashable actions,
    exact-rational edge probabilities, and an integer context label per node."""

    n: int
    edges_exact: list  # edges_exact[i] = [(action, ((j, Fraction), ...)), ...]
    labels: list       # context label per node

    @property
    def node_count(self) -> int:
        return self.n

    def node_edges(self, i: int):
        return [
            (action, tuple((j, float(p)) for j, p in targets))
            for action, targets in self.edges_exact[i]
        ]

    def stuck(self, i: int) -> bool:
        return not self.edges_exact[i]

    def terminal_equal(self, i: int, j: int) -> bool:
        return self.labels[i] == self.labels[j]

    def terminal_matches(self, i: int, accept=None):
        return (j for j in range(self.n) if self.stuck(j) and (accept is None or accept(j))
                and self.terminal_equal(j, i))

    def successors(self, i: int, action):
        return [tuple((j, float(p)) for j, p in tg)
                for a, tg in self.edges_exact[i] if a == action]


def random_synthetic_lts(rng, max_nodes: int = 6, actions=("a", "b", "t")) -> SyntheticLts:
    """Random LTS with rational probabilities of denominator at most 4."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = [[] for _ in range(n)]
    for i in range(n):
        for _ in range(int(rng.integers(0, 3))):
            action = actions[int(rng.integers(0, len(actions)))]
            den = int(rng.integers(1, 5))
            support = sorted(rng.choice(n, size=min(int(rng.integers(1, 4)), n),
                                        replace=False))
            # composition of `den` into len(support) positive parts
            parts = [1] * len(support)
            for _ in range(den - len(support)):
                parts[int(rng.integers(0, len(parts)))] += 1
            if den < len(support):
                support = support[:den]
                parts = [1] * den
            total = sum(parts)
            targets = tuple(
                (int(s), Fraction(p, total)) for s, p in zip(support, parts))
            edge = (action, targets)
            if edge not in edges[i]:
                edges[i].append(edge)
    labels = [int(rng.integers(0, 3)) for _ in range(n)]
    return SyntheticLts(n, edges, labels)


# -- exact convex-hull membership (Fractions, Gaussian elimination) --


def _solve_exact(a, b):
    """Solve a x = b over Fractions; returns None when singular/inconsistent."""
    m, n = len(a), len(a[0])
    rows = [list(r) + [bi] for r, bi in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(m):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if rows[k][n] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined; caller tries another subset
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = rows[row_idx][n]
    return x


def exact_hull_member(points, target) -> bool:
    """Is target a convex combination of points?  All entries Fractions.

    By Caratheodory it suffices to scan subsets of at most dim+2 points and
    solve the barycentric system exactly.
    """
    if not points:
        return False
    dim = len(target)
    idx = range(len(points))
    for size in range(1, min(len(points), dim + 2) + 1):
        for subset in combinations(idx, size):
            a = [[points[i][d] for i in subset] for d in range(dim)]
            a.append([Fraction(1)] * size)
            b = [target[d] for d in range(dim)] + [Fraction(1)]
            w = _solve_exact(a, b)
            if w is not None and all(x >= 0 for x in w):
                return True
    return False


def _set_partitions(items):
    """All partitions of a list (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def exact_class_vector(targets, block_of) -> list:
    """Exact mass of ((node, Fraction), ...) on each block; block_of lists
    the block of every node."""
    vec = [Fraction(0)] * (max(block_of) + 1)
    for j, p in targets:
        vec[block_of[j]] += p
    return vec


def oracle_strong_bisimilar(slts: SyntheticLts, left: int, right: int) -> bool:
    """Brute force: does any equivalence relation containing (left, right)
    satisfy the strong-bisimulation conditions?"""

    def valid(partition):
        block_of = [0] * slts.n
        for b, members in enumerate(partition):
            for m in members:
                block_of[m] = b
        for members in partition:
            for x in members:
                for y in members:
                    if x == y:
                        continue
                    if slts.stuck(x) and not slts.terminal_equal(x, y):
                        return False
                    for action, targets in slts.edges_exact[x]:
                        vec = exact_class_vector(targets, block_of)
                        points = [
                            exact_class_vector(tg, block_of)
                            for a, tg in slts.edges_exact[y]
                            if a == action
                        ]
                        if not exact_hull_member(points, vec):
                            return False
        return True

    for partition in _set_partitions(list(range(slts.n))):
        block_of = {}
        for b, members in enumerate(partition):
            for m in members:
                block_of[m] = b
        if block_of[left] == block_of[right] and valid(partition):
            return True
    return False


# -- partition refinement without memoized verdicts --


def _reference_holds(lts, member, owner, kind, action, vec, partition, tol, mode) -> bool:
    if kind == "termination":
        return weak_terminates_in(lts, member, owner, tol) is not None
    if mode == "strong":
        points = [class_vector(tg, partition) for tg in lts.successors(member, action)]
        return bool(points) and lp.convex_hull_member(points, list(vec), tol) is not None
    label = TAU_HAT if isinstance(action, Tau) else action
    return weak_reach_feasible(lts, member, label, vec, partition, tol) is not None


def reference_refine(lts, partition, mode: str, tol: float):
    """The partition bisim._refine returns, by the same restart scan, asking
    every matching question of the LP layer again each time it comes up."""
    while True:
        changed = False
        for block_id, members in enumerate(partition.blocks()):
            if len(members) < 2:
                continue
            for owner in members:
                conditions = [("move", action, class_vector(targets, partition))
                              for action, targets in lts.node_edges(owner)]
                if mode != "strong" and lts.stuck(owner):
                    conditions.append(("termination", None, None))
                for kind, action, vec in conditions:
                    sat = {m for m in members
                           if _reference_holds(lts, m, owner, kind, action, vec,
                                               partition, tol, mode)}
                    if sat and len(sat) < len(members):
                        partition = partition.split(block_id, sat)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
        if not changed:
            return partition
