"""Answers computed apart from qccs, to check the program's outputs against.

Everything here reads only the public shape of the results (`Lts.nodes`,
`Lts.edges`, `Lts.initial`, a context's `vars` and `rho`, a trace's `final`)
and recomputes what they must be with plain index arithmetic, so that a
fault shared by the kernel and its own helpers cannot hide.
"""

from __future__ import annotations

from collections import deque

import numpy as np

TOL = 1e-7


class Mismatch(Exception):
    """An output differs from the answer known by construction."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def reduced_qubit(rho, n: int, k: int) -> list:
    """2x2 state of qubit k (0 = leftmost tensor factor) of an n-qubit rho."""
    shift = n - 1 - k
    out = [[0j, 0j], [0j, 0j]]
    for rest in range(2 ** (n - 1)):
        low = rest & ((1 << shift) - 1)
        high = (rest >> shift) << (shift + 1)
        for i in (0, 1):
            for j in (0, 1):
                out[i][j] += rho[high | (i << shift) | low, high | (j << shift) | low]
    return out


def basis_bits(ctx) -> dict | None:
    """{var: bit} when the context is a computational basis state, else None."""
    n = len(ctx.vars)
    nonzero = np.argwhere(np.abs(ctx.rho) > TOL)
    if len(nonzero) != 1:
        return None
    d, e = nonzero[0]
    if d != e or abs(ctx.rho[d, d] - 1.0) > TOL:
        return None
    return {v: (int(d) >> (n - 1 - k)) & 1 for k, v in enumerate(ctx.vars)}


def check_edges(lts) -> None:
    """Every edge is a distribution: positive weights summing to 1."""
    for i, node_edges in enumerate(lts.edges):
        for _, targets in node_edges:
            total = sum(p for _, p in targets)
            expect(abs(total - 1.0) <= 1e-9 and all(p > 0 for _, p in targets),
                   f"node {i}: edge probabilities sum to {total}")


def reachable(lts, root: int) -> set:
    seen, todo = {root}, [root]
    while todo:
        i = todo.pop()
        for _, targets in lts.edges[i]:
            for j, _ in targets:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return seen


def check_teleported(lts, root: int, amps) -> None:
    """Each terminal reachable from root holds |psi><psi| on a qubit other than q."""
    a, b = amps
    psi = ((a * a, a * b), (b * a, b * b))
    terminals = [i for i in reachable(lts, root) if not lts.edges[i]]
    expect(bool(terminals), f"root {root}: no terminal reachable")
    for i in terminals:
        ctx = lts.nodes[i].context
        n = len(ctx.vars)
        ok = any(
            all(abs(r[x][y] - psi[x][y]) <= TOL for x in (0, 1) for y in (0, 1))
            for r in (reduced_qubit(ctx.rho, n, k) for k, v in enumerate(ctx.vars) if v != "q")
        )
        expect(ok, f"terminal {i} does not carry the input state on a qubit other than q")


def terminal_distribution(lts, root: int) -> dict:
    """Probability of ending in each terminal, for a graph with no choice.

    Every reachable non-terminal node must have exactly one edge and the
    graph must be acyclic; mass is pushed along edges in topological order.
    """
    nodes = reachable(lts, root)
    indegree = {i: 0 for i in nodes}
    for i in nodes:
        expect(len(lts.edges[i]) <= 1, f"node {i} offers a choice of {len(lts.edges[i])} moves")
        for _, targets in lts.edges[i]:
            for j, _ in targets:
                indegree[j] += 1
    mass = {i: 0.0 for i in nodes}
    mass[root] = 1.0
    ready = deque(i for i in nodes if indegree[i] == 0)
    done = 0
    while ready:
        i = ready.popleft()
        done += 1
        for _, targets in lts.edges[i]:
            for j, p in targets:
                mass[j] += mass[i] * p
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
    expect(done == len(nodes), "graph has a cycle")
    return {i: mass[i] for i in nodes if not lts.edges[i]}


def check_ghz(lts, n: int) -> None:
    expect(lts.node_count == 4 * n + 1, f"GHZ-{n}: {lts.node_count} nodes, expected {4 * n + 1}")
    check_edges(lts)
    dist = terminal_distribution(lts, lts.initial[0])
    expect(len(dist) == 2, f"GHZ-{n}: {len(dist)} terminals, expected 2")
    states = set()
    for i, p in dist.items():
        bits = basis_bits(lts.nodes[i].context)
        expect(bits is not None and len(bits) == n and len(set(bits.values())) == 1,
               f"GHZ-{n}: terminal {i} is not |0..0> or |1..1>")
        expect(abs(p - 0.5) <= 1e-9, f"GHZ-{n}: terminal {i} reached with {p}")
        states.add(next(iter(bits.values())))
    expect(states == {0, 1}, f"GHZ-{n}: terminals are not |0..0> and |1..1>")


def _check_uniform_basis(pairs, n: int, what: str) -> None:
    """pairs: [(context, p)] must be the 2^n basis states, each at 2^-n."""
    expect(len(pairs) == 2 ** n, f"{what}: {len(pairs)} terminals, expected {2 ** n}")
    seen = set()
    for ctx, p in pairs:
        bits = basis_bits(ctx)
        expect(bits is not None and len(bits) == n, f"{what}: a terminal is not a basis state")
        seen.add(tuple(sorted(bits.items())))
        expect(abs(p - 2.0 ** -n) <= 1e-9, f"{what}: a terminal is reached with {p}")
    expect(len(seen) == 2 ** n, f"{what}: terminals repeat a basis state")


def check_fanout(lts, n: int) -> None:
    want = 2 ** (n + 1) + 2 * n - 1
    expect(lts.node_count == want, f"fan-out-{n}: {lts.node_count} nodes, expected {want}")
    check_edges(lts)
    dist = terminal_distribution(lts, lts.initial[0])
    _check_uniform_basis([(lts.nodes[i].context, p) for i, p in dist.items()], n,
                         f"fan-out-{n}")


def check_fanout_trace(trace, n: int) -> None:
    expect(trace.status == "terminated", f"fan-out-{n} trace: status {trace.status}")
    _check_uniform_basis([(c.context, p) for c, p in trace.final], n, f"fan-out-{n} trace")
