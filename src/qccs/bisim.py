"""Decision procedures for strong/weak probabilistic bisimilarity and equality.

All three run on a finite explored transition graph (anything shaped like
lts.Lts).  Matching questions reduce to linear feasibility: combined
transitions are convex-hull membership over class vectors, weak transitions
are two-phase flow problems whose feasible flows correspond exactly to
adversaries realising the move.  Partition refinement solves each distinct
matching question once per refinement: it memoizes verdicts, never witnesses,
under keys that hold exactly what the question's linear program reads.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

from . import lp
from .lts import Action, Tau, format_action

# a failure that passes at this multiple of the tolerance warns as a near tie
_NEAR_TIE_FACTOR = 10.0


def _warn_near_tie(context: str) -> None:
    warnings.warn(
        f"{context} decided within {_NEAR_TIE_FACTOR:g}x of the tolerance; "
        "prefer exact-probability inputs",
        RuntimeWarning,
        stacklevel=3,
    )


# weak-transition labels: a visible Action, or one of these sentinels
TAU_HAT = "tau-hat"        # zero or more internal moves
TAU_STRICT = "tau-strict"  # at least one internal move


@dataclass
class Partition:
    block_of: list

    @property
    def block_count(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> list:
        out = [[] for _ in range(self.block_count)]
        for node, b in enumerate(self.block_of):
            out[b].append(node)
        return out

    def split(self, block_id: int, members_in: set) -> "Partition":
        new = list(self.block_of)
        fresh = self.block_count
        for node, b in enumerate(new):
            if b == block_id and node not in members_in:
                new[node] = fresh
        return Partition(new)


def class_vector(targets, partition: Partition) -> tuple:
    """Mass a distribution (as ((node, p), ...)) places on each block."""
    vec = [0.0] * partition.block_count
    for node, p in targets:
        vec[partition.block_of[node]] += p
    return tuple(vec)


def weak_reach_feasible(lts, source: int, label, target, partition: Partition,
                        tol: float = lp.TOL):
    """Flow witness for `source ==label==> some nu with class vector target`
    (per-block mass), or None when no adversary can realise it.  `label` is
    TAU_HAT, TAU_STRICT or a visible Action."""
    return _flow_feasible(lts, source, label, partition.block_of, list(target), tol,
                          _reachable(lts, source))


def _reachable(lts, source: int) -> list:
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for _, targets in lts.node_edges(u):
            for v, _ in targets:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return sorted(seen)


def _flow_feasible(lts, source: int, label, group_of, targets, tol: float, nodes: list):
    """Feasibility core shared by all weak queries.

    Mass 1 enters at `source`, moves along tau edges (splitting by each
    edge's fixed probabilities), crosses one `label` edge when the label is
    visible, and is absorbed at nodes; absorbed mass per group must equal
    `targets`.  `nodes` is _reachable(lts, source); group_of[v], read for
    those nodes only, is the absorption group of v or None when v may not
    absorb.
    """
    tau_edges = []
    act_edges = []
    for u in nodes:
        for k, (action, tg) in enumerate(lts.node_edges(u)):
            if isinstance(action, Tau):
                tau_edges.append((u, k, tg))
            elif label not in (TAU_HAT, TAU_STRICT) and action == label:
                act_edges.append((u, k, tg))

    two_phase = label not in (TAU_HAT, TAU_STRICT)
    prog = lp.LinearProgram([])
    names = prog.variables

    def var(name):
        names.append(name)
        return name

    y1 = {(u, k): var(f"y_{u}_{k}") for u, k, _ in tau_edges}
    x = {(u, k): var(f"x_{u}_{k}") for u, k, _ in act_edges} if two_phase else {}
    y2 = {(u, k): var(f"z_{u}_{k}") for u, k, _ in tau_edges} if two_phase else {}
    absorb = {}
    for v in nodes:
        if group_of[v] is not None:
            if label == TAU_STRICT and v == source:
                continue  # the unit at the source must take a real internal move
            absorb[v] = var(f"a_{v}")

    # conservation per node: inflow + injected - outflow - absorption = 0,
    # with the injected unit moved to the right-hand side
    if not two_phase:
        rows = {v: {} for v in nodes}
        for (u, k, tg) in tau_edges:
            fv = y1[(u, k)]
            rows[u][fv] = rows[u].get(fv, 0.0) - 1.0
            for v, p in tg:
                rows[v][fv] = rows[v].get(fv, 0.0) + p
        for v in nodes:
            if v in absorb:
                rows[v][absorb[v]] = rows[v].get(absorb[v], 0.0) - 1.0
            prog.constrain(rows[v], -1.0 if v == source else 0.0)
    else:
        # phase 1: tau flows feed the visible edges
        rows = {v: {} for v in nodes}
        for (u, k, tg) in tau_edges:
            fv = y1[(u, k)]
            rows[u][fv] = rows[u].get(fv, 0.0) - 1.0
            for v, p in tg:
                rows[v][fv] = rows[v].get(fv, 0.0) + p
        for (u, k, _) in act_edges:
            fv = x[(u, k)]
            rows[u][fv] = rows[u].get(fv, 0.0) - 1.0
        for v in nodes:
            prog.constrain(rows[v], -1.0 if v == source else 0.0)
        # phase 2: visible-edge output plus tau flows end in absorption
        rows = {v: {} for v in nodes}
        for (u, k, tg) in act_edges:
            fv = x[(u, k)]
            for v, p in tg:
                rows[v][fv] = rows[v].get(fv, 0.0) + p
        for (u, k, tg) in tau_edges:
            fv = y2[(u, k)]
            rows[u][fv] = rows[u].get(fv, 0.0) - 1.0
            for v, p in tg:
                rows[v][fv] = rows[v].get(fv, 0.0) + p
        for v in nodes:
            if v in absorb:
                rows[v][absorb[v]] = rows[v].get(absorb[v], 0.0) - 1.0
            prog.constrain(rows[v], 0.0)

    groups = sorted({g for g in (group_of[v] for v in nodes) if g is not None}
                    | {g for g, t in enumerate(targets) if abs(t) > 0})
    for g in groups:
        row = {absorb[v]: 1.0 for v in nodes if group_of[v] == g and v in absorb}
        prog.constrain(row, targets[g] if g < len(targets) else 0.0)

    if any(t < -tol for t in targets):
        return None
    witness = lp.feasible(prog, tol)
    if witness is None:
        return None
    witness["_constraints"] = len(prog.constraints)
    return witness


def weak_terminates_in(lts, source: int, stuck_rep: int, tol: float = lp.TOL):
    """Can `source` internally evolve, with probability one, into stuck
    configurations whose context equals that of `stuck_rep`?"""
    nodes = _reachable(lts, source)
    return _flow_feasible(lts, source, TAU_HAT, _terminal_groups(lts, stuck_rep, nodes),
                          [1.0], tol, nodes)


def _terminal_groups(lts, stuck_rep: int, nodes: list) -> dict:
    """Absorption groups of weak_terminates_in: group 0 for the stuck nodes
    whose context equals that of `stuck_rep`, None for the rest."""
    return {
        v: 0 if (lts.stuck(v) and lts.terminal_equal(v, stuck_rep)) else None
        for v in nodes
    }


def _query_size(lts, node: int, kind: str, action, partition: Partition, mode: str) -> int:
    """Constraint count of the infeasible matching query (certificate size)."""
    if mode == "strong":
        return 1 + partition.block_count
    if kind == "termination":
        return len(_reachable(lts, node)) + 1
    reach = len(_reachable(lts, node))
    phases = 1 if isinstance(action, Tau) else 2
    return reach * phases + partition.block_count


# -- matching predicates --

_HULL_TIE = "combined-transition matching"
_FLOW_TIE = "weak-transition matching"


def _with_near_tie(solve, tol: float):
    """(solve(tol), near_tie), where near_tie says that solve failed at tol
    but succeeds at _NEAR_TIE_FACTOR * tol."""
    result = solve(tol)
    return result, result is None and solve(_NEAR_TIE_FACTOR * tol) is not None


def _warned(solve, tol: float, context: str):
    result, near_tie = _with_near_tie(solve, tol)
    if near_tie:
        _warn_near_tie(context)
    return result


def _hull_solver(points, vec: tuple):
    """Combined-transition matching of class vector `vec` by the class
    vectors `points` of a node's moves, as a function of the tolerance."""
    return lambda tol: lp.convex_hull_member(points, list(vec), tol) if points else None


def _weak_label(action: Action, strict: bool = False):
    if isinstance(action, Tau):
        return TAU_STRICT if strict else TAU_HAT
    return action


def _strong_match(lts, node: int, action: Action, vec: tuple, partition: Partition, tol: float):
    points = [class_vector(tg, partition) for tg in lts.successors(node, action)]
    return _warned(_hull_solver(points, vec), tol, _HULL_TIE)


def _weak_match(lts, node: int, action: Action, vec: tuple, partition: Partition, tol: float,
                strict: bool = False):
    label = _weak_label(action, strict)
    return _warned(lambda t: weak_reach_feasible(lts, node, label, vec, partition, t),
                   tol, _FLOW_TIE)


def _packed(ints, floats) -> bytes:
    """The ints and the bit patterns of the floats, as one memo key."""
    return struct.pack(f"{len(ints)}q{len(floats)}d", *ints, *floats)


class _Verdicts:
    """The matching verdicts of one refinement, each question solved once.

    A key holds exactly what the question's linear program reads, with floats
    compared bit for bit, so a hit is the same program and so the same answer.
    Keys are packed into bytes and only the verdict is kept, never a witness:
    keys built of small tuples raised the peak memory of repeated 54-node
    teleportation checks by 2.5 MB, as the interpreter keeps freed small
    tuples for reuse.  A verdict is True, False, or _NEAR_TIE for a failure
    within _NEAR_TIE_FACTOR of the tolerance, which warns again on every hit,
    as a fresh solve would.  The reachable set of each source and the
    termination groups of each owner are kept for the same lifetime.
    """

    _NEAR_TIE = "near tie"

    def __init__(self, lts, tol: float):
        self.lts = lts
        self.tol = tol
        self.known: dict = {}
        self.reach: dict = {}
        self.ends: dict = {}

    def _ask(self, key, solve, context: str | None) -> bool:
        verdict = self.known.get(key)
        if verdict is None:
            if context is None:
                verdict = solve(self.tol) is not None
            else:
                result, near_tie = _with_near_tie(solve, self.tol)
                verdict = self._NEAR_TIE if near_tie else result is not None
            self.known[key] = verdict
        if verdict is self._NEAR_TIE:
            _warn_near_tie(context)
            return False
        return verdict

    def _reachable(self, node: int) -> list:
        nodes = self.reach.get(node)
        if nodes is None:
            nodes = self.reach[node] = _reachable(self.lts, node)
        return nodes

    def strong(self, node: int, action: Action, vec: tuple, partition: Partition) -> bool:
        points = [class_vector(tg, partition) for tg in self.lts.successors(node, action)]
        key = _packed((len(vec),), [x for vector in (vec, *points) for x in vector])
        return self._ask(key, _hull_solver(points, vec), _HULL_TIE)

    def weak(self, node: int, action: Action, vec: tuple, partition: Partition) -> bool:
        label = _weak_label(action)
        nodes = self._reachable(node)
        block_of = partition.block_of
        # the absorption groups in the order _flow_feasible writes their rows,
        # renumbered by rank so that splits elsewhere leave the key alone
        groups = sorted({block_of[v] for v in nodes}
                        | {g for g, t in enumerate(vec) if abs(t) > 0})
        rank = {g: r for r, g in enumerate(groups)}
        key = (node, label, _packed([rank[block_of[v]] for v in nodes], [vec[g] for g in groups]))
        return self._ask(
            key,
            lambda t: _flow_feasible(self.lts, node, label, block_of, list(vec), t, nodes),
            _FLOW_TIE,
        )

    def terminates(self, node: int, owner: int) -> bool:
        # weak_terminates_in reads no partition, only which nodes reachable
        # from `node` may absorb; owners with equal contexts share programs
        ends = self.ends.get(owner)
        if ends is None:
            ends = self.ends[owner] = _terminal_groups(self.lts, owner,
                                                       range(self.lts.node_count))
        nodes = self._reachable(node)
        return self._ask(
            (node, _packed([v for v in nodes if ends[v] == 0], ())),
            lambda t: _flow_feasible(self.lts, node, TAU_HAT, ends, [1.0], t, nodes),
            None,
        )


# -- partition refinement --


@dataclass
class SplitEvent:
    owner: int          # node whose requirement split the block
    loser: int          # first member that failed it
    kind: str           # 'move' | 'termination'
    action: Action | None
    vector: tuple | None
    lp_size: int


@dataclass
class BisimResult:
    mode: str
    equivalent: bool
    left: int
    right: int
    partition: Partition
    witness: list = field(default_factory=list)
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out = {
            "format": "qccs-verdict",
            "version": 1,
            "mode": self.mode,
            "verdict": "equivalent" if self.equivalent else "distinguished",
            "left": self.left,
            "right": self.right,
            "blocks": self.partition.blocks(),
        }
        if self.equivalent:
            out["witness"] = self.witness
        else:
            out["counterexample"] = self.counterexample
        return out


def _initial_strong(lts) -> Partition:
    block_of = [-1] * lts.node_count
    stuck_reps: list = []
    for v in range(lts.node_count):
        if not lts.stuck(v):
            continue
        for b, rep in stuck_reps:
            if lts.terminal_equal(v, rep):
                block_of[v] = b
                break
        else:
            stuck_reps.append((len(stuck_reps), v))
            block_of[v] = len(stuck_reps) - 1
    active = len(stuck_reps)
    for v in range(lts.node_count):
        if block_of[v] < 0:
            block_of[v] = active
    return Partition(_compact(block_of))


def _compact(block_of: list) -> list:
    remap: dict = {}
    out = []
    for b in block_of:
        if b not in remap:
            remap[b] = len(remap)
        out.append(remap[b])
    return out


def _refine(lts, partition: Partition, mode: str, tol: float, watch: tuple | None = None):
    """Split blocks until stable; returns (partition, first split separating
    the watched pair, if any).  In 'strong' mode moves are matched by combined
    moves; in 'weak' mode by weak moves, and stuck nodes must also be matched
    by internal termination."""
    verdicts = _Verdicts(lts, tol)
    match = verdicts.strong if mode == "strong" else verdicts.weak
    termination_check = mode != "strong"
    first_watch_split = None
    while True:
        changed = False
        for block_id, members in enumerate(partition.blocks()):
            if len(members) < 2:
                continue
            for owner in members:
                conditions = []
                for action, targets in lts.node_edges(owner):
                    vec = class_vector(targets, partition)
                    conditions.append(("move", action, vec))
                if termination_check and lts.stuck(owner):
                    conditions.append(("termination", None, None))
                for kind, action, vec in conditions:
                    if kind == "move":
                        sat = {m for m in members if match(m, action, vec, partition)}
                    else:
                        sat = {m for m in members if verdicts.terminates(m, owner)}
                    if sat and len(sat) < len(members):
                        losers = [m for m in members if m not in sat]
                        if watch and {watch[0], watch[1]} <= set(members):
                            on_left = watch[0] in sat
                            on_right = watch[1] in sat
                            if on_left != on_right and first_watch_split is None:
                                lp_size = _query_size(lts, losers[0], kind, action, partition, mode)
                                first_watch_split = SplitEvent(
                                    owner, losers[0], kind, action, vec, lp_size
                                )
                        partition = partition.split(block_id, sat)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
        if not changed:
            return partition, first_watch_split


def _matchings_for_pair(lts, i: int, j: int, partition: Partition, match, tol: float) -> list:
    """How each move of i is matched by j (and vice versa) at the fixpoint."""
    out = []
    for a, b, side in ((i, j, "left"), (j, i, "right")):
        for action, targets in lts.node_edges(a):
            vec = class_vector(targets, partition)
            w = match(lts, b, action, vec, partition, tol)
            entry = {
                "from": side,
                "node": a,
                "action": format_action(action),
                "class_vector": list(vec),
            }
            if isinstance(w, list):
                entry["weights"] = [round(x, 12) for x in w]
                entry["partners"] = [
                    [[n, p] for n, p in tg] for tg in lts.successors(b, action)
                ]
            elif isinstance(w, dict):
                entry["flow"] = {
                    k: round(v, 12)
                    for k, v in w.items()
                    if not k.startswith("_") and abs(v) > 1e-10
                }
            out.append(entry)
    return out


def strong_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Strong probabilistic bisimilarity by partition refinement.

    Every ordinary move must be matched by a combined move with the same
    class vector; stuck configurations must have equal contexts.
    """
    partition = _initial_strong(lts)
    separated_at_start = partition.block_of[left] != partition.block_of[right]
    partition, split = _refine(lts, partition, "strong", tol, watch=(left, right))
    equivalent = partition.block_of[left] == partition.block_of[right]
    if equivalent:
        witness = _matchings_for_pair(lts, left, right, partition, _strong_match, tol)
        return BisimResult("strong", True, left, right, partition, witness=witness)
    counter = (_initial_counterexample(lts, left, right) if separated_at_start
               else _split_counterexample(split))
    return BisimResult("strong", False, left, right, partition, counterexample=counter)


def weak_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Weak probabilistic bisimilarity: ordinary moves are matched by weak
    (tau-abstracted) moves; mutually stuck configurations need equal contexts."""
    partition = Partition([0] * lts.node_count)
    partition, split = _refine(lts, partition, "weak", tol, watch=(left, right))
    equivalent = partition.block_of[left] == partition.block_of[right]
    if equivalent:
        witness = _matchings_for_pair(lts, left, right, partition, _weak_match, tol)
        return BisimResult("weak", True, left, right, partition, witness=witness)
    return BisimResult("weak", False, left, right, partition,
                       counterexample=_split_counterexample(split))


def equality_check(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Equality: weak bisimilarity where a tau move must be answered by a weak
    move containing at least one real internal step (single top-level round
    against the weak partition)."""
    partition = Partition([0] * lts.node_count)
    partition, _ = _refine(lts, partition, "weak", tol)

    def strict_match(a, b):
        for action, targets in lts.node_edges(a):
            vec = class_vector(targets, partition)
            w = _weak_match(lts, b, action, vec, partition, tol, strict=True)
            if w is None:
                return {
                    "pair": [a, b],
                    "action": format_action(action),
                    "class_vector": list(vec),
                    "reason": "no strict weak match",
                }
        return None

    counter = strict_match(left, right) or strict_match(right, left)
    if counter is None and lts.stuck(left) and lts.stuck(right):
        if not lts.terminal_equal(left, right):
            counter = {"pair": [left, right], "reason": "terminal contexts differ"}
    if counter is None:
        witness = _matchings_for_pair(
            lts, left, right, partition,
            lambda l, n, a, v, p, t: _weak_match(l, n, a, v, p, t, strict=True), tol,
        )
        return BisimResult("eq", True, left, right, partition, witness=witness)
    return BisimResult("eq", False, left, right, partition, counterexample=counter)


def _initial_counterexample(lts, left: int, right: int) -> dict:
    both_stuck = lts.stuck(left) and lts.stuck(right)
    if both_stuck:
        return {"pair": [left, right], "reason": "terminal contexts differ"}
    stuck = left if lts.stuck(left) else right
    other = right if stuck == left else left
    return {
        "pair": [left, right],
        "reason": f"node {stuck} is stuck (its context must match) while node {other} can move",
    }


def _split_counterexample(split: SplitEvent | None) -> dict:
    if split is None:
        return {"reason": "nodes separated transitively during refinement"}
    out = {
        "pair": [split.owner, split.loser],
        "kind": split.kind,
        "lp_constraints": split.lp_size,
    }
    if split.kind == "move":
        out["action"] = format_action(split.action)
        out["class_vector"] = list(split.vector)
        out["reason"] = (
            f"node {split.loser} has no matching move for "
            f"{format_action(split.action)} with the given class vector"
        )
    else:
        out["reason"] = (
            f"node {split.loser} cannot internally reach, with probability one, "
            f"stuck configurations with the required context"
        )
    return out
