"""Decision procedures for strong/weak probabilistic bisimilarity and equality.

All three run on a finite explored transition graph (anything shaped like
lts.Lts).  Matching questions reduce to linear feasibility: combined
transitions are convex-hull membership over class vectors, weak transitions
are two-phase flow problems whose feasible flows correspond exactly to
adversaries realising the move.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import lp
from .lts import Action, Tau, format_action

CLASS_TOL = 1e-7
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


def dist_equiv(mu, nu, partition: Partition, tol: float = CLASS_TOL) -> bool:
    """Distributions are equivalent under a partition iff their class vectors agree."""
    a, b = class_vector(mu, partition), class_vector(nu, partition)
    worst = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    if tol < worst <= _NEAR_TIE_FACTOR * tol:
        _warn_near_tie("class-vector comparison")
    return worst <= tol


def weak_reach_feasible(lts, source: int, label, target, partition: Partition,
                        tol: float = CLASS_TOL):
    """Flow witness for `source ==label==> some nu with class vector target`
    (per-block mass), or None when no adversary can realise it.  `label` is
    TAU_HAT, TAU_STRICT or a visible Action."""
    return _flow_feasible(lts, source, label, list(partition.block_of), list(target), tol)


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


def _flow_feasible(lts, source: int, label, group_of, targets, tol: float):
    """Feasibility core shared by all weak queries.

    Mass 1 enters at `source`, moves along tau edges (splitting by each
    edge's fixed probabilities), crosses one `label` edge when the label is
    visible, and is absorbed at nodes; absorbed mass per group must equal
    `targets`.  group_of[v] is the absorption group of node v or None when v
    may not absorb.
    """
    nodes = _reachable(lts, source)
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


def weak_terminates_in(lts, source: int, stuck_rep: int, tol: float = CLASS_TOL):
    """Can `source` internally evolve, with probability one, into stuck
    configurations whose context equals that of `stuck_rep`?"""
    group_of = [
        0 if (lts.stuck(v) and lts.terminal_equal(v, stuck_rep)) else None
        for v in range(lts.node_count)
    ]
    return _flow_feasible(lts, source, TAU_HAT, group_of, [1.0], tol)


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


def _strong_match(lts, node: int, action: Action, vec: tuple, partition: Partition, tol: float):
    points = [class_vector(tg, partition) for tg in lts.successors(node, action)]
    if not points:
        return None
    result = lp.convex_hull_member(points, list(vec), tol)
    if result is None and lp.convex_hull_member(points, list(vec), _NEAR_TIE_FACTOR * tol):
        _warn_near_tie("combined-transition matching")
    return result


def _weak_match(lts, node: int, action: Action, vec: tuple, partition: Partition, tol: float,
                strict: bool = False):
    if isinstance(action, Tau):
        label = TAU_STRICT if strict else TAU_HAT
    else:
        label = action
    result = weak_reach_feasible(lts, node, label, vec, partition, tol)
    if result is None and weak_reach_feasible(lts, node, label, vec, partition,
                                              _NEAR_TIE_FACTOR * tol):
        _warn_near_tie("weak-transition matching")
    return result


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


def _initial_strong(lts, tol: float) -> Partition:
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


def _refine(lts, partition: Partition, match, termination_check, tol: float,
            watch: tuple | None = None, mode: str = "weak"):
    """Split blocks until stable; returns (partition, first split separating
    the watched pair, if any)."""
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
                    sat = set()
                    for m in members:
                        if kind == "move":
                            w = match(lts, m, action, vec, partition, tol)
                        else:
                            w = weak_terminates_in(lts, m, owner, tol)
                        if w is not None:
                            sat.add(m)
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


def strong_bisim(lts, left: int, right: int, tol: float = CLASS_TOL) -> BisimResult:
    """Strong probabilistic bisimilarity by partition refinement.

    Every ordinary move must be matched by a combined move with the same
    class vector; stuck configurations must have equal contexts.
    """
    partition = _initial_strong(lts, tol)
    separated_at_start = partition.block_of[left] != partition.block_of[right]
    partition, split = _refine(lts, partition, _strong_match, False, tol,
                                watch=(left, right), mode="strong")
    equivalent = partition.block_of[left] == partition.block_of[right]
    if equivalent:
        witness = _matchings_for_pair(lts, left, right, partition, _strong_match, tol)
        return BisimResult("strong", True, left, right, partition, witness=witness)
    counter = (_initial_counterexample(lts, left, right) if separated_at_start
               else _split_counterexample(split))
    return BisimResult("strong", False, left, right, partition, counterexample=counter)


def weak_bisim(lts, left: int, right: int, tol: float = CLASS_TOL) -> BisimResult:
    """Weak probabilistic bisimilarity: ordinary moves are matched by weak
    (tau-abstracted) moves; mutually stuck configurations need equal contexts."""
    partition = Partition([0] * lts.node_count)
    partition, split = _refine(lts, partition, _weak_match, True, tol, watch=(left, right))
    equivalent = partition.block_of[left] == partition.block_of[right]
    if equivalent:
        witness = _matchings_for_pair(lts, left, right, partition, _weak_match, tol)
        return BisimResult("weak", True, left, right, partition, witness=witness)
    return BisimResult("weak", False, left, right, partition,
                       counterexample=_split_counterexample(split))


def equality_check(lts, left: int, right: int, tol: float = CLASS_TOL) -> BisimResult:
    """Equality: weak bisimilarity where a tau move must be answered by a weak
    move containing at least one real internal step (single top-level round
    against the weak partition)."""
    partition = Partition([0] * lts.node_count)
    partition, _ = _refine(lts, partition, _weak_match, True, tol)

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
