"""Decision procedures for strong/weak probabilistic bisimilarity and equality.

All three run on a finite explored transition graph (anything shaped like
lts.Lts).  Matching questions reduce to linear feasibility: combined
transitions are convex-hull membership over class vectors, weak transitions
are two-phase flow problems whose feasible flows correspond exactly to
adversaries realising the move.  One _Matcher builds every matching question,
for refinement, for witnesses and for `eq`'s strict round.  Refinement asks
it for verdicts, memoized under keys that hold exactly what the question's
linear program reads, so each distinct question is solved once; witnesses
are solved afresh.  _first_split finds the next split by a restart scan.

One generator, _requirements, lists what a node asks of its block.
Refinement splits on it, and a `distinguished` verdict is explained by the
first requirement of one node that the other fails over the final
partition, so the counterexample does not depend on the order of splits.
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
    if any(t < -tol for t in targets):
        return None
    two_phase = label not in (TAU_HAT, TAU_STRICT)
    tau_edges = []
    act_edges = []
    for u in nodes:
        for k, (action, tg) in enumerate(lts.node_edges(u)):
            if isinstance(action, Tau):
                tau_edges.append((u, k, tg))
            elif two_phase and action == label:
                act_edges.append((u, k, tg))

    prog = lp.LinearProgram([])
    names = prog.variables

    def var(name):
        names.append(name)
        return name

    y1 = {(u, k): var(f"y_{u}_{k}") for u, k, _ in tau_edges}
    x = {(u, k): var(f"x_{u}_{k}") for u, k, _ in act_edges}
    y2 = {(u, k): var(f"z_{u}_{k}") for u, k, _ in tau_edges} if two_phase else {}
    absorb = {}
    for v in nodes:
        if group_of[v] is not None:
            if label == TAU_STRICT and v == source:
                continue  # the unit at the source must take a real internal move
            absorb[v] = var(f"a_{v}")

    def conserve(flows, absorbing: bool, at_source: float):
        # conservation per node: inflow + injected - outflow - absorption = 0,
        # with the injected unit moved to the right-hand side as `at_source`;
        # each flow is (edges, their variables, leaves u?, arrives at targets?)
        rows = {v: {} for v in nodes}
        for edges, flow, leaves, arrives in flows:
            for u, k, tg in edges:
                fv = flow[(u, k)]
                if leaves:
                    rows[u][fv] = rows[u].get(fv, 0.0) - 1.0
                for v, p in tg if arrives else ():
                    rows[v][fv] = rows[v].get(fv, 0.0) + p
        for v in nodes:
            if absorbing and v in absorb:
                rows[v][absorb[v]] = rows[v].get(absorb[v], 0.0) - 1.0
            prog.constrain(rows[v], at_source if v == source else 0.0)

    if two_phase:
        # phase 1: tau flows feed the visible edges; phase 2: visible-edge
        # output plus tau flows end in absorption
        conserve([(tau_edges, y1, True, True), (act_edges, x, True, False)], False, -1.0)
        conserve([(act_edges, x, False, True), (tau_edges, y2, True, True)], True, 0.0)
    else:
        conserve([(tau_edges, y1, True, True)], True, -1.0)

    groups = sorted({g for g in (group_of[v] for v in nodes) if g is not None}
                    | {g for g, t in enumerate(targets) if abs(t) > 0})
    for g in groups:
        row = {absorb[v]: 1.0 for v in nodes if group_of[v] == g and v in absorb}
        prog.constrain(row, targets[g] if g < len(targets) else 0.0)

    return lp.feasible(prog, tol)


def weak_terminates_in(lts, source: int, stuck_rep: int, tol: float = lp.TOL):
    """Can `source` internally evolve, with probability one, into stuck
    configurations whose context equals that of `stuck_rep`?"""
    nodes = _reachable(lts, source)
    return _flow_feasible(lts, source, TAU_HAT, _terminal_groups(lts, stuck_rep, nodes),
                          [1.0], tol, nodes)


def _terminal_groups(lts, stuck_rep: int, nodes: list) -> dict:
    """Absorption groups of weak_terminates_in: group 0 for the stuck nodes
    whose context equals that of `stuck_rep`, None for the rest."""
    ends = set(lts.terminal_matches(stuck_rep))
    return {v: 0 if v in ends else None for v in nodes}


# -- matching questions --

_HULL_TIE = "combined-transition matching"
_FLOW_TIE = "weak-transition matching"


def _solve(solve, tol: float, context: str | None):
    """(solve(tol), near_tie), where near_tie says that solve failed at tol
    but succeeds at _NEAR_TIE_FACTOR * tol.  A question without a near-tie
    context (termination) is solved once and is never a near tie."""
    result = solve(tol)
    near_tie = (context is not None and result is None
                and solve(_NEAR_TIE_FACTOR * tol) is not None)
    return result, near_tie


def _packed(ints, floats) -> bytes:
    """The ints and the bit patterns of the floats, as one memo key."""
    return struct.pack(f"{len(ints)}q{len(floats)}d", *ints, *floats)


class _Matcher:
    """Every matching question of one check, built in one place: can `node`
    meet a requirement (see _requirements) of `owner`?  In 'strong' mode a
    move is answered by a combined move, in 'weak' mode by a weak move, which
    for a strict tau move takes at least one real internal step.

    holds() solves each distinct question once.  A key holds exactly what the
    question's linear program reads, with floats compared bit for bit, so a
    hit is the same program and so the same answer.  Keys are packed into
    bytes and only the verdict is kept, never a witness: keys built of small
    tuples raised the peak memory of repeated 54-node teleportation checks by
    2.5 MB, as the interpreter keeps freed small tuples for reuse.  A verdict
    is True, False, or _NEAR_TIE for a failure within _NEAR_TIE_FACTOR of the
    tolerance, which warns again on every hit, as a fresh solve would.
    witness() solves afresh and returns the hull weights or the flow.  The
    reachable set of each source and the termination groups of each owner
    are kept for the matcher's lifetime.
    """

    _NEAR_TIE = "near tie"

    def __init__(self, lts, mode: str, tol: float):
        self.lts = lts
        self.mode = mode
        self.tol = tol
        self.known: dict = {}
        self.reach: dict = {}
        self.ends: dict = {}

    def _reachable(self, node: int) -> list:
        nodes = self.reach.get(node)
        if nodes is None:
            nodes = self.reach[node] = _reachable(self.lts, node)
        return nodes

    def question(self, node: int, owner: int | None, requirement: tuple, partition: Partition,
                 strict: bool = False):
        """(memo key, solve at a tolerance, near-tie context, constraint
        count of the linear program) of one question: can `node` meet
        `requirement`?  Only a termination requirement reads `owner`."""
        action, vec = requirement
        if action is None:
            # weak_terminates_in reads no partition, only which nodes reachable
            # from `node` may absorb; owners with equal contexts share programs
            ends = self.ends.get(owner)
            if ends is None:
                ends = self.ends[owner] = _terminal_groups(self.lts, owner,
                                                           range(self.lts.node_count))
            nodes = self._reachable(node)
            return ((node, _packed([v for v in nodes if ends[v] == 0], ())),
                    lambda t: _flow_feasible(self.lts, node, TAU_HAT, ends, [1.0], t, nodes),
                    None, len(nodes) + 1)
        if self.mode == "strong":
            points = [class_vector(tg, partition) for tg in self.lts.successors(node, action)]
            return (_packed((len(vec),), [x for vector in (vec, *points) for x in vector]),
                    lambda t: lp.convex_hull_member(points, list(vec), t) if points else None,
                    _HULL_TIE, 1 + len(vec))
        label = (TAU_STRICT if strict else TAU_HAT) if isinstance(action, Tau) else action
        nodes = self._reachable(node)
        block_of = partition.block_of
        # the absorption groups in the order _flow_feasible writes their rows,
        # renumbered by rank so that splits elsewhere leave the key alone
        groups = sorted({block_of[v] for v in nodes}
                        | {g for g, t in enumerate(vec) if abs(t) > 0})
        rank = {g: r for r, g in enumerate(groups)}
        key = (node, label, _packed([rank[block_of[v]] for v in nodes], [vec[g] for g in groups]))
        # one conservation row per reachable node and phase, one row per group
        phases = 1 if isinstance(action, Tau) else 2
        return (key,
                lambda t: _flow_feasible(self.lts, node, label, block_of, list(vec), t, nodes),
                _FLOW_TIE, phases * len(nodes) + len(groups))

    def ask(self, question) -> bool:
        key, solve, context, _ = question
        verdict = self.known.get(key)
        if verdict is None:
            result, near_tie = _solve(solve, self.tol, context)
            verdict = self._NEAR_TIE if near_tie else result is not None
            self.known[key] = verdict
        if verdict is self._NEAR_TIE:
            _warn_near_tie(context)
            return False
        return verdict

    def holds(self, node: int, owner: int, requirement: tuple, partition: Partition) -> bool:
        return self.ask(self.question(node, owner, requirement, partition))

    def witness(self, node: int, action: Action, vec: tuple, partition: Partition,
                strict: bool = False):
        _, solve, context, _ = self.question(node, None, (action, vec), partition, strict)
        result, near_tie = _solve(solve, self.tol, context)
        if near_tie:
            _warn_near_tie(context)
        return result


def _requirements(matcher: _Matcher, owner: int, partition: Partition):
    """What `owner` asks of every node in its block, in order: each move as
    (action, class vector), then, for a stuck owner in 'weak' mode, internal
    termination in its context as (None, None)."""
    lts = matcher.lts
    for action, targets in lts.node_edges(owner):
        yield action, class_vector(targets, partition)
    if matcher.mode != "strong" and lts.stuck(owner):
        yield None, None


# -- partition refinement --


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
    """One block for the nodes that can move, and blocks of stuck nodes: in
    id order, a stuck node not yet placed heads a new block, which takes
    every unplaced stuck node whose context equals the head's.  So each stuck
    node joins the lowest head within ATOL of it."""
    block_of = [-1] * lts.node_count
    active = 0
    for v in range(lts.node_count):
        if lts.stuck(v) and block_of[v] < 0:
            block_of[v] = active
            for u in lts.terminal_matches(v, lambda u: u > v and block_of[u] < 0):
                block_of[u] = active
            active += 1
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


def _first_split(matcher: _Matcher, partition: Partition):
    """The first requirement that some but not all members of a block meet,
    as (block id, members meeting it), or None when the partition is stable.
    Blocks, owners and each owner's requirements are scanned in order."""
    for block_id, members in enumerate(partition.blocks()):
        if len(members) < 2:
            continue
        for owner in members:
            for requirement in _requirements(matcher, owner, partition):
                sat = {m for m in members if matcher.holds(m, owner, requirement, partition)}
                if sat and len(sat) < len(members):
                    return block_id, sat
    return None


def _refine(matcher: _Matcher, partition: Partition) -> Partition:
    """Split blocks until stable, asking `matcher` whether members meet each
    requirement."""
    while split := _first_split(matcher, partition):
        partition = partition.split(*split)
    return partition


def _matchings_for_pair(matcher: _Matcher, i: int, j: int, partition: Partition,
                        strict: bool = False) -> list:
    """How each move of i is matched by j (and vice versa) at the fixpoint;
    a move left unmatched has neither `weights` nor `flow`."""
    lts = matcher.lts
    out = []
    for a, b, side in ((i, j, "left"), (j, i, "right")):
        for action, targets in lts.node_edges(a):
            vec = class_vector(targets, partition)
            w = matcher.witness(b, action, vec, partition, strict)
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
                entry["flow"] = {k: round(v, 12) for k, v in w.items() if abs(v) > 1e-10}
            out.append(entry)
    return out


def _terminal_mismatch(lts, left: int, right: int) -> dict | None:
    if lts.stuck(left) and lts.stuck(right) and not lts.terminal_equal(left, right):
        return {"pair": [left, right], "reason": "terminal contexts differ"}
    return None


def _counterexample(matcher: _Matcher, left: int, right: int, partition: Partition) -> dict:
    """Why `left` and `right` lie in different blocks of the final partition:
    the first requirement of `left`, then of `right`, that the other node
    fails over those blocks.  For strong checks one exists unless both nodes
    are stuck, since combined moves compose (Segala 1995); the last resort
    is 'separated transitively'."""
    for owner, partner in ((left, right), (right, left)):
        for requirement in _requirements(matcher, owner, partition):
            question = matcher.question(partner, owner, requirement, partition)
            if not matcher.ask(question):
                return _failed_requirement(owner, partner, requirement, question[3])
    return (_terminal_mismatch(matcher.lts, left, right)
            or {"reason": "nodes separated transitively during refinement"})


def _failed_requirement(owner: int, partner: int, requirement: tuple, rows: int) -> dict:
    action, vec = requirement
    out = {
        "pair": [owner, partner],
        "kind": "termination" if action is None else "move",
        "lp_constraints": rows,
    }
    if action is None:
        out["reason"] = (
            f"node {partner} cannot internally reach, with probability one, "
            f"stuck configurations with the required context"
        )
    else:
        out["action"] = format_action(action)
        out["class_vector"] = list(vec)
        out["reason"] = (
            f"node {partner} has no matching move for "
            f"{format_action(action)} with the given class vector"
        )
    return out


def _check(lts, left: int, right: int, partition: Partition, mode: str,
           tol: float) -> BisimResult:
    matcher = _Matcher(lts, mode, tol)
    partition = _refine(matcher, partition)
    if partition.block_of[left] == partition.block_of[right]:
        witness = _matchings_for_pair(matcher, left, right, partition)
        return BisimResult(mode, True, left, right, partition, witness=witness)
    return BisimResult(mode, False, left, right, partition,
                       counterexample=_counterexample(matcher, left, right, partition))


def strong_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Strong probabilistic bisimilarity by partition refinement.

    Every ordinary move must be matched by a combined move with the same
    class vector; stuck configurations must have equal contexts.
    """
    return _check(lts, left, right, _initial_strong(lts), "strong", tol)


def weak_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Weak probabilistic bisimilarity: ordinary moves are matched by weak
    (tau-abstracted) moves; mutually stuck configurations need equal contexts."""
    return _check(lts, left, right, Partition([0] * lts.node_count), "weak", tol)


def equality_check(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Equality: weak bisimilarity where a tau move must be answered by a weak
    move containing at least one real internal step (single top-level round
    against the weak partition)."""
    matcher = _Matcher(lts, "weak", tol)
    partition = _refine(matcher, Partition([0] * lts.node_count))
    witness = _matchings_for_pair(matcher, left, right, partition, strict=True)
    unmatched = next((m for m in witness if "flow" not in m), None)
    if unmatched is not None:
        partner = right if unmatched["from"] == "left" else left
        counter = {
            "pair": [unmatched["node"], partner],
            "action": unmatched["action"],
            "class_vector": unmatched["class_vector"],
            "reason": "no strict weak match",
        }
    else:
        counter = _terminal_mismatch(lts, left, right)
    if counter is None:
        return BisimResult("eq", True, left, right, partition, witness=witness)
    return BisimResult("eq", False, left, right, partition, counterexample=counter)
