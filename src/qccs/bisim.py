"""Decision procedures for strong/weak probabilistic bisimilarity and equality.

All three run on a finite explored transition graph (anything shaped like
lts.Lts).  Matching questions reduce to linear feasibility: combined
transitions are convex-hull membership over class vectors, weak transitions
are two-phase flow problems whose feasible flows correspond exactly to
adversaries realising the move.  One _Matcher builds every matching question,
for refinement, for witnesses and for `eq`'s strict round.  Refinement asks
it for verdicts and witnesses ask it for moves, both read from one memo
under keys that hold exactly what the question's linear program reads, so
a check solves each distinct program once.  _refine keeps a worklist of
blocks to examine and re-examines a block only when a block that its
questions read has split.

One generator, _requirements, lists what a node asks of its block.
Refinement splits on it, and a `distinguished` verdict is explained by the
first requirement of one node that the other fails over the final
partition, so the counterexample does not depend on the order of splits.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .lts import Action, Tau, format_action

# a failure that passes at this multiple of the tolerance warns as a near tie
_NEAR_TIE_FACTOR = 10.0


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


class _Flows:
    """The linear program of a weak query, in two parts: the flow columns,
    built here once per source and label, read no partition; program() adds
    the absorption columns and group rows of one partition.

    Mass 1 enters at `source`, moves along tau edges (splitting by each
    edge's fixed probabilities), crosses one `label` edge when the label is
    visible, and is absorbed at nodes; absorbed mass per group must equal
    `targets` (a negative target leaves a residual at least its size).
    `nodes` is _reachable(lts, source).

    Columns: a phase-1 flow y_u_k per tau edge, a flow x_u_k per `label`
    edge, a phase-2 flow z_u_k per tau edge, then an absorption a_v per
    absorbing node.  Rows: conservation per node in phase 1, then in phase 2,
    then one row per group.  Only a visible label has the x, z columns and
    phase 2; its phase-1 mass is all absorbed at `label` edges.

    Under TAU_STRICT the unit at the source must take a real internal move,
    so the source absorbs only mass that flowed back into it.  With a tau
    edge back to the source, the source absorbs, and a bound row after the
    conservation rows asks its outflow to be 1 + r_s: the column r_s, after
    the flows, is returned mass that moves on again, so the absorption is
    the inflow less r_s.  With no edge back, the source does not absorb.
    """

    def __init__(self, lts, source: int, label, nodes: list):
        self.lts, self.source, self.label, self.nodes = lts, source, label, nodes
        self.two_phase = two_phase = label not in (TAU_HAT, TAU_STRICT)
        tau_edges, act_edges = self._edges()
        row_of = {v: r for r, v in enumerate(nodes)}
        self.source_row = row_of[source]
        self.phase2 = phase2 = len(nodes) if two_phase else 0
        self.bound = label == TAU_STRICT and any(
            v == source for _, _, tg in tau_edges for v, _ in tg)
        # the rows before the group rows
        self.height = phase2 + len(nodes) + self.bound
        x0 = len(tau_edges)
        z0 = x0 + len(act_edges)
        self.width = z0 + (len(tau_edges) if two_phase else 0) + self.bound

        # conservation per node: inflow + injected - outflow - absorption = 0,
        # with the injected unit moved to the right-hand side; an edge's
        # column gets -1 in the row of u when mass leaves u, then +p in the
        # row of each target v, so a self-loop sums to -1 + p
        rows, cols, vals = [], [], []

        def flow(edges, col0, row0, leaves, arrives):
            for col, (u, _, tg) in enumerate(edges, col0):
                if leaves:
                    rows.append(row0 + row_of[u])
                    cols.append(col)
                    vals.append(-1.0)
                for v, p in tg if arrives else ():
                    rows.append(row0 + row_of[v])
                    cols.append(col)
                    vals.append(p)

        flow(tau_edges, 0, 0, True, True)
        if two_phase:
            # phase 1: tau flows feed the visible edges; phase 2: visible-edge
            # output plus tau flows end in absorption
            flow(act_edges, x0, 0, True, False)
            flow(act_edges, x0, phase2, False, True)
            flow(tau_edges, z0, phase2, True, True)
        if self.bound:
            # the bound row: -outflow + r_s = -1
            out = [col for col, (u, _, _) in enumerate(tau_edges) if u == source]
            rows += [len(nodes)] * (len(out) + 1)
            cols += out + [self.width - 1]
            vals += [-1.0] * len(out) + [1.0]
        self.entries = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                        np.array(vals))

    def _edges(self):
        """(tau edges, `label` edges) out of `nodes`, each as (u, k, targets)."""
        tau_edges, act_edges = [], []
        for u in self.nodes:
            for k, (action, tg) in enumerate(self.lts.node_edges(u)):
                if isinstance(action, Tau):
                    tau_edges.append((u, k, tg))
                elif self.two_phase and action == self.label:
                    act_edges.append((u, k, tg))
        return tau_edges, act_edges

    def shape(self) -> bytes:
        """A digest of what the program reads besides its absorption: two
        sources with equal shapes, absorption groups and targets have the same
        program."""
        kind = 2 if self.two_phase else (TAU_HAT, TAU_STRICT).index(self.label)
        rows, cols, vals = self.entries
        head = _packed([kind, len(self.nodes), self.source_row, self.width,
                        len(rows)], ())
        return hashlib.blake2b(head + rows.tobytes() + cols.tobytes() + vals.tobytes(),
                               digest_size=16).digest()

    def absorbing(self, group_of) -> list:
        """The positions in `nodes` of the nodes that may absorb: group_of[v],
        read for `nodes` only, is the absorption group of v, or None when v
        may not absorb."""
        # under TAU_STRICT, a source with no edge back absorbs nothing
        barred = self.source if self.label == TAU_STRICT and not self.bound else None
        return [r for r, v in enumerate(self.nodes)
                if group_of[v] is not None and v != barred]

    def program(self, group_of, targets) -> lp.LinearProgram:
        nodes, phase2 = self.nodes, self.phase2
        groups = sorted({g for g in (group_of[v] for v in nodes) if g is not None}
                        | {g for g, t in enumerate(targets) if abs(t) > 0})
        rank = {g: r for r, g in enumerate(groups)}
        first_group = self.height
        absorb = self.absorbing(group_of)
        a = np.zeros((first_group + len(groups), self.width + len(absorb)))
        rows, cols, vals = self.entries
        np.add.at(a, (rows, cols), vals)
        # each absorption column takes -1 in its node's last conservation row
        # and +1 in its group's row
        cols = np.arange(self.width, a.shape[1])
        a[[phase2 + r for r in absorb], cols] = -1.0
        a[[first_group + rank[group_of[nodes[r]]] for r in absorb], cols] = 1.0
        b = np.zeros(len(a))
        b[self.source_row] = -1.0
        if self.bound:
            b[len(nodes)] = -1.0
        b[first_group:] = [targets[g] if g < len(targets) else 0.0 for g in groups]
        return lp.LinearProgram(a, b)

    def names(self, group_of) -> list:
        """The variable name of each column of program(group_of, ...)."""
        tau_edges, act_edges = self._edges()
        return ([f"y_{u}_{k}" for u, k, _ in tau_edges]
                + [f"x_{u}_{k}" for u, k, _ in act_edges]
                + [f"z_{u}_{k}" for u, k, _ in tau_edges if self.two_phase]
                + [f"r_{self.source}"] * self.bound
                + [f"a_{self.nodes[r]}" for r in self.absorbing(group_of)])


# -- matching questions --

def _packed(ints, floats) -> bytes:
    """The ints and the bit patterns of the floats, as one memo key."""
    return struct.pack(f"{len(ints)}q{len(floats)}d", *ints, *floats)


class _Matcher:
    """Every matching question of one check, built in one place: can `node`
    meet a requirement (see _requirements) of `owner`?  In 'strong' mode a
    move is answered by a combined move, in 'weak' mode by a weak move, which
    for a strict tau move takes at least one real internal step.

    answer() solves each distinct program once and keeps what the solve
    returned; holds() and witness() both read it.  A key holds exactly what
    the question's linear program reads, with floats compared bit for bit,
    so a hit is the same program and so the same answer.  A strong key holds
    only the blocks in play, and a weak key names its source's flows by their
    shape (see _Flows.shape), so a split elsewhere, or a source whose flows
    look alike, finds the answer already known.  So a weak answer is kept as
    the bare flow array, and witness() names its columns after the asking
    node's own flows.  Keys are packed into bytes: keys built of small tuples
    raised the peak memory of repeated 54-node teleportation checks by
    2.5 MB, as the interpreter keeps freed small tuples for reuse.  Keeping
    each answer, not only its verdict, left their peak RSS at 40.3-40.4 MB
    and raised the law suite's from 43.2 to 43.4 MB (perfbench medians of 10
    runs, 2-core x86 VM).  A failure within _NEAR_TIE_FACTOR of the
    tolerance is a near tie: its answer is None, and its key goes into
    `near_ties` when it is solved, so once per question per check, however
    often refinement and witnesses ask.
    The reachable set and flows of each source and the termination groups of
    each owner are kept for the matcher's lifetime.
    """

    def __init__(self, lts, mode: str, tol: float):
        self.lts = lts
        self.mode = mode
        self.tol = tol
        self.known: dict = {}
        self.near_ties: list = []
        self.reach: dict = {}
        self.flows: dict = {}
        self.ends: dict = {}

    def _flows(self, node: int, label):
        """The _Flows of `node` under `label`, and its shape."""
        got = self.flows.get((node, label))
        if got is None:
            nodes = self.reach.get(node)
            if nodes is None:
                nodes = self.reach[node] = _reachable(self.lts, node)
            flows = _Flows(self.lts, node, label, nodes)
            got = self.flows[(node, label)] = flows, flows.shape()
        return got

    def question(self, node: int, owner: int | None, requirement: tuple, partition: Partition,
                 strict: bool = False):
        """(memo key, solve(tol, loose) with loose as for lp.feasible,
        constraint count of the linear program) of one question: can `node`
        meet `requirement`?  Only a termination requirement reads `owner`."""
        action, vec = requirement
        if action is None:
            # can `node` internally evolve, with probability one, into stuck
            # configurations whose context equals the owner's?  They absorb,
            # as group 0, and no other node does.  The question reads no
            # partition, so owners with equal contexts share programs; it
            # takes no loose tolerance, so it is never a near tie
            ends = self.ends.get(owner)
            if ends is None:
                matches = set(self.lts.terminal_matches(owner))
                ends = self.ends[owner] = [0 if v in matches else None
                                           for v in range(self.lts.node_count)]
            flows, shape = self._flows(node, TAU_HAT)
            nodes = flows.nodes
            return (shape + b"end" + _packed([i for i, v in enumerate(nodes) if ends[v] == 0], ()),
                    lambda t, loose: lp.feasible(flows.program(ends, [1.0]), t),
                    flows.height + 1)
        if self.mode == "strong":
            points = [class_vector(tg, partition) for tg in self.lts.successors(node, action)]
            if not points:
                # no move with the action: no program, whatever vec is
                return b"", lambda t, loose: None, 0
            # only the blocks that vec or a point touches: the rows of the
            # others are all zero with a zero right-hand side, which phase 1
            # never pivots on, so splits elsewhere leave the key alone
            table = np.array((vec, *points))
            table = table[:, table.any(axis=0)]
            return (_packed((table.shape[1],), ()) + table.tobytes(),
                    lambda t, loose: lp.convex_hull_member(table[1:], table[0], t, loose),
                    1 + table.shape[1])
        flows, shape = self._flows(node, _weak_label(action, strict))
        nodes = flows.nodes
        block_of = partition.block_of
        # the absorption groups in the order _Flows.program writes their rows,
        # renumbered by rank so that splits elsewhere leave the key alone
        groups = sorted({block_of[v] for v in nodes}
                        | {g for g, t in enumerate(vec) if abs(t) > 0})
        rank = {g: r for r, g in enumerate(groups)}
        key = shape + _packed([rank[block_of[v]] for v in nodes], [vec[g] for g in groups])
        return (key, lambda t, loose: lp.feasible(flows.program(block_of, list(vec)), t, loose),
                flows.height + len(groups))

    def answer(self, question):
        """What the solve of `question` returned, solved on its key's first
        ask: hull weights, a flow array, or None for a failure or a near
        tie."""
        key, solve, _ = question
        if key in self.known:
            return self.known[key]
        try:
            result = solve(self.tol, _NEAR_TIE_FACTOR * self.tol)
        except lp.NearTie:
            result = None
            self.near_ties.append(key)
        self.known[key] = result
        return result

    def holds(self, node: int, owner: int, requirement: tuple, partition: Partition) -> bool:
        return self.answer(self.question(node, owner, requirement, partition)) is not None

    def witness(self, node: int, action: Action, vec: tuple, partition: Partition,
                strict: bool = False):
        """The hull weights, or the flow as {variable name: value}, of a
        move of `node` that meets (action, vec); None when there is none."""
        x = self.answer(self.question(node, None, (action, vec), partition, strict))
        if x is None or self.mode == "strong":
            return x
        flows, _ = self._flows(node, _weak_label(action, strict))
        return dict(zip(flows.names(partition.block_of), x.tolist()))


def _weak_label(action: Action, strict: bool):
    """The label of the weak move that answers a move on `action`."""
    return (TAU_STRICT if strict else TAU_HAT) if isinstance(action, Tau) else action


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


def _split_of(matcher: _Matcher, members: list, partition: Partition):
    """The members meeting the first requirement that some but not all
    members of a block meet, or None when the block is stable.  Owners are
    taken in member order, each with its requirements in order.  A
    requirement already tried is skipped: two moves with the same action
    and class vector bits ask the same of every member, whoever owns them,
    and termination is tried once per owner."""
    if len(members) < 2:
        return None
    tried = set()
    for owner in members:
        for requirement in _requirements(matcher, owner, partition):
            action, vec = requirement
            same = (None, owner) if action is None else (action, _packed((), vec))
            if same in tried:
                continue
            tried.add(same)
            sat = {m for m in members if matcher.holds(m, owner, requirement, partition)}
            if sat and len(sat) < len(members):
                return sat
    return None


def _predecessors(lts) -> list:
    """preds[v]: the nodes with an edge into v."""
    preds = [[] for _ in range(lts.node_count)]
    for u in range(lts.node_count):
        for v in {v for _, targets in lts.node_edges(u) for v, _ in targets}:
            preds[v].append(u)
    return preds


def _readers(preds: list, members: list, transitive: bool) -> set:
    """The nodes whose questions read the block of `members`: their direct
    predecessors, or, when `transitive`, every node that reaches one."""
    if not transitive:
        return {u for v in members for u in preds[v]}
    seen = set(members)
    stack = list(members)
    while stack:
        for u in preds[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _refine(matcher: _Matcher, partition: Partition) -> Partition:
    """Split blocks until stable, asking `matcher` whether members meet each
    requirement.  A worklist holds the blocks to examine, at first all of
    them; _split_of examines one.  A split of block B re-queues B, the fresh
    block, and every block holding a node whose questions read B: a direct
    predecessor of a member of B (strong), or any node that can reach one
    (weak).  No other block's questions change, so no other block can split.
    The queued block whose lowest member is highest goes next: build_lts
    numbers nodes in exploration order, so the blocks further down the
    graph settle first, and the weak questions above them, whose keys hold
    the block of every reachable node, then find their verdicts known.  The
    blocks of the result are numbered by lowest member, so no output
    depends on the order of the splits."""
    members = partition.blocks()
    queue = set(range(len(members)))
    preds = None
    while queue:
        block_id = max(queue, key=lambda b: members[b][0])
        queue.remove(block_id)
        sat = _split_of(matcher, members[block_id], partition)
        if sat is None:
            continue
        partition = partition.split(block_id, sat)
        split = members[block_id]
        members[block_id] = [m for m in split if m in sat]
        members.append([m for m in split if m not in sat])
        if preds is None:
            preds = _predecessors(matcher.lts)
        queue.update(partition.block_of[u]
                     for u in _readers(preds, split, matcher.mode != "strong"))
        queue.update((block_id, len(members) - 1))
    return Partition(_compact(partition.block_of))


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
                entry["weights"] = [round(x, 12) + 0.0 for x in w]
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
            if matcher.answer(question) is None:
                return _failed_requirement(owner, partner, requirement, question[2])
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


def _check(lts, left: int, right: int, mode: str, tol: float) -> BisimResult:
    """Refine, then explain the verdict: a witness that matches every move of
    both nodes, or a counterexample.  `eq` refines as weak does, then
    answers every tau move by a strict weak move.  The near ties met warn
    once the verdict is known, at the line that called the checker."""
    weak = mode != "strong"
    matcher = _Matcher(lts, "weak" if weak else "strong", tol)
    partition = _refine(matcher, Partition([0] * lts.node_count) if weak
                        else _initial_strong(lts))
    witness, counter = [], None
    if mode == "eq":
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
    elif partition.block_of[left] == partition.block_of[right]:
        witness = _matchings_for_pair(matcher, left, right, partition)
    else:
        counter = _counterexample(matcher, left, right, partition)
    context = "weak-transition" if weak else "combined-transition"
    for _ in matcher.near_ties:
        # stack: _check, the checker, its caller
        warnings.warn(f"{context} matching decided within {_NEAR_TIE_FACTOR:g}x of the "
                      "tolerance; prefer exact-probability inputs", RuntimeWarning,
                      stacklevel=3)
    if counter is None:
        return BisimResult(mode, True, left, right, partition, witness=witness)
    return BisimResult(mode, False, left, right, partition, counterexample=counter)


def strong_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Strong probabilistic bisimilarity by partition refinement.

    Every ordinary move must be matched by a combined move with the same
    class vector; stuck configurations must have equal contexts.
    """
    return _check(lts, left, right, "strong", tol)


def weak_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Weak probabilistic bisimilarity: ordinary moves are matched by weak
    (tau-abstracted) moves; mutually stuck configurations need equal contexts."""
    return _check(lts, left, right, "weak", tol)


def equality_check(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Equality: weak bisimilarity where a tau move must be answered by a weak
    move containing at least one real internal step (single top-level round
    against the weak partition)."""
    return _check(lts, left, right, "eq", tol)
