"""Decision procedures for strong/weak probabilistic bisimilarity and equality.

All three run on a finite explored transition graph: anything with the
node_count, node_edges, stuck, successors and terminal of lts.Lts.
Matching questions reduce to linear feasibility: combined transitions are
convex-hull membership over class vectors, weak transitions are two-phase
flow problems whose feasible flows correspond exactly to adversaries
realising the move.  A strict internal move, which `eq` asks of a tau move,
is the same two-phase problem with tau as its label.  A termination
requirement is one more flow question, under TAU_HAT, in which only the
stuck nodes of the owner's terminal class absorb.  Every checker compares
stuck contexts only through these classes (lts.Lts.terminal), so the stuck
states it treats as equal form an equivalence relation.  One _Matcher builds
every matching question, for refinement and for explaining a verdict, as
its linear program.  Refinement asks it for verdicts: first whether one
move of the node meets the requirement, then whether the target puts mass
the node cannot reach beyond the loose bound, and only when neither
decides, the simplex.  Explaining a verdict always asks the simplex, so
witnesses are its weights and flows.  Both read simplex answers from one
memo keyed by the program itself, so a check solves each distinct program
once.  _refine keeps a worklist of blocks to examine and re-examines a
block only when a block that its questions read has split.

Weak and `eq` refinement run on a view of the graph with inert tau chains
collapsed (_collapse_inert).  An inert node has one move, a tau move with
all of its mass on one other node, and is weakly bisimilar to that node
(Groote & Vaandrager's inert tau steps, in Segala's probabilistic setting),
so the view replaces it by the last node of its inert chain and each node
takes its representative's block.  On a seed-0 teleport-check graph this
leaves 16 of 54 nodes to refine and cuts lp.feasible calls per round from
80 to 32.  The view shares the matcher's memo, and the explanation runs on
the whole graph, so witnesses and counterexamples name the graph's own
nodes and flows.

One generator, _requirements, lists what a node asks of its block.
Refinement splits on it, and _explain asks each requirement of one node of
the other, in all three modes; `eq` differs from weak only in answering a
tau move by a strict internal move.  The first requirement that fails over the final partition
is the counterexample, in one format for every mode; when none fails, the
answers are the witness.  A strong or weak pair in one block of the final
partition fails none, so its check explains nothing and BisimResult builds
the witness when it is first read.  `eq`, whose strict round decides the
verdict, and a pair in different blocks, whose counterexample the verdict
needs, are explained when the check runs.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .lts import Action, Tau, format_action

# a failure that passes at this multiple of the tolerance warns as a near tie
_NEAR_TIE_FACTOR = 10.0


# the weak-transition label of zero or more internal moves; any other label
# is an Action, crossed once between two runs of internal moves
TAU_HAT = "tau-hat"


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


def _residual(targets, block_of: list, want: list) -> float:
    """The L1 distance between the class vector of `targets` and the vector
    whose nonzero entries are `want`, as (block, mass) pairs."""
    mass: dict = {}
    for v, p in targets:
        b = block_of[v]
        mass[b] = mass.get(b, 0.0) + p
    return sum(abs(mass.pop(b, 0.0) - m) for b, m in want) + sum(map(abs, mass.values()))


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
    edge's fixed probabilities), crosses one `label` edge unless the label
    is TAU_HAT, and is absorbed at nodes; absorbed mass per group must equal
    `targets` (a negative target leaves a residual at least its size).
    `nodes` is _reachable(lts, source).  A label TAU is a strict internal
    move: a tau edge is then also a `label` edge, so the move takes at least
    one real internal step.

    Columns: a phase-1 flow y_u_k per tau edge, a flow x_u_k per `label`
    edge, a phase-2 flow z_u_k per tau edge, then an absorption a_v per
    absorbing node.  Rows: conservation per node in phase 1, then in phase 2,
    then one row per group.  Only a label other than TAU_HAT has the x, z
    columns and phase 2; its phase-1 mass is all absorbed at `label` edges.
    """

    def __init__(self, lts, source: int, label, nodes: list):
        self.nodes = nodes
        self.two_phase = two_phase = label != TAU_HAT
        # the tau edges and the `label` edges out of `nodes`, each as
        # (u, k, targets), kept to name the columns
        self.tau_edges, self.act_edges = tau_edges, act_edges = [], []
        for u in nodes:
            for k, (action, tg) in enumerate(lts.node_edges(u)):
                if isinstance(action, Tau):
                    tau_edges.append((u, k, tg))
                if two_phase and action == label:
                    act_edges.append((u, k, tg))
        row_of = {v: r for r, v in enumerate(nodes)}
        self.source_row = row_of[source]
        self.phase2 = phase2 = len(nodes) if two_phase else 0
        # the rows before the group rows
        self.height = phase2 + len(nodes)
        x0 = len(tau_edges)
        z0 = x0 + len(act_edges)
        self.width = z0 + (len(tau_edges) if two_phase else 0)

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
            # phase 1: tau flows feed the `label` edges; phase 2: their
            # output plus tau flows end in absorption
            flow(act_edges, x0, 0, True, False)
            flow(act_edges, x0, phase2, False, True)
            flow(tau_edges, z0, phase2, True, True)
        self.entries = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                        np.array(vals))

    def program(self, ranks: list, targets: list) -> lp.LinearProgram:
        """The program in which the node nodes[r] absorbs into group ranks[r],
        or not at all when ranks[r] is -1, and group g must absorb
        targets[g]."""
        phase2, first_group = self.phase2, self.height
        absorb = [r for r, g in enumerate(ranks) if g >= 0]
        a = np.zeros((first_group + len(targets), self.width + len(absorb)))
        rows, cols, vals = self.entries
        np.add.at(a, (rows, cols), vals)
        # each absorption column takes -1 in its node's last conservation row
        # and +1 in its group's row
        cols = np.arange(self.width, a.shape[1])
        a[[phase2 + r for r in absorb], cols] = -1.0
        a[[first_group + ranks[r] for r in absorb], cols] = 1.0
        b = np.zeros(len(a))
        b[self.source_row] = -1.0
        b[first_group:] = targets
        return lp.LinearProgram(a, b)

    def names(self, group_of) -> list:
        """The variable name of each column of the program in which a node v
        absorbs unless group_of[v] is None."""
        return ([f"y_{u}_{k}" for u, k, _ in self.tau_edges]
                + [f"x_{u}_{k}" for u, k, _ in self.act_edges]
                + [f"z_{u}_{k}" for u, k, _ in self.tau_edges if self.two_phase]
                + [f"a_{v}" for v in self.nodes if group_of[v] is not None])


# -- matching questions --

def _hull_program(points: np.ndarray, target) -> lp.LinearProgram:
    """The program whose solutions are the weights expressing `target` as a
    convex combination of the rows of `points`: one row for the weights'
    sum, then one per coordinate."""
    return lp.LinearProgram(np.vstack([np.ones(len(points)), points.T]),
                            np.concatenate([[1.0], target]))


def _key(program: lp.LinearProgram) -> bytes:
    """The memo key of `program`: its shape, then the bits of a and of b, so
    one key is one program and so one answer."""
    return struct.pack("2q", *program.a.shape) + program.a.tobytes() + program.b.tobytes()


class _Matcher:
    """Every matching question of one check, built in one place: can `node`
    meet a requirement (see _requirements) of `owner`?  In 'strong' mode a
    move is answered by a combined move, in 'weak' mode by a weak move: a
    tau move by a TAU_HAT move, or, when strict, by a weak move labelled tau
    itself, which takes at least one real internal step.  Termination is a
    TAU_HAT move into the owner's terminal class.

    holds(), refinement's verdict, tries decide() first: one move of the
    node that meets the requirement accepts it, and target mass beyond the
    loose bound on blocks the node cannot reach refutes it, both without a
    program.  Only a question that neither decides goes to the memoised
    simplex.  On a seed-0 teleport-check round this cuts lp.feasible calls
    from 130 to 32 (from 272 to 80 without the inert collapse).

    answer() keys its memo by the program itself (see _key), so each
    distinct program is solved once per check, whichever source, owner or
    view built it, and holds() and _explain both read what the solve
    returned; a key that also named the asking node would solve 61
    programs on that round, not 32.  A program reads only the blocks in
    play, a strong one without the all-zero columns and a weak one by their
    ranks, so a split elsewhere leaves it unchanged.  A failure of any
    question within _NEAR_TIE_FACTOR of the tolerance is a near tie: its
    answer is None, and its key goes into `near_ties` when it is solved, so
    once per program per check, however often refinement and witnesses ask.
    The reachable set and flows of each source and the termination groups of
    each terminal class are kept for the matcher's lifetime.
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

    def _reach(self, node: int) -> list:
        nodes = self.reach.get(node)
        if nodes is None:
            nodes = self.reach[node] = _reachable(self.lts, node)
        return nodes

    def _flows(self, node: int, label) -> _Flows:
        flows = self.flows.get((node, label))
        if flows is None:
            flows = self.flows[(node, label)] = _Flows(self.lts, node, label, self._reach(node))
        return flows

    def decide(self, node: int, owner: int | None, requirement: tuple, partition: Partition,
               strict: bool = False):
        """The verdict of question(node, owner, requirement, partition,
        strict) where no program is needed, else None.

        True when a single move of `node` meets the requirement: its class
        vector is within tol of the target in L1, the sum that phase 1
        minimises, so the simplex would accept too.  The moves tried are the
        successors under the action (strong); each direct edge with the
        label, absorbed at its targets (a visible action or a strict tau
        move); staying put, then each direct tau edge (TAU_HAT); and, for
        termination, the node itself when it is stuck in the owner's
        terminal class.

        False when the target puts more than the loose bound on blocks that
        `node` cannot reach: those no successor touches (strong), those
        holding no node of _reachable(node) (weak), or, for termination, a
        terminal class with no reachable node.  Every program's residual is
        at least that mass, so the simplex would refute too, and a near tie
        still goes to the simplex and warns."""
        lts, block_of = self.lts, partition.block_of
        action, vec = requirement
        if action is None:
            # the node itself, stuck in the owner's terminal class, absorbs
            # the unit; else some reachable node must lie in that class
            end = lts.terminal[owner]
            if lts.terminal[node] == end:
                return True
            if any(lts.terminal[v] == end for v in self._reach(node)):
                return None
            return False if 1.0 > _NEAR_TIE_FACTOR * self.tol else None
        if self.mode == "strong":
            moves = lts.successors(node, action)
            reached = [v for tg in moves for v, _ in tg]
        else:
            label = _weak_label(action, strict)
            if label == TAU_HAT:
                # staying put, then each direct internal move
                moves = [((node, 1.0),)] + [tg for a, tg in lts.node_edges(node)
                                            if isinstance(a, Tau)]
            else:
                moves = [tg for a, tg in lts.node_edges(node) if a == label]
            reached = self._reach(node)
        want = [(b, m) for b, m in enumerate(vec) if m]
        if any(_residual(tg, block_of, want) <= self.tol for tg in moves):
            return True
        blocks = {block_of[v] for v in reached}
        unreached = sum(abs(m) for b, m in want if b not in blocks)
        return False if unreached > _NEAR_TIE_FACTOR * self.tol else None

    def question(self, node: int, owner: int | None, requirement: tuple, partition: Partition,
                 strict: bool = False):
        """(program, name(answer)) of one question: can `node` meet
        `requirement`?  program is the lp.LinearProgram that answers it, or
        None when a strong question's node has no move with the action.  name
        gives the hull weights of a strong answer as a list, and a flow as
        {variable name: value}.  Only a termination requirement reads
        `owner`, and only its terminal class."""
        action, vec = requirement
        if action is None:
            # can `node` internally evolve, with probability one, into stuck
            # configurations of the owner's terminal class?  They absorb, as
            # group 0, and no other node does.  The question reads no
            # partition, so the owners of one class share programs
            end = self.lts.terminal[owner]
            group_of = self.ends.get(end)
            if group_of is None:
                group_of = self.ends[end] = [0 if t == end else None for t in self.lts.terminal]
            label, targets = TAU_HAT, (1.0,)
        elif self.mode == "strong":
            points = [class_vector(tg, partition) for tg in self.lts.successors(node, action)]
            if not points:
                return None, None
            # only the blocks that vec or a point touches: the rows of the
            # others are all zero with a zero right-hand side, which phase 1
            # never pivots on, so a split elsewhere leaves the program alone
            table = np.array((vec, *points))
            table = table[:, table.any(axis=0)]
            return _hull_program(table[1:], table[0]), lambda x: x.tolist()
        else:
            label, group_of, targets = _weak_label(action, strict), partition.block_of, vec
        flows = self._flows(node, label)
        # the absorption groups in play, renumbered by rank: the program
        # reads these ranks and targets, and no other part of the partition
        present = {group_of[v] for v in flows.nodes}
        present.discard(None)
        groups = sorted(present | {g for g, t in enumerate(targets) if abs(t) > 0})
        rank = {g: r for r, g in enumerate(groups)}
        rank[None] = -1
        return (flows.program([rank[group_of[v]] for v in flows.nodes],
                              [targets[g] for g in groups]),
                lambda x: dict(zip(flows.names(group_of), x.tolist())))

    def answer(self, program):
        """What lp.feasible returned for `program`, solved on its key's first
        ask: a weight or flow array, or None for no program, a failure or a
        near tie."""
        if program is None:
            return None
        key = _key(program)
        if key in self.known:
            return self.known[key]
        try:
            result = lp.feasible(program, self.tol, _NEAR_TIE_FACTOR * self.tol)
        except lp.NearTie:
            result = None
            self.near_ties.append(key)
        self.known[key] = result
        return result

    def holds(self, node: int, owner: int, requirement: tuple, partition: Partition) -> bool:
        """Refinement's verdict: by decide(), else by the memoised simplex."""
        verdict = self.decide(node, owner, requirement, partition)
        if verdict is None:
            return self.answer(self.question(node, owner, requirement, partition)[0]) is not None
        return verdict


def _weak_label(action: Action, strict: bool):
    """The label of the weak move that answers a move on `action`: TAU_HAT
    for a tau move unless `strict`, else the action itself."""
    return TAU_HAT if isinstance(action, Tau) and not strict else action


def _requirements(matcher: _Matcher, owner: int, partition: Partition):
    """What `owner` asks of every node in its block, in order: each move as
    (action, class vector), then, for a stuck owner in 'weak' mode, internal
    termination in its context as (None, None)."""
    lts = matcher.lts
    for action, targets in lts.node_edges(owner):
        yield action, class_vector(targets, partition)
    if matcher.mode != "strong" and lts.stuck(owner):
        yield None, None


# -- inert tau chains --


def _inert_step(lts, u: int):
    """The node that u's only move, a tau move, takes all of its mass to,
    when u is inert; else None."""
    edges = lts.node_edges(u)
    if len(edges) == 1 and isinstance(edges[0][0], Tau) and len(edges[0][1]) == 1:
        v, p = edges[0][1][0]
        if v != u and p == 1.0:
            return v
    return None


class _InertView:
    """A graph's kept nodes, `kept` in id order, renumbered 0, 1, ...; every
    edge of a kept node sends the mass of each target v to rep[v], summed
    per kept node.  Stuck nodes are kept, so terminal classes keep their
    members and heads."""

    def __init__(self, lts, kept: list, rep: list):
        self.kept = kept
        self.edges = []
        for u in kept:
            row = []
            for action, targets in lts.node_edges(u):
                mass: dict = {}
                for v, p in targets:
                    mass[rep[v]] = mass.get(rep[v], 0.0) + p
                row.append((action, tuple(sorted(mass.items()))))
            self.edges.append(row)
        self.terminal = tuple(None if lts.terminal[u] is None else rep[lts.terminal[u]]
                              for u in kept)

    @property
    def node_count(self) -> int:
        return len(self.kept)

    def node_edges(self, i: int):
        return self.edges[i]

    def stuck(self, i: int) -> bool:
        return not self.edges[i]


def _collapse_inert(lts) -> tuple:
    """(view, rep): the graph that weak refinement runs on, and rep[u], the
    node of the view that stands for node u.  An inert node has one move, a
    tau move with all of its mass on one other node, to which it is weakly
    bisimilar; the view replaces it by the last node of its inert chain.  A
    chain that runs into a cycle of inert nodes stays as it is.  When no node
    collapses, the view is `lts` itself."""
    step = [_inert_step(lts, u) for u in range(lts.node_count)]
    end = [None] * lts.node_count
    for u, v in enumerate(step):
        if v is None:
            end[u] = u
    for u in range(lts.node_count):
        path, v = [], u
        while end[v] is None and v not in path:
            path.append(v)
            v = step[v]
        last = v if end[v] is None else end[v]
        for w in path:
            # a node that stays at the end, being inert, closes a cycle
            end[w] = w if step[last] is not None else last
    kept = [u for u, last in enumerate(end) if last == u]
    index = {u: i for i, u in enumerate(kept)}
    rep = [index[last] for last in end]
    return (lts if len(kept) == lts.node_count else _InertView(lts, kept, rep)), rep


# -- partition refinement --


@dataclass
class BisimResult:
    """A verdict over the final partition.  The witness of an equivalent
    strong or weak verdict is built by _explain when first read, from the
    matcher that the check kept, which is then dropped; a distinguished
    verdict's witness is empty."""

    mode: str
    equivalent: bool
    left: int
    right: int
    partition: Partition
    counterexample: dict | None = None
    # the witness once built, else the matcher whose memo builds it
    _witness: list | None = field(default=None, repr=False, compare=False)
    _matcher: _Matcher | None = field(default=None, repr=False, compare=False)

    @property
    def witness(self) -> list:
        if self._witness is None:
            self._witness = (_explain(self._matcher, self.left, self.right, self.partition,
                                      False)[0] if self._matcher else [])
            self._matcher = None
        return self._witness

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
    """One block for the nodes that can move, and one per terminal class."""
    return Partition(_compact([-1 if t is None else t for t in lts.terminal]))


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
    and termination is tried once per terminal class."""
    if len(members) < 2:
        return None
    tried = set()
    for owner in members:
        for requirement in _requirements(matcher, owner, partition):
            action, vec = requirement
            same = ((None, matcher.lts.terminal[owner]) if action is None
                    else (action, struct.pack(f"{len(vec)}d", *vec)))
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
    graph settle first, and the weak questions above them, whose programs
    read the block of every reachable node, then find their verdicts
    known.  The blocks of the result are numbered by lowest member, so no
    output depends on the order of the splits."""
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


def _terminal_mismatch(lts, left: int, right: int) -> dict | None:
    if lts.stuck(left) and lts.stuck(right) and lts.terminal[left] != lts.terminal[right]:
        return {"pair": [left, right], "reason": "terminal contexts differ"}
    return None


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


def _explain(matcher: _Matcher, left: int, right: int, partition: Partition,
             strict: bool) -> tuple:
    """(witness, counterexample) of the pair over the final partition.  Each
    requirement of `left` is asked of `right`, then each of `right` of `left`,
    a tau move by a strict weak move when `strict`.  The first that fails is
    the counterexample, so it does not depend on the order of splits.  Of
    nodes in different strong blocks, one fails unless both are stuck, since
    combined moves compose (Segala 1995).  When none fails, the witness
    holds how each move is met: hull weights and the partner's moves
    (strong) or a flow (weak), and the counterexample is the pair's terminal
    mismatch, if any."""
    lts, witness = matcher.lts, []
    for owner, partner, side in ((left, right, "left"), (right, left, "right")):
        for requirement in _requirements(matcher, owner, partition):
            program, name = matcher.question(partner, owner, requirement, partition, strict)
            answer = matcher.answer(program)
            if answer is None:
                rows = 0 if program is None else len(program.b)
                return [], _failed_requirement(owner, partner, requirement, rows)
            action, vec = requirement
            if action is None:
                continue
            entry = {"from": side, "node": owner, "action": format_action(action),
                     "class_vector": list(vec)}
            w = name(answer)
            if matcher.mode == "strong":
                entry["weights"] = [round(x, 12) + 0.0 for x in w]
                entry["partners"] = [[[n, p] for n, p in tg]
                                     for tg in lts.successors(partner, action)]
            else:
                entry["flow"] = {k: round(v, 12) for k, v in w.items() if abs(v) > 1e-10}
            witness.append(entry)
    return witness, _terminal_mismatch(lts, left, right)


def _check(lts, left: int, right: int, mode: str, tol: float) -> BisimResult:
    """Refine, then explain the verdict by _explain, which `eq` asks with
    every tau move answered by a strict weak move over the weak partition.
    A strong or weak pair in one block is explained only when its witness is
    read, and keeps its matcher until then.
    Weak and `eq` refine the view of _collapse_inert, with a matcher that
    shares the memo and near ties of the graph's own, and every node takes
    its representative's block; when nothing collapses, one matcher refines
    and explains.  Strong refinement runs on the graph itself.
    Nodes in different blocks that _explain finds no requirement to tell
    apart were separated transitively.  The near ties met warn once the
    verdict is known, at the line that called the checker."""
    weak = mode != "strong"
    matcher = _Matcher(lts, "weak" if weak else "strong", tol)
    if weak:
        view, rep = _collapse_inert(lts)
        refiner = matcher
        if view is not lts:
            # a key is its program, whichever graph asks it, so the view's
            # matcher reads and fills the graph's memo and near ties
            refiner = _Matcher(view, "weak", tol)
            refiner.known, refiner.near_ties = matcher.known, matcher.near_ties
        partition = _refine(refiner, Partition([0] * view.node_count))
        partition = Partition(_compact([partition.block_of[r] for r in rep]))
    else:
        partition = _refine(matcher, _initial_strong(lts))
    one_block = partition.block_of[left] == partition.block_of[right]
    if mode == "eq" or not one_block:
        witness, counter = _explain(matcher, left, right, partition, mode == "eq")
        if counter is None and not one_block:
            counter = {"reason": "nodes separated transitively during refinement"}
    else:
        # both nodes meet each other's requirements over the stable partition,
        # so _explain would only build the witness: BisimResult does, on read
        witness, counter = None, _terminal_mismatch(lts, left, right)
    context = "weak-transition" if weak else "combined-transition"
    for _ in matcher.near_ties:
        # stack: _check, the checker, its caller
        warnings.warn(f"{context} matching decided within {_NEAR_TIE_FACTOR:g}x of the "
                      "tolerance; prefer exact-probability inputs", RuntimeWarning,
                      stacklevel=3)
    if counter is not None:
        return BisimResult(mode, False, left, right, partition, counterexample=counter)
    if witness is None:
        return BisimResult(mode, True, left, right, partition, _matcher=matcher)
    return BisimResult(mode, True, left, right, partition, _witness=witness)


def strong_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Strong probabilistic bisimilarity by partition refinement.

    Every ordinary move must be matched by a combined move with the same
    class vector; stuck configurations must be in one terminal class.
    """
    return _check(lts, left, right, "strong", tol)


def weak_bisim(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Weak probabilistic bisimilarity: ordinary moves are matched by weak
    (tau-abstracted) moves; mutually stuck configurations need one terminal
    class."""
    return _check(lts, left, right, "weak", tol)


def equality_check(lts, left: int, right: int, tol: float = lp.TOL) -> BisimResult:
    """Equality: weak bisimilarity where a tau move must be answered by a weak
    move containing at least one real internal step (single top-level round
    against the weak partition)."""
    return _check(lts, left, right, "eq", tol)
