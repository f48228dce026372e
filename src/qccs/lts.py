"""Configurations, actions, distributions, and the operational-rule engine.

A configuration pairs a closed process term with a context instantiating its
free quantum variables.  `transitions`, `blocked_actions`, `build_lts` and
`run_trace` share the rule engine's two stages.  The term stage
(_term_stage) derives a term's step templates once, in no context, and
stores them on the term node: each holds its action, its continuation terms
and the operation it applies to the state (see _Template).  The context
stage (_moves) applies those operations to a configuration's context.
Input prefixes stay symbolic in the term stage so that communication can
instantiate them at the exact transmitted value, and are enumerated against
a finite `InputPolicy` only when they surface as environment-facing actions.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import context as ctxmod
from . import linalg
from .context import ContextIndex, QContext
from .linalg import _stored
from .syntax import (
    Chan, CInput, COutput, If, Measure, Parallel, ProcessExpr, QbitNew, QInput, QOutput,
    Relabel, Restrict, Sum, Unitary, WellformednessError, alpha_key, canonical, check_wellformed,
    eval_bool, eval_expr, fv_classical, qv, subst_classical, subst_quantum,
)


class LtsError(Exception):
    pass


class BadConfiguration(LtsError):
    pass


class BadWeights(LtsError):
    pass


class OpenConfiguration(LtsError):
    """Raised in closed-only mode when an unrestricted input prefix is exposed."""

    def __init__(self, chans):
        self.chans = tuple(chans)
        names = ", ".join(f"{'quantum' if c.quantum else 'classical'} {c.name}" for c in self.chans)
        super().__init__(
            f"configuration can input from the environment on: {names}; "
            "finite input enumeration is only sound with the open-input policy"
        )


class BoundExceeded(LtsError):
    """An exploration bound was hit; says how far exploration got: the nodes
    interned, the depth of the node being expanded and the number of nodes
    waiting to be expanded."""

    def __init__(self, which, limit, nodes, depth, queued):
        self.which = which
        self.limit = limit
        self.nodes = nodes
        self.depth = depth
        self.queued = queued
        super().__init__(f"exploration exceeded {which}={limit} "
                         f"({nodes} nodes, depth {depth}, {queued} queued)")


class StuckError(LtsError):
    """A run stopped before it terminated.  `blocked`: the actions that
    restriction filters out at the support points that cannot move (see
    blocked_actions).  `enabled`, when some point can move but no action is
    enabled at all of them: each point as (probability, its actions sorted
    by action_sort_key, the actions blocked there), where a point that can
    move blocks none and one that terminated (blocks nothing) has None."""

    def __init__(self, blocked, enabled=()):
        self.blocked = tuple(blocked)
        self.enabled = tuple(enabled)
        if self.enabled:
            points = "; ".join(f"{_point_report(actions, held)} (p={p:.4g})"
                               for p, actions, held in self.enabled)
            detail = f"no action is enabled at every support point; enabled at each: {points}"
        else:
            detail = "blocked actions: " + _action_list(self.blocked)
        super().__init__(f"execution is stuck; {detail}")


def _action_list(actions) -> str:
    return ", ".join(map(format_action, actions))


def _point_report(actions, blocked) -> str:
    """A support point of a stuck report: its actions, else `terminated`,
    else the actions that restriction blocks there."""
    if actions:
        return _action_list(actions)
    return "terminated" if blocked is None else f"blocked {_action_list(blocked)}"


# -- actions --


@dataclass(frozen=True)
class Tau:
    """The internal action; its `chan` is None."""

    chan = None


@dataclass(frozen=True)
class _Visible:
    """A visible action: a channel, then the payload its kind defines.  Each
    kind's class constants give the channel kind it needs (QUANTUM), its
    mark between channel and payload (MARK) and its place in
    action_sort_key (RANK).  Restriction and relabelling read only `chan`."""

    chan: Chan

    def __post_init__(self):
        if self.chan.quantum != self.QUANTUM:
            kinds = ("classical", "quantum")
            raise LtsError(f"{kinds[self.QUANTUM]} action on "
                           f"{kinds[self.chan.quantum]} channel {self.chan}")

    @property
    def payload(self):
        """The value of a classical action, the qubit name of a quantum one."""
        return self.qvar if self.QUANTUM else self.value


@dataclass(frozen=True)
class CIn(_Visible):
    """Classical input c?v of the value v."""

    value: float
    QUANTUM, MARK, RANK = False, "?", 1


@dataclass(frozen=True)
class COut(_Visible):
    """Classical output c!v of the value v."""

    value: float
    QUANTUM, MARK, RANK = False, "!", 2


@dataclass(frozen=True)
class QIn(_Visible):
    """Quantum input c?q of the qubit named q."""

    qvar: str
    QUANTUM, MARK, RANK = True, "?", 3


@dataclass(frozen=True)
class QOut(_Visible):
    """Quantum output c!q of the qubit named q."""

    qvar: str
    QUANTUM, MARK, RANK = True, "!", 4


Action = Tau | CIn | COut | QIn | QOut
TAU = Tau()


def format_value(v: float) -> str:
    """A classical value as terms and action labels print it: an integer
    below 1e15 in magnitude without a fraction, any other value by repr."""
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def format_action(action) -> str:
    match action:
        case Tau():
            return "tau"
        case _Visible(chan=c, payload=p):
            return f"{c.name}{action.MARK}{p if isinstance(p, str) else format_value(p)}"
    return str(action)


def action_sort_key(action: Action) -> tuple:
    """Tau, then c?v, c!v, c?q and c!q, each by channel name and payload."""
    if isinstance(action, Tau):
        return (0,)
    return (action.RANK, action.chan.name, action.payload)


# -- configurations and distributions --


@dataclass(eq=False)
class Configuration:
    """A closed, well-formed term and a context covering its free qubits; any
    other raises BadConfiguration (closed, then covered) or WellformednessError."""

    process: ProcessExpr
    context: QContext

    def __post_init__(self):
        free = fv_classical(self.process)
        if free:
            raise BadConfiguration(f"process has free classical variables {sorted(free)}")
        missing = qv(self.process) - set(self.context.vars)
        if missing:
            raise BadConfiguration(f"context does not cover quantum variables {sorted(missing)}")
        if found := check_wellformed(self.process):
            raise WellformednessError(found)

    @_stored
    def key(self) -> tuple:
        """What two equal configurations share exactly: the term up to the
        names of its bound variables (syntax.alpha_key) and the sorted qubit
        names.  Their contexts need only agree within ATOL, which a
        ContextIndex filed under this key decides."""
        return (alpha_key(self.process), self.context.names)

    def __str__(self) -> str:
        from .frontend import pretty_print  # local import to avoid a cycle

        return f"<{pretty_print(self.process)}; {self.context}>"


class Distribution:
    """Finite-support probability distribution over configurations, merged
    by _merge with an index of its own: a configuration merges into the
    first earlier one within ATOL.  run_trace lifts each step into one."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        index = ContextIndex()
        merged = _merge(pairs, lambda c: index.file(c.key, c.context)[0])
        self._pairs = tuple((c, p) for c, p in merged.values())

    def items(self):
        return self._pairs


def _merge(pairs, intern) -> dict:
    """{id: [configuration, weight]}: the weights of the configurations that
    `intern` maps to one id summed, under the first of them, in order of
    first appearance; `intern` files into its caller's index (see _file and
    Distribution).  Raises BadWeights unless every weight is positive and
    they sum to 1 within ATOL."""
    merged: dict = {}
    for config, p in pairs:
        p = float(p)
        if p <= 0:
            raise BadWeights(f"probability {p} is not in (0, 1]")
        j = intern(config)
        if j in merged:
            merged[j][1] += p
        else:
            merged[j] = [config, p]
    if not merged:
        raise BadWeights("distribution must have nonempty support")
    total = sum(p for _, p in merged.values())
    if abs(total - 1.0) > linalg.ATOL:
        raise BadWeights(f"probabilities sum to {total}, not 1")
    return merged


def _file(moves, intern, edges) -> list:
    """The merge rule and the edge rule, applied to (action, pairs) moves in
    order.  Each move is merged by _merge under `intern` and its targets
    sorted by id; it is appended to `edges` as (action, ((id, weight), ...))
    unless _seen finds it there.  Returns each move kept, as (action,
    ((configuration, weight), ...)) in order of first appearance."""
    kept = []
    for action, pairs in moves:
        merged = _merge(pairs, intern)
        targets = tuple(sorted((j, p) for j, (_, p) in merged.items()))
        if not _seen(edges, action, targets):
            edges.append((action, targets))
            kept.append((action, tuple((c, p) for c, p in merged.values())))
    return kept


def _seen(kept, action, targets) -> bool:
    """Whether a kept (action, targets) move has this action, the same
    target ids and each weight within ATOL: the one test of two equal moves."""
    return any(a == action and len(t) == len(targets)
               and all(j == k and abs(p - q) <= linalg.ATOL
                       for (j, p), (k, q) in zip(t, targets))
               for a, t in kept)


# -- input policy and fresh names --

DEFAULT_CLASSICAL_DOMAIN = (0.0, 1.0, 2.0, 3.0)
DEFAULT_QUANTUM_RECIPES = (
    ("|0><0|", linalg.dm(linalg.KET0)),
    ("|1><1|", linalg.dm(linalg.KET1)),
    ("|+><+|", linalg.dm(linalg.KET_PLUS)),
)


@dataclass(frozen=True)
class InputPolicy:
    """Finite stand-ins for the environment's input choices.

    Classical inputs range over a per-channel domain; quantum inputs extend
    the context with a product state drawn from `quantum_recipes`.  With
    `closed_only` set, configurations exposing an unrestricted input prefix
    are refused instead, which keeps every verdict exact.  An empty domain
    or no recipe raises LtsError, so that every input offered can move.
    """

    classical_domains: tuple = ()  # ((Chan, (values...)), ...)
    quantum_recipes: tuple = DEFAULT_QUANTUM_RECIPES
    closed_only: bool = True

    def __post_init__(self):
        if not (self.quantum_recipes and all(dom for _, dom in self.classical_domains)):
            raise LtsError("input policy has an empty classical domain or no quantum recipe")

    def domain(self, chan: Chan):
        for c, dom in self.classical_domains:
            if c == chan:
                return dom
        return DEFAULT_CLASSICAL_DOMAIN

    def open(self) -> "InputPolicy":
        return InputPolicy(self.classical_domains, self.quantum_recipes, False)


def numbered_fresh(ctx: QContext, hint: str | None = None) -> str:
    k = 0
    while f"#{k}" in ctx.vars:
        k += 1
    return f"#{k}"


def hint_fresh(ctx: QContext, hint: str | None = None) -> str:
    if hint and hint not in ctx.vars:
        return hint
    return numbered_fresh(ctx)


# -- the rule engine --


class _Template:
    """A step of a term in any context: its action (`chan` is the action's,
    None for tau), its continuation terms and the operation `op` that the
    context stage (_moves) applies.  None: none, `action` to `cont`.
    "unitary", "measure": the gate or measurement of the node `prefix`, tau
    to `cont`, or to at(eigenvalue) per outcome.  "new": a fresh qubit named
    from `hint`, tau to at(name).  "pick": QIn(chan, r) to at(r) for each
    qubit r of the context not in `avoid`.  "input": a symbolic input with
    binder `hint`, which a communication partner or the input policy
    instantiates at a value, or at the fresh name of a system the policy
    adds.  at(x) builds a continuation once per x and per sign of a zero:
    make(x), or make(inner.at(x)) for a step that wraps the step `inner`."""

    __slots__ = ("op", "action", "chan", "cont", "make", "inner", "made", "prefix", "hint", "avoid")

    def __init__(self, op, action=TAU, chan=None, cont=None, make=None, prefix=None,
                 hint=None, avoid=frozenset(), inner=None):
        self.op, self.action, self.chan, self.cont, self.make = op, action, chan, cont, make
        self.prefix, self.hint, self.avoid, self.inner = prefix, hint, avoid, inner
        self.made = None if make is None else {}

    def at(self, x):
        key = (x, math.copysign(1.0, x)) if isinstance(x, float) else x
        term = self.made.get(key)
        if term is None:
            term = self.made[key] = self.make(x if self.inner is None else self.inner.at(x))
        return term

    def wrapped(self, wrap, fn=None, avoid=frozenset()):
        """This step with each continuation t as wrap(t), its channel renamed by
        the relabelling `fn` if given, and the names `avoid` added to a pick's."""
        action, chan = self.action, self.chan
        if fn is not None and chan is not None:
            chan = fn.apply(chan)
            action = None if action is None else replace(action, chan=chan)
        if self.make is None:
            return _Template(self.op, action, chan, wrap(self.cont), prefix=self.prefix)
        return _Template(self.op, action, chan, make=wrap, prefix=self.prefix, hint=self.hint,
                         avoid=self.avoid | avoid if self.op == "pick" else self.avoid, inner=self)


def _term_stage(term) -> tuple:
    """(steps, blocked): the step templates of a term, the same in every
    context, and those that its restrictions filter out, restrictions in
    pre-order, outer first.  Stored on the node as _Term._steps."""
    match term:
        case CInput(chan=c, var=x, body=b):
            return (_Template("input", None, c, make=lambda v: subst_classical(b, x, v),
                              hint=x),), ()
        case COutput(chan=c, expr=e, body=b):
            return (_Template(None, COut(c, eval_expr(e)), c, b),), ()
        case QbitNew(qvar=q, body=b):
            return (_Template("new", make=lambda r: subst_quantum(b, q, r), hint=q),), ()
        case QInput(chan=c, qvar=q, body=b):
            make = lambda r: subst_quantum(b, q, r)  # noqa: E731
            return (_Template("pick", None, c, make=make, avoid=qv(b) - {q}),
                    _Template("input", None, c, make=make, hint=q)), ()
        case QOutput(chan=c, qvar=q, body=b):
            return (_Template(None, QOut(c, q), c, b),), ()
        case Unitary(body=b):
            return (_Template("unitary", cont=b, prefix=term),), ()
        case Measure(var=x, body=b):
            return (_Template("measure", make=lambda v: subst_classical(b, x, v),
                              prefix=term),), ()
        case Sum(left=l, right=r) | Parallel(left=l, right=r):
            steps = l._steps[0] + r._steps[0] if isinstance(term, Sum) else _parallel(l, r)
            return steps, l._steps[1] + r._steps[1]
        case Relabel(body=b, fn=f):
            steps, blocked = b._steps
            wrap = lambda t: Relabel(t, f)  # noqa: E731
            return tuple(s.wrapped(wrap, f) for s in steps), blocked
        case Restrict(body=b, chans=chans):
            steps, blocked = b._steps
            wrap = lambda t: Restrict(t, chans)  # noqa: E731
            return (tuple(s.wrapped(wrap) for s in steps if s.chan not in chans),
                    tuple(s for s in steps if s.chan in chans) + blocked)
        case If(cond=c, body=b) if eval_bool(c):
            return b._steps
    return (), ()


def _parallel(left, right) -> tuple:
    """The steps of left || right: each side's steps beside the other, where
    no pick may name a qubit of the peer (a symbolic input names a fresh
    one), then each output of one side meeting an input of the other."""
    ls, rs = left._steps[0], right._steps[0]
    beside_right, beside_left = (lambda t: Parallel(t, right)), (lambda t: Parallel(left, t))
    out = [s.wrapped(beside_right, avoid=qv(right)) for s in ls]
    out += [s.wrapped(beside_left, avoid=qv(left)) for s in rs]
    for outs, ins, build in ((ls, rs, lambda a, b: Parallel(a, b)),
                             (rs, ls, lambda a, b: Parallel(b, a))):
        for so in outs:
            # a classical output instantiates a symbolic input at its value;
            # a quantum output meets the pick of its qubit, which is in the
            # context and, as the peers share no qubit, in no pick's `avoid`
            if isinstance(so.action, COut):
                op, x = "input", so.action.value
            elif isinstance(so.action, QOut):
                op, x = "pick", so.action.qvar
            else:
                continue
            out += [_Template(None, cont=build(so.cont, si.at(x))) for si in ins
                    if si.op == op and si.chan == so.chan]
    return tuple(out)


def _moves(config: Configuration, policy: InputPolicy | None, fresh) -> list:
    """Each move of a configuration as (action, [(Configuration, p), ...]),
    unmerged: the context stage, which applies each step template's operation
    to the context (see _Template), drops outcomes at or below PROB_CUTOFF
    (context.measure), names new qubits by `fresh` and enumerates inputs."""
    policy = policy or InputPolicy()
    ctx = config.context
    moves, open_chans = [], []
    for s in config.process._steps[0]:
        op = s.op
        if op is None:
            moves.append((s.action, [(Configuration(s.cont, ctx), 1.0)]))
        elif op == "unitary":
            after = ctxmod.apply_unitary(ctx, s.prefix.gate, s.prefix.qvars)
            moves.append((TAU, [(Configuration(s.cont, after), 1.0)]))
        elif op == "measure":
            outcomes = ctxmod.measure(ctx, s.prefix.obs, s.prefix.qvars)
            moves.append((TAU, [(Configuration(s.at(ev), c2), p) for ev, p, c2 in outcomes]))
        elif op == "new":
            r = fresh(ctx, s.hint)
            moves.append((TAU, [(Configuration(s.at(r), ctxmod.new_qubit(ctx, r)), 1.0)]))
        elif op == "pick":
            moves += [(QIn(s.chan, r), [(Configuration(s.at(r), ctx), 1.0)])
                      for r in ctx.vars if r not in s.avoid]
        elif policy.closed_only:
            open_chans.append(s.chan)
        elif not s.chan.quantum:
            moves += [(CIn(s.chan, v), [(Configuration(s.at(v), ctx), 1.0)])
                      for v in map(float, policy.domain(s.chan))]
        else:
            r = fresh(ctx, s.hint)
            moves += [(QIn(s.chan, r), [(Configuration(s.at(r), extended), 1.0)])
                      for extended in (ctxmod.extend_with_input(ctx, r, single)
                                       for _, single in policy.quantum_recipes)]
    if open_chans:
        raise OpenConfiguration(open_chans)
    return moves


def transitions(
    config: Configuration,
    policy: InputPolicy | None = None,
    fresh=numbered_fresh,
) -> list:
    """All one-step transitions of a configuration as (action,
    ((Configuration, p), ...)) pairs, with input prefixes enumerated per the
    policy, under the merge and edge rules of build_lts (see _file), with
    every target filed once, in one index for the call."""
    index = ContextIndex()
    return _file(_moves(config, policy, fresh),
                 lambda c: index.file(c.key, c.context)[0], [])


def blocked_actions(config: Configuration) -> list:
    """Actions of the unrestricted inner behaviour that restriction filters
    out at this configuration (diagnostic for stuck reports), in pre-order
    of the restrictions, outer first, as the term stage stores them; no
    operation is applied, and a false `if` blocks nothing.  An input not yet
    instantiated shows with its binder: CIn(c, "x") for c?x, QIn(qc, "q") for qc?q."""
    actions: list = []
    for s in config.process._steps[1]:
        if s.op == "pick":
            actions += [QIn(s.chan, r) for r in config.context.vars if r not in s.avoid]
        else:
            actions.append(s.action if s.op is None
                           else (QIn if s.chan.quantum else CIn)(s.chan, s.hint))
    return list(dict.fromkeys(actions))


# -- finite exploration --


@dataclass
class Lts:
    """Explored transition graph: configurations plus per-node edges, each
    edge being an action and a distribution over node ids, in ascending id
    order.  No two edges of a node have the same action and the same target
    ids with each weight within ATOL (the edge rule of build_lts).  The
    checkers read it through node_count, node_edges, stuck, successors and
    terminal alone."""

    nodes: list
    edges: list  # edges[i] = [(Action, ((j, p), ...)), ...]
    initial: tuple

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_edges(self, i: int):
        return self.edges[i]

    def stuck(self, i: int) -> bool:
        return not self.edges[i]

    @_stored
    def terminal(self) -> tuple:
        """terminal[i]: None when node i can move, else the lowest stuck node
        of its terminal class.  Stuck nodes are filed in id order under their
        qubit names by the merge rule (ContextIndex.file), so each joins the
        lowest earlier head within ATOL of its context, or heads a class of
        its own.  The checkers read stuck contexts only through these
        classes, so equal stuck states are an equivalence relation."""
        index, heads, out = ContextIndex(), [], []
        for i, node in enumerate(self.nodes):
            if not self.stuck(i):
                out.append(None)
                continue
            j, new = index.file(node.context.names, node.context)
            if new:
                heads.append(i)
            out.append(heads[j])
        return tuple(out)

    def successors(self, i: int, action: Action) -> list:
        return [targets for a, targets in self.edges[i] if a == action]


def build_lts(
    roots,
    policy: InputPolicy | None = None,
    max_nodes: int = 4000,
    max_depth: int = 200,
) -> Lts:
    """Breadth-first closure of the derived moves from one or more roots.

    The merge rule: a configuration is a new node unless an existing node
    has an alpha-equivalent term and the same qubit names and a context
    within ATOL of its own (context_equal); then it merges into the lowest
    such node id.  The lookup goes by key, and in groups of more than a few
    nodes by cell (ContextIndex), not by a scan of every node; it finds the
    node a scan in id order would, so equal states reached on different
    paths merge.  Each derived target is filed once, and a move's weights
    are summed per node id.  The edge rule: a move is dropped when an
    earlier edge of its node has the same action and the same target ids
    with each weight within ATOL.  _file applies both rules, here and in
    transitions.  Deterministic for a fixed policy and bounds.  Raises
    BoundExceeded at max_nodes nodes or when a node at max_depth can move.
    """
    if isinstance(roots, Configuration):
        roots = [roots]
    policy = policy or InputPolicy()

    nodes: list = []
    edges: list = []
    index = ContextIndex()
    queue: deque = deque()

    def intern(config: Configuration, depth: int, at: int) -> int:
        """Node id of config; a new node is queued at depth `at`.  `depth`
        is the expanding node's, for BoundExceeded."""
        i, new = index.file(config.key, config.context)
        if new:
            if len(nodes) >= max_nodes:
                raise BoundExceeded("max_nodes", max_nodes, len(nodes), depth, len(queue))
            nodes.append(config)
            edges.append([])
            queue.append((i, at))
        return i

    initial = [intern(root, 0, 0) for root in roots]

    while queue:
        i, depth = queue.popleft()
        moves = _moves(nodes[i], policy, numbered_fresh)
        if moves and depth >= max_depth:
            raise BoundExceeded("max_depth", max_depth, len(nodes), depth, len(queue))
        _file(moves, lambda c: intern(c, depth, depth + 1), edges[i])

    return Lts(nodes, edges, tuple(initial))


# -- trace execution --


@dataclass
class TraceStep:
    action: Action
    distribution: list  # [(Configuration, p), ...]
    sampled: int | None = None


@dataclass
class TraceResult:
    steps: list
    final: list  # [(Configuration, p), ...]
    status: str  # 'terminated' | 'maxed'


def _chooser(scheduler):
    """choose(n, rng): the index of the option taken among n (see run_trace)."""
    if isinstance(scheduler, (list, tuple)):
        script = iter(scheduler)
        return lambda n, rng: next(script, 0) % n
    if scheduler == "first":
        return lambda n, rng: 0
    if scheduler == "random":
        return lambda n, rng: int(rng.integers(n))
    raise ValueError(f"unknown scheduler {scheduler!r}")


def run_trace(
    c0: Configuration,
    scheduler="first",
    seed: int | None = None,
    policy: InputPolicy | None = None,
    sample: bool = False,
    max_steps: int = 500,
) -> TraceResult:
    """Execute one adversary from c0.

    In distribution mode the full probability tree is carried along: each
    round picks an action enabled at every support point and lifts it.  In
    sample mode probabilistic branches are resolved with the seeded RNG.
    A point that cannot move has terminated when nothing is blocked there
    (blocked_actions).  Raises StuckError when progress stops before every
    point has: no point can move, or some can but no action is enabled.

    `scheduler` picks the action each round, and the move at a support
    point when it has more than one with that action: "first" takes the
    first option, "random" draws one with the seeded RNG, and a list of ints
    names the options in turn (modulo their number), then the first once it
    runs out.  Anything else raises ValueError.
    """
    choose = _chooser(scheduler)
    rng = np.random.default_rng(seed)
    steps: list = []
    current = [(c0, 1.0)]

    for _ in range(max_steps):
        per_point = [transitions(c, policy, hint_fresh) for c, _ in current]
        enabled = [{a for a, _ in trs} for trs in per_point]
        common = set.intersection(*enabled)
        if not common:
            points = [(p, tuple(sorted(actions, key=action_sort_key)),
                       () if trs else (tuple(blocked_actions(c)) or None))
                      for (c, p), actions, trs in zip(current, enabled, per_point)]
            if all(held is None for _, _, held in points):
                return TraceResult(steps, current, "terminated")
            raise StuckError([a for _, _, held in points for a in held or ()],
                             points if any(per_point) else ())

        if sample:
            trs = per_point[0]
            action, pairs = trs[choose(len(trs), rng)]
            probs = np.array([p for _, p in pairs])
            pick = int(rng.choice(len(pairs), p=probs / probs.sum()))
            steps.append(TraceStep(action, list(pairs), sampled=pick))
            current = [(pairs[pick][0], 1.0)]
            continue

        actions = sorted(common, key=action_sort_key)
        action = actions[choose(len(actions), rng)]

        pairs = []
        for (c, p), trs in zip(current, per_point):
            options = [dist for a, dist in trs if a == action]
            dist = options[choose(len(options), rng) if len(options) > 1 else 0]
            for c2, q in dist:
                pairs.append((c2, p * q))
        nu = Distribution(pairs)
        steps.append(TraceStep(action, list(nu.items())))
        current = list(nu.items())

    return TraceResult(steps, current, "maxed")


# -- serialisation --


def _complex_pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], -1).tolist()


def lts_to_json(lts: Lts) -> dict:
    from .frontend import pretty_print

    return {
        "format": "qccs-lts",
        "version": 1,
        "initial": list(lts.initial),
        "nodes": [
            {
                "id": i,
                "term": pretty_print(node.process),
                "vars": list(node.context.vars),
                "rho": _complex_pairs(node.context.rho),
                "stuck": lts.stuck(i),
            }
            for i, node in enumerate(lts.nodes)
        ],
        "edges": [
            {
                "source": i,
                "action": format_action(action),
                "targets": [{"node": j, "prob": p} for j, p in targets],
            }
            for i in range(lts.node_count)
            for action, targets in lts.edges[i]
        ],
    }


def lts_to_dot(lts: Lts) -> str:
    import hashlib

    from .frontend import pretty_print

    lines = ["digraph lts {", "  node [shape=box, fontname=monospace];"]
    for i, node in enumerate(lts.nodes):
        digest = hashlib.sha256(pretty_print(canonical(node.process)).encode()).hexdigest()[:6]
        shape = ', peripheries=2' if lts.stuck(i) else ""
        lines.append(f'  n{i} [label="n{i}:{digest}"{shape}];')
    choice = 0
    for i in range(lts.node_count):
        for action, targets in lts.edges[i]:
            label = format_action(action)
            if len(targets) == 1:
                j, p = targets[0]
                lines.append(f'  n{i} -> n{j} [label="{label}, {p:.4g}"];')
            else:
                c = f"c{choice}"
                choice += 1
                lines.append(f'  {c} [shape=point];')
                lines.append(f'  n{i} -> {c} [label="{label}"];')
                for j, p in targets:
                    lines.append(f'  {c} -> n{j} [label="{label}, {p:.4g}"];')
    lines.append("}")
    return "\n".join(lines)


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
