"""Configurations, actions, distributions, and the operational-rule engine.

A configuration pairs a closed process term with a context instantiating its
free quantum variables.  `transitions` derives the one-step behaviour; input
prefixes are kept symbolic inside the derivation so that communication can
instantiate them at the exact transmitted value, and are enumerated against a
finite `InputPolicy` only when they surface as environment-facing actions.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import context as ctxmod
from . import linalg
from .context import ContextIndex, QContext, context_equal
from .syntax import (
    Chan, CInput, COutput, If, Measure, Nil, Parallel, ProcessExpr, QbitNew,
    QInput, QOutput, Relabel, Restrict, Sum, Unitary, assert_wellformed,
    canonical, eval_bool, eval_expr, fv_classical, qv, subst_classical,
    subst_quantum, subterms,
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
    interned, the depth of the node being expanded and the queue length."""

    def __init__(self, which, limit, nodes, depth, queued):
        self.which = which
        self.limit = limit
        self.nodes = nodes
        self.depth = depth
        self.queued = queued
        super().__init__(f"exploration exceeded {which}={limit} "
                         f"({nodes} nodes, depth {depth}, {queued} queued)")


class StuckError(LtsError):
    def __init__(self, blocked):
        self.blocked = tuple(blocked)
        labels = ", ".join(format_action(a) for a in self.blocked) or "none"
        super().__init__(f"execution is stuck; blocked actions: {labels}")


# -- actions --


@dataclass(frozen=True)
class Tau:
    pass


@dataclass(frozen=True)
class CIn:
    chan: Chan
    value: float

    def __post_init__(self):
        if self.chan.quantum:
            raise LtsError(f"classical action on quantum channel {self.chan}")


@dataclass(frozen=True)
class COut:
    chan: Chan
    value: float

    def __post_init__(self):
        if self.chan.quantum:
            raise LtsError(f"classical action on quantum channel {self.chan}")


@dataclass(frozen=True)
class QIn:
    chan: Chan
    qvar: str

    def __post_init__(self):
        if not self.chan.quantum:
            raise LtsError(f"quantum action on classical channel {self.chan}")


@dataclass(frozen=True)
class QOut:
    chan: Chan
    qvar: str

    def __post_init__(self):
        if not self.chan.quantum:
            raise LtsError(f"quantum action on classical channel {self.chan}")


Action = Tau | CIn | COut | QIn | QOut
TAU = Tau()


def channel_of(action: Action) -> Chan | None:
    match action:
        case Tau():
            return None
        case CIn(chan=c) | COut(chan=c) | QIn(chan=c) | QOut(chan=c):
            return c


def relabel_action(action: Action, fn) -> Action:
    match action:
        case Tau():
            return action
        case CIn(chan=c, value=v):
            return CIn(fn.apply(c), v)
        case COut(chan=c, value=v):
            return COut(fn.apply(c), v)
        case QIn(chan=c, qvar=q):
            return QIn(fn.apply(c), q)
        case QOut(chan=c, qvar=q):
            return QOut(fn.apply(c), q)


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def format_action(action) -> str:
    match action:
        case Tau():
            return "tau"
        case CIn(chan=c, value=v):
            return f"{c.name}?{_fmt_value(v)}"
        case COut(chan=c, value=v):
            return f"{c.name}!{_fmt_value(v)}"
        case QIn(chan=c, qvar=q):
            return f"{c.name}?{q}"
        case QOut(chan=c, qvar=q):
            return f"{c.name}!{q}"
        case _:
            return str(action)


def action_sort_key(action: Action):
    match action:
        case Tau():
            return (0, "", "", 0.0)
        case CIn(chan=c, value=v):
            return (1, c.name, "", v)
        case COut(chan=c, value=v):
            return (2, c.name, "", v)
        case QIn(chan=c, qvar=q):
            return (3, c.name, q, 0.0)
        case QOut(chan=c, qvar=q):
            return (4, c.name, q, 0.0)


# -- configurations and distributions --


@dataclass(eq=False)
class Configuration:
    process: ProcessExpr
    context: QContext

    def __post_init__(self):
        free = fv_classical(self.process)
        if free:
            raise BadConfiguration(f"process has free classical variables {sorted(free)}")
        missing = qv(self.process) - set(self.context.vars)
        if missing:
            raise BadConfiguration(f"context does not cover quantum variables {sorted(missing)}")

    @cached_property
    def canonical_process(self) -> ProcessExpr:
        return canonical(self.process)

    @cached_property
    def key(self) -> tuple:
        """What two equal configurations share exactly: the canonical term
        and the sorted qubit names.  Their contexts need only agree within
        ATOL, which a ContextIndex filed under this key decides."""
        return (self.canonical_process, self.context.names)

    def __str__(self) -> str:
        from .frontend import pretty_print  # local import to avoid a cycle

        return f"<{pretty_print(self.process)}; {self.context}>"


class Distribution:
    """Finite-support probability distribution over configurations.

    A configuration merges into the first earlier one within ATOL.  A
    distribution of more than one configuration keeps the index that found
    those merges, for approx_equal.
    """

    __slots__ = ("_pairs", "_index")

    def __init__(self, pairs):
        merged: list[list] = []
        index = None
        for config, p in pairs:
            p = float(p)
            if p <= 0:
                raise BadWeights(f"probability {p} is not in (0, 1]")
            if merged:
                if index is None:
                    index = ContextIndex()
                    index.add(merged[0][0].key, merged[0][0].context)
                j, new = index.file(config.key, config.context)
                if not new:
                    merged[j][1] += p
                    continue
            merged.append([config, p])
        if not merged:
            raise BadWeights("distribution must have nonempty support")
        total = sum(p for _, p in merged)
        if abs(total - 1.0) > linalg.ATOL:
            raise BadWeights(f"probabilities sum to {total}, not 1")
        self._pairs = tuple((c, p) for c, p in merged)
        self._index = index

    @staticmethod
    def point(config: Configuration) -> "Distribution":
        return Distribution([(config, 1.0)])

    def items(self):
        return self._pairs

    def support(self):
        return tuple(c for c, _ in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def approx_equal(self, other: "Distribution") -> bool:
        """Pairs each configuration, in order, with the first unpaired one of
        `other` that is equal within ATOL and has a weight within ATOL."""
        if len(self) != len(other):
            return False
        if other._index is None:
            (c, p), = self._pairs
            (d, q), = other._pairs
            return (abs(p - q) <= linalg.ATOL and c.key == d.key
                    and context_equal(c.context, d.context))
        used = set()
        for c, p in self._pairs:
            j = other._index.find(c.key, c.context, lambda j: j not in used
                                  and abs(p - other._pairs[j][1]) <= linalg.ATOL)
            if j is None:
                return False
            used.add(j)
        return True

    def __str__(self) -> str:
        return " (+) ".join(f"{p:.4g}*{c}" for c, p in self._pairs)


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
    are refused instead, which keeps every verdict exact.
    """

    classical_domains: tuple = ()  # ((Chan, (values...)), ...)
    quantum_recipes: tuple = DEFAULT_QUANTUM_RECIPES
    closed_only: bool = True

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


@dataclass
class _Step:
    """A derived concrete transition: action plus (term, context, prob) targets."""

    action: Action
    targets: list

    @property
    def chan(self) -> Chan | None:
        return channel_of(self.action)


@dataclass
class _InStep:
    """Symbolic input, kept open so a communication partner can instantiate
    it.  A classical input takes a value, from the partner's output or the
    policy's finite domain; the context never changes.  A quantum input takes
    the fresh name (`hint` suggests one) of a system not yet in the context,
    whose joint state comes from the policy's extension recipes."""

    chan: Chan
    hint: str | None
    cont: object  # value or fresh qvar name -> ProcessExpr


def _rewrap(step, wrap, fn=None):
    """`step` with each target term t replaced by wrap(t), and its channel
    renamed by the relabelling `fn` when one is given."""
    if isinstance(step, _Step):
        action = step.action if fn is None else relabel_action(step.action, fn)
        return _Step(action, [(wrap(t), c2, p) for t, c2, p in step.targets])
    chan = step.chan if fn is None else fn.apply(step.chan)
    return _InStep(chan, step.hint, lambda x: wrap(step.cont(x)))


def _derive(term: ProcessExpr, ctx: QContext, fresh) -> list:
    match term:
        case Nil():
            return []

        case CInput(chan=c, var=x, body=b):
            return [_InStep(c, None, lambda v, b=b, x=x: subst_classical(b, x, v))]

        case COutput(chan=c, expr=e, body=b):
            return [_Step(COut(c, eval_expr(e)), [(b, ctx, 1.0)])]

        case QbitNew(qvar=q, body=b):
            r = fresh(ctx, q)
            return [_Step(TAU, [(subst_quantum(b, q, r), ctxmod.new_qubit(ctx, r), 1.0)])]

        case QInput(chan=c, qvar=q, body=b):
            taken = qv(b) - {q}
            steps: list = [
                _Step(QIn(c, r), [(subst_quantum(b, q, r), ctx, 1.0)])
                for r in ctx.vars
                if r not in taken
            ]
            steps.append(_InStep(c, q, lambda r, b=b, q=q: subst_quantum(b, q, r)))
            return steps

        case QOutput(chan=c, qvar=q, body=b):
            return [_Step(QOut(c, q), [(b, ctx, 1.0)])]

        case Unitary(gate=g, qvars=qs, body=b):
            return [_Step(TAU, [(b, ctxmod.apply_unitary(ctx, g.matrix, qs), 1.0)])]

        case Measure(obs=m, qvars=qs, var=x, body=b):
            outcomes = ctxmod.measure(ctx, m, qs)
            return [_Step(TAU, [(subst_classical(b, x, ev), c2, p) for ev, p, c2 in outcomes])]

        case Sum(left=l, right=r):
            return _derive(l, ctx, fresh) + _derive(r, ctx, fresh)

        case Parallel(left=l, right=r):
            return _compose_parallel(_derive(l, ctx, fresh), _derive(r, ctx, fresh), l, r, ctx)

        case Relabel(body=b, fn=f):
            return [_rewrap(s, lambda t: Relabel(t, f), f) for s in _derive(b, ctx, fresh)]

        case Restrict(body=b, chans=blocked):
            return [_rewrap(s, lambda t: Restrict(t, blocked))
                    for s in _derive(b, ctx, fresh) if s.chan not in blocked]

        case If(cond=c, body=b):
            return _derive(b, ctx, fresh) if eval_bool(c) else []

    raise LtsError(f"bad process term {term!r}")


def _compose_parallel(left_steps, right_steps, left_term, right_term, ctx) -> list:
    out: list = []
    qv_left = qv(left_term)
    qv_right = qv(right_term)

    def interleave(steps, other_term, other_qv, combine):
        for s in steps:
            # a component may input a system only if its peer does not
            # reference it; a symbolic input's name is fresh for the whole
            # context, hence also for the peer
            if isinstance(s, _Step) and isinstance(s.action, QIn) and s.action.qvar in other_qv:
                continue
            out.append(_rewrap(s, lambda t: combine(t, other_term)))

    interleave(left_steps, right_term, qv_right, lambda t, o: Parallel(t, o))
    interleave(right_steps, left_term, qv_left, lambda t, o: Parallel(o, t))

    def communicate(out_steps, in_steps, build):
        for so in out_steps:
            if not isinstance(so, _Step):
                continue
            if isinstance(so.action, COut):
                for si in in_steps:
                    if isinstance(si, _InStep) and si.chan == so.action.chan:
                        (t_out, c_out, _), = so.targets
                        out.append(_Step(TAU, [(build(t_out, si.cont(so.action.value)), c_out, 1.0)]))
            elif isinstance(so.action, QOut):
                for si in in_steps:
                    if (
                        isinstance(si, _Step)
                        and isinstance(si.action, QIn)
                        and si.action.chan == so.action.chan
                        and si.action.qvar == so.action.qvar
                        and si.targets[0][1].vars == ctx.vars  # in-context input only
                    ):
                        (t_out, c_out, _), = so.targets
                        (t_in, _, _), = si.targets
                        out.append(_Step(TAU, [(build(t_out, t_in), c_out, 1.0)]))

    communicate(left_steps, right_steps, lambda a, b: Parallel(a, b))
    communicate(right_steps, left_steps, lambda a, b: Parallel(b, a))
    return out


def transitions(
    config: Configuration,
    policy: InputPolicy | None = None,
    fresh=numbered_fresh,
) -> list:
    """All one-step transitions of a configuration as (action, distribution)
    pairs, with input prefixes enumerated per the policy."""
    policy = policy or InputPolicy()
    steps = _derive(config.process, config.context, fresh)
    open_chans = [s.chan for s in steps if not isinstance(s, _Step)]
    if open_chans and policy.closed_only:
        raise OpenConfiguration(open_chans)

    result = []
    for s in steps:
        if isinstance(s, _Step):
            dist = Distribution([(Configuration(t, c2), p) for t, c2, p in s.targets])
            result.append((s.action, dist))
        elif not s.chan.quantum:
            for v in policy.domain(s.chan):
                result.append((CIn(s.chan, float(v)),
                               Distribution.point(Configuration(s.cont(float(v)), config.context))))
        else:
            r = fresh(config.context, s.hint)
            for _, single in policy.quantum_recipes:
                extended = ctxmod.extend_with_input(config.context, r, single)
                result.append((QIn(s.chan, r),
                               Distribution.point(Configuration(s.cont(r), extended))))

    return _dedup_transitions(result)


def _dedup_transitions(trs) -> list:
    kept = []
    for action, dist in trs:
        if not any(a == action and d.approx_equal(dist) for a, d in kept):
            kept.append((action, dist))
    return kept


def blocked_actions(config: Configuration, fresh=numbered_fresh) -> list:
    """Actions of the unrestricted inner behaviour that restriction filters
    out at this configuration (diagnostic for stuck reports)."""
    blocked: list = []

    def strip(term):
        match term:
            case Restrict(body=b, chans=chans):
                inner = _derive(b, config.context, fresh)
                for s in inner:
                    if s.chan not in chans:
                        continue
                    if isinstance(s, _Step):
                        blocked.append(s.action)
                    else:
                        blocked.append(CIn(s.chan, float("nan")) if not s.chan.quantum
                                       else QIn(s.chan, "?"))
                strip(b)
            case Parallel(left=l, right=r) | Sum(left=l, right=r):
                strip(l)
                strip(r)
            case Relabel(body=b) | If(body=b):
                strip(b)
            case _:
                pass

    strip(config.process)
    seen = []
    for a in blocked:
        if a not in seen:
            seen.append(a)
    return seen


# -- finite exploration --


@dataclass
class Lts:
    """Explored transition graph: configurations plus per-node edges, each
    edge being an action and a distribution over node ids.  `index` files
    each node's context under its configuration key, with ids = node ids."""

    nodes: list
    edges: list  # edges[i] = [(Action, ((j, p), ...)), ...]
    initial: tuple
    index: ContextIndex = field(repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_edges(self, i: int):
        return self.edges[i]

    def stuck(self, i: int) -> bool:
        return not self.edges[i]

    def terminal_equal(self, i: int, j: int) -> bool:
        return context_equal(self.nodes[i].context, self.nodes[j].context)

    @cached_property
    def _stuck_index(self) -> tuple:
        """(index, node ids): the stuck nodes' contexts filed under their
        sorted names, and the node id of each index id."""
        index, ids = ContextIndex(), []
        for i, node in enumerate(self.nodes):
            if self.stuck(i):
                index.add(node.context.names, node.context)
                ids.append(i)
        return index, ids

    def terminal_matches(self, i: int, accept=None):
        """The stuck nodes whose contexts equal node i's within ATOL, in
        ascending id order; `accept(node)` filters them before any context
        is compared."""
        index, ids = self._stuck_index
        ctx = self.nodes[i].context
        keep = None if accept is None else (lambda j: accept(ids[j]))
        return (ids[j] for j in index.matches(ctx.names, ctx, keep))

    def successors(self, i: int, action: Action) -> list:
        return [targets for a, targets in self.edges[i] if a == action]


def build_lts(
    roots,
    policy: InputPolicy | None = None,
    max_nodes: int = 4000,
    max_depth: int = 200,
    fresh=numbered_fresh,
) -> Lts:
    """Breadth-first closure of `transitions` from one or more roots.

    The merge rule: a configuration is a new node unless an existing node
    has the same canonical term and the same qubit names and a context
    within ATOL of its own (context_equal); then it merges into the lowest
    such node id.  The lookup goes by key, and in groups of more than a few
    nodes by cell (ContextIndex), not by a scan of every node; it finds the
    node a scan in id order would, so equal states reached on different
    paths merge.  Deterministic for a fixed policy and bounds.  Raises
    BoundExceeded at max_nodes nodes or when a node at max_depth can move.
    """
    if isinstance(roots, Configuration):
        roots = [roots]
    policy = policy or InputPolicy()

    nodes: list = []
    edges: list = []
    index = ContextIndex()
    queue: deque = deque()

    def intern(config: Configuration, depth: int) -> int:
        i, new = index.file(config.key, config.context)
        if new:
            if len(nodes) >= max_nodes:
                raise BoundExceeded("max_nodes", max_nodes, len(nodes), depth, len(queue))
            nodes.append(config)
            edges.append([])
        return i

    initial = []
    for root in roots:
        assert_wellformed(root.process)
        i = intern(root, 0)
        initial.append(i)
        queue.append((i, 0))

    expanded = set()
    while queue:
        i, depth = queue.popleft()
        if i in expanded:
            continue
        expanded.add(i)
        trs = transitions(nodes[i], policy, fresh)
        if trs and depth >= max_depth:
            raise BoundExceeded("max_depth", max_depth, len(nodes), depth, len(queue))
        for action, dist in trs:
            weights: dict = {}
            for config, p in dist.items():
                j = intern(config, depth)
                weights[j] = weights.get(j, 0.0) + p
                if j not in expanded:
                    queue.append((j, depth + 1))
            edge = (action, tuple(sorted(weights.items())))
            if edge not in edges[i]:
                edges[i].append(edge)

    return Lts(nodes, edges, tuple(initial), index)


# -- trace execution --


def is_terminated(term: ProcessExpr) -> bool:
    """Structurally finished: nothing left that could ever fire."""
    match term:
        case Nil() | Parallel() | Sum() | Relabel() | Restrict():
            return all(map(is_terminated, subterms(term)))
        case If(cond=c, body=b):
            return (not eval_bool(c)) or is_terminated(b)
    return False


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


class _FirstScheduler:
    def choose(self, options, rng):
        return 0


class _RandomScheduler:
    def choose(self, options, rng):
        return int(rng.integers(len(options)))


class _ScriptScheduler:
    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def choose(self, options, rng):
        if self.pos >= len(self.script):
            return 0
        k = self.script[self.pos]
        self.pos += 1
        return k % len(options)


def make_scheduler(spec):
    if spec == "first" or spec is None:
        return _FirstScheduler()
    if spec == "random":
        return _RandomScheduler()
    if isinstance(spec, (list, tuple)):
        return _ScriptScheduler(spec)
    return spec


def run_trace(
    c0: Configuration,
    scheduler="first",
    seed: int | None = None,
    policy: InputPolicy | None = None,
    sample: bool = False,
    max_steps: int = 500,
    fresh=hint_fresh,
) -> TraceResult:
    """Execute one adversary from c0.

    In distribution mode the full probability tree is carried along: each
    round picks an action enabled at every support point and lifts it.  In
    sample mode probabilistic branches are resolved with the seeded RNG.
    Raises StuckError when progress stops before termination.
    """
    assert_wellformed(c0.process)
    sched = make_scheduler(scheduler)
    rng = np.random.default_rng(seed)
    steps: list = []
    current = [(c0, 1.0)]

    for _ in range(max_steps):
        per_point = [transitions(c, policy, fresh) for c, _ in current]
        if all(not trs for trs in per_point):
            if all(is_terminated(c.process) for c, _ in current):
                return TraceResult(steps, current, "terminated")
            blocked = []
            for c, _ in current:
                blocked.extend(blocked_actions(c, fresh))
            raise StuckError(blocked)

        if sample and len(current) == 1:
            trs = per_point[0]
            if not trs:
                raise StuckError(blocked_actions(current[0][0], fresh))
            k = sched.choose([a for a, _ in trs], rng)
            action, dist = trs[k]
            pairs = dist.items()
            probs = np.array([p for _, p in pairs])
            pick = int(rng.choice(len(pairs), p=probs / probs.sum()))
            steps.append(TraceStep(action, list(pairs), sampled=pick))
            current = [(pairs[pick][0], 1.0)]
            continue

        common = None
        for trs in per_point:
            acts = {a for a, _ in trs}
            common = acts if common is None else (common & acts)
        common = sorted(common or (), key=action_sort_key)
        if not common:
            blocked = []
            for (c, _), trs in zip(current, per_point):
                if not trs:
                    blocked.extend(blocked_actions(c, fresh))
            raise StuckError(blocked)
        action = common[sched.choose(common, rng)]

        pairs = []
        for (c, p), trs in zip(current, per_point):
            options = [dist for a, dist in trs if a == action]
            dist = options[sched.choose(options, rng) if len(options) > 1 else 0]
            for c2, q in dist.items():
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
        digest = hashlib.sha256(pretty_print(node.canonical_process).encode()).hexdigest()[:6]
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
