"""Shared test oracles, written independently of the code under test.

The partial-trace/lift oracles manipulate indices directly; the dense
partial trace and operator application are the density-matrix references
for the factored state kernel; the free-variable oracles re-state the
defining clauses, and hash_oracle recomputes a term's hash down the whole
term, reading no hash stored on a node; the brute-force bisimilarity oracle
enumerates every equivalence relation and decides hull membership with exact
rational arithmetic; BisimOracle decides strong, weak and eq from the
definitions, with its own linear programs solved by scipy's HiGHS.
restart_scan is the exception: the refinement loop that bisim's worklist
replaced, kept to compare split orders where they could matter.
terminated_oracle and blocked_oracle are the two walkers that stuck reports
used before the rule engine collected blocked actions itself; the second
asks derive_oracle only for the steps of a restriction's body.
derive_oracle, moves_oracle and blocked_actions_oracle are the one-pass rule
engine from before the term stage was stored on each term node: the whole
term is derived in its context on every call, and every continuation is
built anew.
wellformed_oracle is the walk that check_wellformed made before validity
became a summary stored on each node: it reads no stored findings.
apply_one_oracle and row_permuted_diagonal are the factor kernel's formulas
from before it permuted a factor once per measurement and the diagonal as a
vector; the kernel must match them bit for bit.  dense_context_equal is
context equality from its definition: both rho built, reordered by name and
compared entrywise, with no diagonal, cell or factor shortcut.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from scipy.optimize import linprog

from qccs import context as ctxmod
from qccs import syntax as S
from qccs.context import context_equal
from qccs.frontend import elaborate, parse
from qccs.linalg import ATOL, KET_MINUS, KET_PLUS, Observable, dm
from qccs.lts import (
    TAU, CIn, COut, Configuration, InputPolicy, OpenConfiguration, QIn, QOut, Tau,
    numbered_fresh,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PERFBENCH = CORPUS.parent / "perfbench"


def perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded source generator, loaded
    as a module of its own: it imports the standard library alone."""
    import importlib.util
    import sys

    if "perfbench_inputs" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                      PERFBENCH / "inputs.py")
        module = sys.modules["perfbench_inputs"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["perfbench_inputs"]


def corpus_configs(name: str, *configs: str) -> list:
    """The named configurations of corpus/<name>.qccs, from one elaboration."""
    elab = elaborate(parse((CORPUS / f"{name}.qccs").read_text(encoding="utf-8")))
    return [elab.configs[c] for c in configs]


OBS_MPM = Observable("Mpm", ((0.0, dm(KET_PLUS)), (1.0, dm(KET_MINUS))))


def node_of(graph, config):
    """The node id of `config` in an explored graph, or None: the lowest id
    with an equal key and a context equal within ATOL."""
    return next((i for i, node in enumerate(graph.nodes)
                 if node.key == config.key and context_equal(node.context, config.context)),
                None)


def is_classical(e) -> bool:
    """True iff the term never changes a quantum context: no allocation,
    quantum input, unitary or measurement anywhere (quantum output is fine)."""
    if isinstance(e, (S.QbitNew, S.QInput, S.Unitary, S.Measure)):
        return False
    return all(map(is_classical, S.subterms(e)))


# -- stuck configurations: termination and the actions restriction blocks --


def terminated_oracle(term) -> bool:
    """Structurally finished: nothing left that could ever fire."""
    if isinstance(term, S.If):
        return not S.eval_bool(term.cond) or terminated_oracle(term.body)
    if isinstance(term, (S.Nil, S.Parallel, S.Sum, S.Relabel, S.Restrict)):
        return all(map(terminated_oracle, S.subterms(term)))
    return False


@dataclass
class _Step:
    """A derived concrete transition: action plus (term, context, prob)
    targets.  Its `chan` is its action's, None for tau."""

    action: object
    targets: list

    @property
    def chan(self):
        return self.action.chan


@dataclass
class _InStep:
    """Symbolic input, kept open so a communication partner can instantiate
    it; `hint` is the prefix's binder and `cont` maps a value or a fresh
    qubit name to the continuation."""

    chan: S.Chan
    hint: str | None
    cont: object


def _rewrap(step, wrap, fn=None):
    """`step` with each target term t replaced by wrap(t), and its channel
    (tau has none) renamed by the relabelling `fn` when one is given."""
    if isinstance(step, _Step):
        action = step.action
        if fn is not None and action.chan is not None:
            action = replace(action, chan=fn.apply(action.chan))
        return _Step(action, [(wrap(t), c2, p) for t, c2, p in step.targets])
    chan = step.chan if fn is None else fn.apply(step.chan)
    return _InStep(chan, step.hint, lambda x: wrap(step.cont(x)))


def derive_oracle(term, ctx, fresh, blocked: list | None = None) -> list:
    """The steps of a term in a context, derived in one pass down the whole
    term, with every quantum operation applied on the way; a restriction
    adds the steps it filters out to `blocked`, ahead of inner ones."""
    match term:
        case S.Nil():
            return []
        case S.CInput(chan=c, var=x, body=b):
            return [_InStep(c, x, lambda v, b=b, x=x: S.subst_classical(b, x, v))]
        case S.COutput(chan=c, expr=e, body=b):
            return [_Step(COut(c, S.eval_expr(e)), [(b, ctx, 1.0)])]
        case S.QbitNew(qvar=q, body=b):
            r = fresh(ctx, q)
            return [_Step(TAU, [(S.subst_quantum(b, q, r), ctxmod.new_qubit(ctx, r), 1.0)])]
        case S.QInput(chan=c, qvar=q, body=b):
            taken = S.qv(b) - {q}
            steps: list = [_Step(QIn(c, r), [(S.subst_quantum(b, q, r), ctx, 1.0)])
                           for r in ctx.vars if r not in taken]
            steps.append(_InStep(c, q, lambda r, b=b, q=q: S.subst_quantum(b, q, r)))
            return steps
        case S.QOutput(chan=c, qvar=q, body=b):
            return [_Step(QOut(c, q), [(b, ctx, 1.0)])]
        case S.Unitary(gate=g, qvars=qs, body=b):
            return [_Step(TAU, [(b, ctxmod.apply_unitary(ctx, g, qs), 1.0)])]
        case S.Measure(obs=m, qvars=qs, var=x, body=b):
            outcomes = ctxmod.measure(ctx, m, qs)
            return [_Step(TAU, [(S.subst_classical(b, x, ev), c2, p) for ev, p, c2 in outcomes])]
        case S.Sum(left=l, right=r):
            return derive_oracle(l, ctx, fresh, blocked) + derive_oracle(r, ctx, fresh, blocked)
        case S.Parallel(left=l, right=r):
            return _compose_parallel(derive_oracle(l, ctx, fresh, blocked),
                                     derive_oracle(r, ctx, fresh, blocked), l, r)
        case S.Relabel(body=b, fn=f):
            return [_rewrap(s, lambda t: S.Relabel(t, f), f)
                    for s in derive_oracle(b, ctx, fresh, blocked)]
        case S.Restrict(body=b, chans=chans):
            at = len(blocked or ())
            steps = derive_oracle(b, ctx, fresh, blocked)
            if blocked is not None:
                blocked[at:at] = [s for s in steps if s.chan in chans]
            return [_rewrap(s, lambda t: S.Restrict(t, chans)) for s in steps
                    if s.chan not in chans]
        case S.If(cond=c, body=b):
            return derive_oracle(b, ctx, fresh, blocked) if S.eval_bool(c) else []
    raise TypeError(term)


def _compose_parallel(left_steps, right_steps, left_term, right_term) -> list:
    out: list = []

    def interleave(steps, other_term, combine):
        other_qv = S.qv(other_term)
        for s in steps:
            # a component may input a system only if its peer does not
            # reference it
            if isinstance(s, _Step) and isinstance(s.action, QIn) and s.action.qvar in other_qv:
                continue
            out.append(_rewrap(s, lambda t: combine(t, other_term)))

    interleave(left_steps, right_term, lambda t, o: S.Parallel(t, o))
    interleave(right_steps, left_term, lambda t, o: S.Parallel(o, t))

    def communicate(out_steps, in_steps, build):
        for so in out_steps:
            if not (isinstance(so, _Step) and isinstance(so.action, (COut, QOut))):
                continue
            (t_out, c_out, _), = so.targets
            if isinstance(so.action, COut):
                received = [si.cont(so.action.value) for si in in_steps
                            if isinstance(si, _InStep) and si.chan == so.chan]
            else:
                want = QIn(so.chan, so.action.qvar)
                received = [si.targets[0][0] for si in in_steps
                            if isinstance(si, _Step) and si.action == want]
            out.extend(_Step(TAU, [(build(t_out, t), c_out, 1.0)]) for t in received)

    communicate(left_steps, right_steps, lambda a, b: S.Parallel(a, b))
    communicate(right_steps, left_steps, lambda a, b: S.Parallel(b, a))
    return out


def moves_oracle(config, policy=None, fresh=numbered_fresh) -> list:
    """Each derived move of a configuration as (action, [(Configuration, p),
    ...]), unmerged, with input prefixes enumerated per the policy."""
    policy = policy or InputPolicy()
    steps = derive_oracle(config.process, config.context, fresh)
    open_chans = [s.chan for s in steps if not isinstance(s, _Step)]
    if open_chans and policy.closed_only:
        raise OpenConfiguration(open_chans)
    moves = []
    for s in steps:
        if isinstance(s, _Step):
            moves.append((s.action, [(Configuration(t, c2), p) for t, c2, p in s.targets]))
        elif not s.chan.quantum:
            for v in policy.domain(s.chan):
                moves.append((CIn(s.chan, float(v)),
                              [(Configuration(s.cont(float(v)), config.context), 1.0)]))
        else:
            r = fresh(config.context, s.hint)
            for _, single in policy.quantum_recipes:
                extended = ctxmod.extend_with_input(config.context, r, single)
                moves.append((QIn(s.chan, r), [(Configuration(s.cont(r), extended), 1.0)]))
    return moves


def _shown(step):
    """A blocked step's action; a symbolic input shows as its binder."""
    if isinstance(step, _Step):
        return step.action
    return (QIn if step.chan.quantum else CIn)(step.chan, step.hint)


def blocked_actions_oracle(config) -> list:
    """The actions restriction filters out, as the one-pass engine collected
    them: by restriction in pre-order, outer first, each once."""
    steps: list = []
    derive_oracle(config.process, config.context, numbered_fresh, steps)
    return list(dict.fromkeys(map(_shown, steps)))


def blocked_oracle(config) -> list:
    """The steps each restriction reached from the root filters out, by
    restriction in pre-order, outer first, each once; a symbolic input shows
    as its binder.  The walk descends through parallel, sum, relabelling and
    the body of a true `if`, and nowhere else."""
    blocked: list = []

    def strip(term):
        if isinstance(term, S.Restrict):
            blocked.extend(_shown(s) for s in derive_oracle(term.body, config.context,
                                                            numbered_fresh)
                           if s.chan in term.chans)
        if isinstance(term, S.If) and not S.eval_bool(term.cond):
            return
        if isinstance(term, (S.Parallel, S.Sum, S.Relabel, S.Restrict, S.If)):
            for sub in S.subterms(term):
                strip(sub)

    strip(config.process)
    return list(dict.fromkeys(blocked))


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


def _permuted_rows(k: np.ndarray, positions) -> tuple:
    """k's rows as a tensor with the listed qubits' axes first, and the axis
    order that gives it."""
    n = int(np.log2(k.shape[0]))
    positions = list(positions)
    order = positions + [i for i in range(n) if i not in positions] + [n]
    return k.reshape([2] * n + [k.shape[1]]).transpose(order), order


def apply_one_oracle(op, k: np.ndarray, positions) -> np.ndarray:
    """op K on the listed qubits of K's rows: K permuted for this one op and
    put back by np.argsort of the axis order, as measure once did for each
    projector."""
    op = np.asarray(op, dtype=complex)
    t, order = _permuted_rows(k, positions)
    t = (op @ t.reshape(op.shape[0], -1)).reshape(t.shape)
    return t.transpose(np.argsort(order)).reshape(k.shape)


def row_permuted_diagonal(k: np.ndarray, order) -> np.ndarray:
    """diag(K K^dag) indexed by the qubits in `order`: K's rows permuted
    first, then their squared norms."""
    k = _permuted_rows(k, order)[0].reshape(k.shape)
    return (k.real**2 + k.imag**2).sum(axis=1)


def dense_context_equal(c1, c2) -> bool:
    """Equal names, and both rho = K K^dag, with the qubits in sorted-name
    order, within ATOL entry by entry."""
    if sorted(c1.vars) != sorted(c2.vars):
        return False
    rhos = []
    for c in (c1, c2):
        rho = c.factor @ c.factor.conj().T
        rhos.append(partial_trace(rho, sorted(range(len(c.vars)), key=c.vars.__getitem__)))
    return bool(np.max(np.abs(rhos[0] - rhos[1]), initial=0.0) <= ATOL)


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


def wellformed_oracle(e) -> list:
    """The violations of e in pre-order, each with the child-index path of
    its node, found by one walk down the whole term; a node reports the
    first rule it breaks, and a misshapen operator has no arity."""
    out = []

    def walk(t, path):
        match t:
            case S.QOutput(qvar=q, body=b) if q in S.qv(b):
                out.append(S.Violation("output-then-use", path, f"{q} used after output"))
            case S.Parallel(left=l, right=r) if shared := S.qv(l) & S.qv(r):
                out.append(S.Violation("parallel-overlap", path,
                                       f"components share {{{', '.join(sorted(shared))}}}"))
            case S.Unitary(qvars=qs) | S.Measure(qvars=qs) if len(set(qs)) != len(qs):
                out.append(S.Violation("duplicate-qvar", path,
                                       f"repeated name in [{', '.join(qs)}]"))
            case S.Unitary(gate=op, qvars=qs) | S.Measure(obs=op, qvars=qs) \
                    if op.dim != 2 ** len(qs) and not op.misshapen:
                out.append(S.Violation("arity", path, f"{op} has dimension {op.dim}, "
                                       f"applied to [{', '.join(qs)}]"))
        for k, s in enumerate(S.subterms(t)):
            walk(s, path + (k,))

    walk(e, ())
    return out


def _expr_vars_oracle(e) -> set:
    if isinstance(e, S.Var):
        return {e.name}
    if isinstance(e, S.Const):
        return set()
    if isinstance(e, S.Not):
        return _expr_vars_oracle(e.body)
    return _expr_vars_oracle(e.left) | _expr_vars_oracle(e.right)


def fv_oracle(t) -> set:
    if isinstance(t, S.Nil):
        return set()
    if isinstance(t, (S.CInput, S.Measure)):
        return fv_oracle(t.body) - {t.var}
    if isinstance(t, S.COutput):
        return _expr_vars_oracle(t.expr) | fv_oracle(t.body)
    if isinstance(t, S.If):
        return _expr_vars_oracle(t.cond) | fv_oracle(t.body)
    if isinstance(t, (S.Sum, S.Parallel)):
        return fv_oracle(t.left) | fv_oracle(t.right)
    if isinstance(t, (S.QbitNew, S.QInput, S.QOutput, S.Unitary, S.Relabel, S.Restrict)):
        return fv_oracle(t.body)
    raise TypeError(t)


class _Hashed:
    """A stand-in, inside a tuple, for a value whose hash is already known."""

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


def hash_oracle(t) -> int:
    """The hash of a frozen dataclass, the hash of the tuple of its fields,
    with each process child hashed by this walk rather than by its own
    __hash__."""
    return hash(tuple(_Hashed(hash_oracle(v)) if isinstance(v, S.ProcessExpr) else v
                      for v in (getattr(t, f.name) for f in fields(t))))


# -- synthetic probabilistic transition systems --


@dataclass
class SyntheticLts:
    """Abstract finite LTS: integer nodes, arbitrary hashable actions,
    exact-rational edge probabilities, and an integer context label per node."""

    n: int
    edges_exact: list  # edges_exact[i] = [(action, ((j, Fraction), ...)), ...]
    labels: list       # context label per node

    def __post_init__(self):
        self.edges = [[(action, tuple((j, float(p)) for j, p in targets))
                       for action, targets in row] for row in self.edges_exact]

    @property
    def node_count(self) -> int:
        return self.n

    def node_edges(self, i: int):
        return self.edges[i]

    def stuck(self, i: int) -> bool:
        return not self.edges_exact[i]

    @cached_property
    def terminal(self) -> tuple:
        """None for a node that can move, else the lowest stuck node with its
        label."""
        first: dict = {}
        return tuple(first.setdefault(self.labels[i], i) if self.stuck(i) else None
                     for i in range(self.n))

    def successors(self, i: int, action):
        return [tg for a, tg in self.edges[i] if a == action]


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
                    if slts.stuck(x) and slts.labels[x] != slts.labels[y]:
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


# -- reading a matcher's answers --


def matcher_witness(matcher, node, action, vec, partition, strict=False):
    """The hull weights, or the flow as {variable name: value}, of a move of
    `node` that meets (action, vec) over `partition`, read as
    bisim._explain reads them: the question's answer, named by the
    question; None when there is none."""
    program, name = matcher.question(node, None, (action, tuple(vec)), partition, strict)
    answer = matcher.answer(program)
    return None if answer is None else name(answer)


# -- the restart scan that refinement used before its worklist --


def restart_scan(matcher, partition, requirements) -> list:
    """Refinement by the restart scan: take blocks in id order, owners in
    member order and each owner's `requirements(matcher, owner, partition)`
    in order; split on the first requirement that some but not all members
    meet, by partition.split, and scan again from the first block.  Returns
    the stable block_of, numbered by lowest member.  A reference for split
    order only: it asks `matcher`, so it shares every program with the code
    under test."""
    def first_split():
        for block_id, members in enumerate(partition.blocks()):
            for owner in members if len(members) > 1 else ():
                for requirement in requirements(matcher, owner, partition):
                    sat = {m for m in members if matcher.holds(m, owner, requirement, partition)}
                    if sat and len(sat) < len(members):
                        return block_id, sat
        return None

    while split := first_split():
        partition = partition.split(*split)
    return _by_lowest_member(partition.block_of)


# -- strong, weak and eq by their definitions, apart from qccs.bisim and qccs.lp --


def _by_lowest_member(block_of) -> list:
    """block_of renumbered so that blocks are numbered by lowest member."""
    remap: dict = {}
    return [remap.setdefault(b, len(remap)) for b in block_of]


def _stages(action, strict: bool):
    """A weak move as (steps, last stage).  Each step is (stage, label, next
    stage), with label None for a tau edge.  Mass enters at stage 0 and stops
    only in the last stage: tau* for a tau move, tau tau* for a strict one,
    and tau* a tau* for a visible action a."""
    if not isinstance(action, Tau):
        return ((0, None, 0), (0, action, 1), (1, None, 1)), 1
    if strict:
        return ((0, None, 1), (1, None, 1)), 1
    return ((0, None, 0),), 0


class BisimOracle:
    """Strong and weak bisimilarity and `eq` by their definitions, read off
    node_edges, stuck and terminal alone.

    A node meets a move (action, class vector) of another node by a combined
    move (strong), or by a weak move (weak): a flow of mass 1 along the
    product of the graph with the move's stages (see _stages) that stops in
    each block with the move's mass.  A stuck owner, in weak mode, also asks
    to reach, internally and with probability one, stuck nodes of its
    terminal class.  Each round splits every block by which of its members'
    moves and terminations each member meets, until no block splits.  The
    programs go to scipy's HiGHS, and each distinct program is solved once
    per oracle.  `eq` takes the weak partition and asks each move of one
    node to be met by the other with a strict move for tau.
    """

    def __init__(self, lts, tol: float = 1e-7):
        self.lts, self.tol = lts, tol
        self.known: dict = {}
        self.products: dict = {}
        self.partitions: dict = {}

    def feasible(self, a, b) -> bool:
        """Is a @ x = b for some x >= 0, within the tolerance?"""
        key = struct.pack("2q", *a.shape) + a.tobytes() + b.tobytes()
        if key not in self.known:
            res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None),
                          method="highs", options={"primal_feasibility_tolerance": self.tol})
            if res.status not in (0, 2):
                raise RuntimeError(f"HiGHS: {res.message}")
            self.known[key] = res.status == 0
        return self.known[key]

    def lifted(self, targets, block_of) -> list:
        vec = [0.0] * (max(block_of) + 1)
        for v, p in targets:
            vec[block_of[v]] += p
        return vec

    def combined(self, member, action, vec, block_of) -> bool:
        """Is vec a convex combination of member's `action` moves, lifted to
        blocks?  Rows: the weights sum to one, then one per block that vec or
        a move touches."""
        points = [self.lifted(tg, block_of) for a, tg in self.lts.node_edges(member)
                  if a == action]
        if len(points) < 2:
            # the weight of one move is 1
            return bool(points) and max(abs(p - v) for p, v in zip(points[0], vec)) <= self.tol
        table = np.array([vec, *points]).T
        table = table[table.any(axis=1)]
        return self.feasible(np.vstack([np.ones(len(points)), table[:, 1:]]),
                             np.concatenate([[1.0], table[:, 0]]))

    def product(self, member, steps):
        """The states (node, stage) reachable from (member, 0) along `steps`,
        in breadth-first order, and the conservation array: one row per
        state, one column per edge of the product, -1 where mass leaves a
        state and +p where it arrives."""
        got = self.products.get((member, steps))
        if got is None:
            states, index, edges = [(member, 0)], {(member, 0): 0}, []
            for i, (v, stage) in enumerate(states):
                for action, targets in self.lts.node_edges(v):
                    label = None if isinstance(action, Tau) else action
                    for after in (t for s, l, t in steps if s == stage and l == label):
                        out = []
                        for w, p in targets:
                            if (w, after) not in index:
                                index[(w, after)] = len(states)
                                states.append((w, after))
                            out.append((index[(w, after)], p))
                        edges.append((i, out))
            flows = np.zeros((len(states), len(edges)))
            for col, (i, out) in enumerate(edges):
                flows[i, col] -= 1.0
                for j, p in out:
                    flows[j, col] += p
            got = self.products[(member, steps)] = states, flows
        return got

    def reaches(self, member, steps, last, group_of, targets) -> bool:
        """Can mass 1 at member move along `steps` and stop in stage `last`,
        at nodes v with group_of(v) not None, with targets[g] stopped in group
        g?  Rows: conservation per state, then one per group."""
        states, flows = self.product(member, steps)
        stops = [(i, group_of(v)) for i, (v, stage) in enumerate(states)
                 if stage == last and group_of(v) is not None]
        groups = sorted({g for _, g in stops})
        if any(abs(t) > self.tol for g, t in enumerate(targets) if g not in groups):
            return False  # mass due in a group it cannot reach: a zero row
        row = {g: len(states) + r for r, g in enumerate(groups)}
        a = np.zeros((len(states) + len(groups), flows.shape[1] + len(stops)))
        a[:len(states), :flows.shape[1]] = flows
        for col, (i, g) in enumerate(stops, flows.shape[1]):
            a[i, col] = -1.0
            a[row[g], col] = 1.0
        b = np.zeros(len(a))
        b[0] = -1.0
        b[len(states):] = [targets[g] if g < len(targets) else 0.0 for g in groups]
        return self.feasible(a, b)

    def requirements(self, owner, block_of, mode) -> list:
        out = [(action, self.lifted(tg, block_of)) for action, tg in self.lts.node_edges(owner)]
        if mode == "weak" and self.lts.stuck(owner):
            out.append((None, None))
        return out

    def meets(self, member, owner, requirement, block_of, mode) -> bool:
        action, vec = requirement
        lts = self.lts
        if action is None:
            return self.reaches(member, *_stages(TAU, False),
                                lambda v: 0 if lts.stuck(v)
                                and lts.terminal[v] == lts.terminal[owner] else None, [1.0])
        if mode == "strong":
            return self.combined(member, action, vec, block_of)
        return self.reaches(member, *_stages(action, False), block_of.__getitem__, vec)

    def partition(self, mode: str) -> list:
        """The coarsest stable partition as block_of, blocks numbered by
        lowest member.  Strong mode starts from the stuck nodes grouped by
        terminal class, each joining the lowest head of its class, and one
        block for the rest; weak mode starts from one block."""
        if mode in self.partitions:
            return self.partitions[mode]
        lts, n = self.lts, self.lts.node_count
        block_of = [0] * n
        if mode == "strong":
            heads = []
            for v in range(n):
                if lts.stuck(v):
                    head = next((h for h in heads if lts.terminal[h] == lts.terminal[v]), v)
                    if head == v:
                        heads.append(v)
                    block_of[v] = head + 1
        block_of = _by_lowest_member(block_of)
        while True:
            signature = []
            for m in range(n):
                owners = [u for u in range(n) if block_of[u] == block_of[m]]
                signature.append((block_of[m], tuple(
                    self.meets(m, u, r, block_of, mode) for u in owners
                    for r in self.requirements(u, block_of, mode))))
            refined = _by_lowest_member(signature)
            if refined == block_of:
                self.partitions[mode] = block_of
                return block_of
            block_of = refined

    def equivalent(self, mode: str, left: int, right: int) -> bool:
        """The verdict of mode 'strong', 'weak' or 'eq' on the pair."""
        if mode == "eq":
            return self.eq(left, right)
        block_of = self.partition(mode)
        return block_of[left] == block_of[right]

    def eq(self, left: int, right: int) -> bool:
        """Each move of one node is met by a weak move of the other over the
        weak partition, strict for tau, and two stuck nodes are in one
        terminal class."""
        block_of = self.partition("weak")
        lts = self.lts
        for owner, partner in ((left, right), (right, left)):
            for action, targets in lts.node_edges(owner):
                if not self.reaches(partner, *_stages(action, True), block_of.__getitem__,
                                    self.lifted(targets, block_of)):
                    return False
        return not (lts.stuck(left) and lts.stuck(right)
                    and lts.terminal[left] != lts.terminal[right])
