"""Process terms: constructors, free-variable functions, substitution, validity.

Terms are immutable; equality is structural and works on every node, so
terms can be used directly as dictionary keys.  Gate and measurement payloads
compare by name plus a matrix fingerprint (see linalg.Gate).

Each process node carries summaries of itself: its free quantum and
classical variables (`qv`, `fv_classical`), its validity findings
(`check_wellformed`), its hash, its `alpha_key` and its step templates (the
rule engine's term stage, lts._term_stage).  Each is computed on first use
from the children's summaries and stored on the node, so it is computed at
most once per node; none takes part in == or repr or a pickle, and the
hash is the one the dataclass would compute from the fields.  Substitution
returns every subterm in which the variable is not free as the same
object, so a derived term shares its untouched subterms, and their stored
summaries, with the term it came from.  Substitution stores nothing: the
step template that calls it (lts._Template.at) keeps the term it builds.

One table knows where each of the 13 process constructors keeps its
subterms; `subterms` and `rebuild` read it, so each traversal here spells out
only the constructors where it binds, renames or reads an expression.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count

from .linalg import Gate, Observable, _stored


class SyntaxError_(Exception):
    pass


class UnboundVariable(SyntaxError_):
    pass


class ValueOutOfRange(SyntaxError_):
    """Classical arithmetic overflowed a float at run time."""


class BadRelabeling(SyntaxError_):
    pass


class WellformednessError(SyntaxError_):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class Chan:
    """A channel name tagged with its kind; classical and quantum channels
    live in separate namespaces."""

    name: str
    quantum: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RelabelFn:
    """Finite channel renaming, identity outside the listed pairs."""

    pairs: tuple  # ((Chan, Chan), ...), sorted for canonical equality

    def __init__(self, mapping):
        items = tuple(sorted(mapping.items() if isinstance(mapping, dict) else mapping,
                             key=lambda p: (p[0].quantum, p[0].name)))
        for src, dst in items:
            if src.quantum != dst.quantum:
                raise BadRelabeling(f"relabeling {src} -> {dst} crosses channel kinds")
        object.__setattr__(self, "pairs", items)

    def apply(self, chan: Chan) -> Chan:
        for src, dst in self.pairs:
            if src == chan:
                return dst
        return chan


# -- classical value and boolean expressions --


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str  # '+', '-', '*'
    left: "ValueExpr"
    right: "ValueExpr"


ValueExpr = Const | Var | Arith


@dataclass(frozen=True)
class Cmp:
    op: str  # '=', '<', '<='
    left: ValueExpr
    right: ValueExpr


@dataclass(frozen=True)
class BoolOp:
    op: str  # '&&', '||'
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Not:
    body: "BoolExpr"


BoolExpr = Cmp | BoolOp | Not


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(e: ValueExpr, env: dict | None = None) -> float:
    match e:
        case Const(value=v):
            return float(v)
        case Var(name=x):
            if env and x in env:
                return float(env[x])
            raise UnboundVariable(f"classical variable {x} is unbound")
        case Arith(op=op, left=l, right=r) if op in _ARITH:
            a, b = eval_expr(l, env), eval_expr(r, env)
            out = _ARITH[op](a, b)
            if not math.isfinite(out):
                raise ValueOutOfRange(f"classical value out of range: {a:g} {op} {b:g}")
            return out
    raise SyntaxError_(f"bad value expression {e!r}")


def eval_bool(b: BoolExpr, env: dict | None = None) -> bool:
    match b:
        case Cmp(op=op, left=l, right=r):
            a, c = eval_expr(l, env), eval_expr(r, env)
            if op == "=":
                return a == c
            if op == "<":
                return a < c
            if op == "<=":
                return a <= c
        case BoolOp(op=op, left=l, right=r):
            if op == "&&":
                return eval_bool(l, env) and eval_bool(r, env)
            if op == "||":
                return eval_bool(l, env) or eval_bool(r, env)
        case Not(body=e):
            return not eval_bool(e, env)
    raise SyntaxError_(f"bad boolean expression {b!r}")


def expr_vars(e) -> frozenset:
    match e:
        case Const():
            return frozenset()
        case Var(name=x):
            return frozenset([x])
        case Arith(left=l, right=r) | Cmp(left=l, right=r) | BoolOp(left=l, right=r):
            return expr_vars(l) | expr_vars(r)
        case Not(body=b):
            return expr_vars(b)
    raise SyntaxError_(f"bad expression {e!r}")


def _map_vars(e, f):
    """The expression e with each variable y replaced by the expression f(y)."""
    match e:
        case Const():
            return e
        case Var(name=y):
            return f(y)
        case Arith(op=op, left=l, right=r) | Cmp(op=op, left=l, right=r) \
                | BoolOp(op=op, left=l, right=r):
            return type(e)(op, _map_vars(l, f), _map_vars(r, f))
        case Not(body=b):
            return Not(_map_vars(b, f))
    raise SyntaxError_(f"bad expression {e!r}")


# -- process terms --


class _Term:
    """Base of the 13 process constructors.  A node stores its free quantum
    and classical variables, its validity findings, its hash, its alpha key
    and its step templates, each computed from its children's at most once."""

    @_stored
    def _qv(self) -> frozenset:
        match self:
            case QbitNew(qvar=q, body=b) | QInput(qvar=q, body=b):
                return b._qv - {q}
            case QOutput(qvar=q, body=b):
                return b._qv | {q}
            case Unitary(qvars=qs, body=b) | Measure(qvars=qs, body=b):
                return b._qv | frozenset(qs)
        kids = subterms(self)
        if len(kids) == 1:  # an only child's set is shared
            return kids[0]._qv
        return frozenset().union(*[s._qv for s in kids])

    @_stored
    def _fv(self) -> frozenset:
        match self:
            case CInput(var=x, body=b) | Measure(var=x, body=b):
                return b._fv - {x}
            case COutput(expr=c, body=b) | If(cond=c, body=b):
                return expr_vars(c) | b._fv
        kids = subterms(self)
        if len(kids) == 1:
            return kids[0]._fv
        return frozenset().union(*[s._fv for s in kids])

    @_stored
    def _violations(self) -> tuple:
        # the rule this node breaks, if any, then each child's findings with
        # the child's index prefixed to their paths: a valid subterm stores ()
        found = []
        for k, s in enumerate(subterms(self)):
            if _checked(s)._violations:
                found += [Violation(v.kind, (k, *v.path), v.detail) for v in s._violations]
        own = _own_violation(self) if type(self) in _RULED else None
        return (own, *found) if own else tuple(found)

    @_stored
    def _steps(self) -> tuple:
        return _lts._term_stage(self)

    @_stored
    def _hash(self) -> int:
        return self._field_hash()

    @_stored
    def _key(self) -> "ProcessExpr":
        if isinstance(self, _BINDERS):
            return canonical(self)
        if all(s._key is s for s in subterms(self)):
            return self
        return rebuild(self, lambda s: s._key)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # a pickle carries the fields only: a stored hash holds only in the
        # interpreter that computed it, and step templates hold functions
        return {k: v for k, v in self.__dict__.items() if k not in vars(_Term)}


def _term(cls):
    """A process constructor: a frozen dataclass whose field hash is
    computed once and stored on the node."""
    cls = dataclass(frozen=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = _Term.__hash__
    return cls


@_term
class Nil(_Term):
    pass


@_term
class CInput(_Term):
    chan: Chan
    var: str
    body: "ProcessExpr"


@_term
class COutput(_Term):
    chan: Chan
    expr: ValueExpr
    body: "ProcessExpr"


@_term
class QbitNew(_Term):
    qvar: str
    body: "ProcessExpr"


@_term
class QInput(_Term):
    chan: Chan
    qvar: str
    body: "ProcessExpr"


@_term
class QOutput(_Term):
    chan: Chan
    qvar: str
    body: "ProcessExpr"


@_term
class Unitary(_Term):
    gate: Gate
    qvars: tuple
    body: "ProcessExpr"


@_term
class Measure(_Term):
    obs: Observable
    qvars: tuple
    var: str
    body: "ProcessExpr"


@_term
class Sum(_Term):
    left: "ProcessExpr"
    right: "ProcessExpr"


@_term
class Parallel(_Term):
    left: "ProcessExpr"
    right: "ProcessExpr"


@_term
class Relabel(_Term):
    body: "ProcessExpr"
    fn: RelabelFn


@_term
class Restrict(_Term):
    body: "ProcessExpr"
    chans: frozenset


@_term
class If(_Term):
    cond: BoolExpr
    body: "ProcessExpr"


ProcessExpr = (
    Nil | CInput | COutput | QbitNew | QInput | QOutput | Unitary | Measure
    | Sum | Parallel | Relabel | Restrict | If
)

_BINDERS = (CInput, QbitNew, QInput, Measure)


# Per constructor: its process subterms in order, and the node rebuilt around
# f(subterm) by a direct constructor call.  The traversals below name only the
# constructors that bind, rename or read an expression.
_TABLE = {
    Nil: (lambda t: (), lambda t, f: t),
    CInput: (lambda t: (t.body,), lambda t, f: CInput(t.chan, t.var, f(t.body))),
    COutput: (lambda t: (t.body,), lambda t, f: COutput(t.chan, t.expr, f(t.body))),
    QbitNew: (lambda t: (t.body,), lambda t, f: QbitNew(t.qvar, f(t.body))),
    QInput: (lambda t: (t.body,), lambda t, f: QInput(t.chan, t.qvar, f(t.body))),
    QOutput: (lambda t: (t.body,), lambda t, f: QOutput(t.chan, t.qvar, f(t.body))),
    Unitary: (lambda t: (t.body,), lambda t, f: Unitary(t.gate, t.qvars, f(t.body))),
    Measure: (lambda t: (t.body,), lambda t, f: Measure(t.obs, t.qvars, t.var, f(t.body))),
    Sum: (lambda t: (t.left, t.right), lambda t, f: Sum(f(t.left), f(t.right))),
    Parallel: (lambda t: (t.left, t.right), lambda t, f: Parallel(f(t.left), f(t.right))),
    Relabel: (lambda t: (t.body,), lambda t, f: Relabel(f(t.body), t.fn)),
    Restrict: (lambda t: (t.body,), lambda t, f: Restrict(f(t.body), t.chans)),
    If: (lambda t: (t.body,), lambda t, f: If(t.cond, f(t.body))),
}


def _not_a_term(term, *_):
    raise SyntaxError_(f"bad process term {term!r}")


_NOT_A_TERM = (_not_a_term, _not_a_term)


def subterms(term: ProcessExpr) -> tuple:
    """The process children of a term, left to right."""
    return _TABLE.get(type(term), _NOT_A_TERM)[0](term)


def rebuild(term: ProcessExpr, f) -> ProcessExpr:
    """The term with f applied to each process child, left to right."""
    return _TABLE.get(type(term), _NOT_A_TERM)[1](term, f)


def _checked(e) -> _Term:
    if not isinstance(e, _Term):
        _not_a_term(e)
    return e


def qv(e: ProcessExpr) -> frozenset:
    """Free quantum variables: allocation and quantum input bind them;
    quantum output, unitaries and measurements use them."""
    return _checked(e)._qv


def fv_classical(e: ProcessExpr) -> frozenset:
    """Free classical variables; input and measurement prefixes bind."""
    return _checked(e)._fv


@dataclass(frozen=True)
class Violation:
    kind: str  # 'output-then-use' | 'parallel-overlap' | 'duplicate-qvar' | 'arity'
    path: tuple
    detail: str

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"{self.kind} at {where}: {self.detail}"


def _own_violation(t) -> Violation | None:
    """The first validity rule that t's own node breaks, if any."""
    match t:
        case Parallel(left=l, right=r) if not l._qv.isdisjoint(r._qv):
            return Violation("parallel-overlap", (),
                             f"components share {{{', '.join(sorted(l._qv & r._qv))}}}")
        case QOutput(qvar=q, body=b) if q in b._qv:
            return Violation("output-then-use", (), f"{q} used after output")
        case Unitary(qvars=qs) | Measure(qvars=qs) if len(set(qs)) != len(qs):
            return Violation("duplicate-qvar", (), f"repeated name in [{', '.join(qs)}]")
        case Unitary(gate=op, qvars=qs) | Measure(obs=op, qvars=qs) \
                if op.dim != 2 ** len(qs) and not op.misshapen:
            return Violation("arity", (), f"{op} has dimension {op.dim}, "
                             f"applied to [{', '.join(qs)}]")


# the constructors with a rule of their own: a node of any other skips the match
_RULED = frozenset({QOutput, Parallel, Unitary, Measure})


def check_wellformed(e: ProcessExpr) -> list:
    """Validity constraints of the no-cloning discipline, and that each gate
    or measurement is given as many qubits as it acts on; one that is not
    square over qubits (`misshapen`) has no arity, as its fault says.

    Returns the violations found (empty list means the term is valid), in
    pre-order; each one carries the child-index path of the offending
    subterm.
    """
    return list(_checked(e)._violations)


def subst_classical(e: ProcessExpr, x: str, v: float) -> ProcessExpr:
    """Instantiate the free classical variable x with the value v.  A subterm
    in which x is not free comes back as the same object."""

    def value(y):
        return Const(v) if y == x else Var(y)

    def sub(t):
        if x not in t._fv:
            return t
        match t:
            case COutput(chan=c, expr=ve, body=b):
                return COutput(c, _map_vars(ve, value), sub(b))
            case If(cond=c, body=b):
                return If(_map_vars(c, value), sub(b))
        return rebuild(t, sub)

    return sub(_checked(e))


def _fresh_qvar(base: str, avoid) -> str:
    cand = base + "'"
    while cand in avoid:
        cand += "'"
    return cand


def subst_quantum(e: ProcessExpr, q: str, r: str) -> ProcessExpr:
    """Replace free occurrences of the quantum variable q by r.  A subterm in
    which q is not free comes back as the same object.

    Capture-avoiding: a binder on r enclosing a free q is renamed first.
    """
    if q == r:
        return _checked(e)

    def sub(t):
        if q not in t._qv:
            return t
        match t:
            case QbitNew(qvar=p, body=b) | QInput(qvar=p, body=b) if p == r:
                p2 = _fresh_qvar(p, b._qv | {q, r})
                b2 = sub(subst_quantum(b, p, p2))
                return QbitNew(p2, b2) if isinstance(t, QbitNew) else QInput(t.chan, p2, b2)
            case QOutput(chan=c, qvar=p, body=b):
                return QOutput(c, r if p == q else p, sub(b))
            case Unitary(gate=g, qvars=qs, body=b):
                return Unitary(g, tuple(r if p == q else p for p in qs), sub(b))
            case Measure(obs=m, qvars=qs, var=x, body=b):
                return Measure(m, tuple(r if p == q else p for p in qs), x, sub(b))
        return rebuild(t, sub)

    return sub(_checked(e))


def canonical(e: ProcessExpr) -> ProcessExpr:
    """Rename bound variables to position-based names so that alpha-equivalent
    terms become structurally equal.  Free variables are left untouched.

    Binders are numbered %1, %2, ... in pre-order, left to right."""
    numbers = count(1)

    def walk(t, qenv, cenv):
        match t:
            case CInput(chan=c, var=x, body=b):
                nx = f"%{next(numbers)}"
                return CInput(c, nx, walk(b, qenv, {**cenv, x: nx}))
            case QbitNew(qvar=p, body=b):
                np_ = f"%{next(numbers)}"
                return QbitNew(np_, walk(b, {**qenv, p: np_}, cenv))
            case QInput(chan=c, qvar=p, body=b):
                np_ = f"%{next(numbers)}"
                return QInput(c, np_, walk(b, {**qenv, p: np_}, cenv))
            case Measure(obs=m, qvars=qs, var=x, body=b):
                nx = f"%{next(numbers)}"
                return Measure(m, tuple(qenv.get(p, p) for p in qs), nx,
                               walk(b, qenv, {**cenv, x: nx}))
            case QOutput(chan=c, qvar=p, body=b):
                return QOutput(c, qenv.get(p, p), walk(b, qenv, cenv))
            case Unitary(gate=g, qvars=qs, body=b):
                return Unitary(g, tuple(qenv.get(p, p) for p in qs), walk(b, qenv, cenv))
            case COutput(chan=c, expr=ve, body=b):
                return COutput(c, _map_vars(ve, lambda y: Var(cenv.get(y, y))),
                               walk(b, qenv, cenv))
            case If(cond=c, body=b):
                return If(_map_vars(c, lambda y: Var(cenv.get(y, y))), walk(b, qenv, cenv))
        return rebuild(t, lambda s: walk(s, qenv, cenv))

    return walk(e, {}, {})


def alpha_key(e: ProcessExpr) -> ProcessExpr:
    """A term that equals alpha_key(f) exactly when e and f are
    alpha-equivalent, as canonical(e) equals canonical(f).

    A binder's key is its canonical form.  Any other node binds nothing, so
    nothing is bound above the first binder on each path, and its key is the
    node rebuilt around its children's keys: the node itself when each child
    is its own key.  A term that shares a subterm with another shares that
    subterm's stored key too."""
    return _checked(e)._key


# the rule engine, whose term stage _Term._steps stores, imports this module
from . import lts as _lts  # noqa: E402
