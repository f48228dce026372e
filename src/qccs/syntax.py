"""Process terms: constructors, free-variable functions, substitution, validity.

Terms are immutable; structural equality and hashing work on every node, so
terms can be used directly as dictionary keys.  Gate and measurement payloads
compare by name plus a matrix fingerprint (see linalg.Gate).

One table knows where each of the 13 process constructors keeps its
subterms; `subterms` and `rebuild` read it, so each traversal here spells out
only the constructors where it binds, renames or reads an expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .linalg import Gate, Observable


class SyntaxError_(Exception):
    pass


class UnboundVariable(SyntaxError_):
    pass


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


def eval_expr(e: ValueExpr, env: dict | None = None) -> float:
    match e:
        case Const(value=v):
            return float(v)
        case Var(name=x):
            if env and x in env:
                return float(env[x])
            raise UnboundVariable(f"classical variable {x} is unbound")
        case Arith(op=op, left=l, right=r):
            a, b = eval_expr(l, env), eval_expr(r, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
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


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class CInput:
    chan: Chan
    var: str
    body: "ProcessExpr"


@dataclass(frozen=True)
class COutput:
    chan: Chan
    expr: ValueExpr
    body: "ProcessExpr"


@dataclass(frozen=True)
class QbitNew:
    qvar: str
    body: "ProcessExpr"


@dataclass(frozen=True)
class QInput:
    chan: Chan
    qvar: str
    body: "ProcessExpr"


@dataclass(frozen=True)
class QOutput:
    chan: Chan
    qvar: str
    body: "ProcessExpr"


@dataclass(frozen=True)
class Unitary:
    gate: Gate
    qvars: tuple
    body: "ProcessExpr"


@dataclass(frozen=True)
class Measure:
    obs: Observable
    qvars: tuple
    var: str
    body: "ProcessExpr"


@dataclass(frozen=True)
class Sum:
    left: "ProcessExpr"
    right: "ProcessExpr"


@dataclass(frozen=True)
class Parallel:
    left: "ProcessExpr"
    right: "ProcessExpr"


@dataclass(frozen=True)
class Relabel:
    body: "ProcessExpr"
    fn: RelabelFn


@dataclass(frozen=True)
class Restrict:
    body: "ProcessExpr"
    chans: frozenset


@dataclass(frozen=True)
class If:
    cond: BoolExpr
    body: "ProcessExpr"


ProcessExpr = (
    Nil | CInput | COutput | QbitNew | QInput | QOutput | Unitary | Measure
    | Sum | Parallel | Relabel | Restrict | If
)


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


def qv(e: ProcessExpr) -> frozenset:
    """Free quantum variables: allocation and quantum input bind them;
    quantum output, unitaries and measurements use them."""
    match e:
        case QbitNew(qvar=q, body=b) | QInput(qvar=q, body=b):
            return qv(b) - {q}
        case QOutput(qvar=q, body=b):
            return qv(b) | {q}
        case Unitary(qvars=qs, body=b) | Measure(qvars=qs, body=b):
            return qv(b) | frozenset(qs)
    out = frozenset()
    for s in subterms(e):
        out |= qv(s)
    return out


def fv_classical(e: ProcessExpr) -> frozenset:
    """Free classical variables; input and measurement prefixes bind."""
    match e:
        case CInput(var=x, body=b) | Measure(var=x, body=b):
            return fv_classical(b) - {x}
        case COutput(expr=c, body=b) | If(cond=c, body=b):
            return expr_vars(c) | fv_classical(b)
    out = frozenset()
    for s in subterms(e):
        out |= fv_classical(s)
    return out


@dataclass(frozen=True)
class Violation:
    kind: str  # 'output-then-use' | 'parallel-overlap' | 'duplicate-qvar'
    path: tuple
    detail: str

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"{self.kind} at {where}: {self.detail}"


def check_wellformed(e: ProcessExpr) -> list:
    """Validity constraints of the no-cloning discipline.

    Returns the violations found (empty list means the term is valid);
    each one carries the child-index path of the offending subterm.
    """
    out = []

    def walk(t, path):
        match t:
            case QOutput(qvar=q, body=b) if q in qv(b):
                out.append(Violation("output-then-use", path, f"{q} used after output"))
            case Parallel(left=l, right=r) if shared := qv(l) & qv(r):
                out.append(Violation("parallel-overlap", path,
                                     f"components share {{{', '.join(sorted(shared))}}}"))
            case Unitary(qvars=qs) | Measure(qvars=qs) if len(set(qs)) != len(qs):
                out.append(Violation("duplicate-qvar", path, f"repeated name in [{', '.join(qs)}]"))
        for k, s in enumerate(subterms(t)):
            walk(s, path + (k,))

    walk(e, ())
    return out


def assert_wellformed(e: ProcessExpr) -> None:
    violations = check_wellformed(e)
    if violations:
        raise WellformednessError(violations)


def is_classical(e: ProcessExpr) -> bool:
    """True iff the term never changes a quantum context: no allocation,
    quantum input, unitary or measurement anywhere (quantum output is fine)."""
    if isinstance(e, (QbitNew, QInput, Unitary, Measure)):
        return False
    return all(map(is_classical, subterms(e)))


def subst_classical(e: ProcessExpr, x: str, v: float) -> ProcessExpr:
    """Instantiate the free classical variable x with the value v."""

    def value(y):
        return Const(v) if y == x else Var(y)

    def sub(t):
        match t:
            case CInput(var=y) | Measure(var=y) if y == x:
                return t
            case COutput(chan=c, expr=ve, body=b):
                return COutput(c, _map_vars(ve, value), sub(b))
            case If(cond=c, body=b):
                return If(_map_vars(c, value), sub(b))
        return rebuild(t, sub)

    return sub(e)


def _fresh_qvar(base: str, avoid) -> str:
    cand = base + "'"
    while cand in avoid:
        cand += "'"
    return cand


def subst_quantum(e: ProcessExpr, q: str, r: str) -> ProcessExpr:
    """Replace free occurrences of the quantum variable q by r.

    Capture-avoiding: a binder on r enclosing a free q is renamed first.
    """
    if q == r:
        return e

    def sub(t):
        match t:
            case QbitNew(qvar=p) | QInput(qvar=p) if p == q:
                return t
            case QbitNew(qvar=p, body=b) | QInput(qvar=p, body=b) if p == r and q in qv(b):
                p2 = _fresh_qvar(p, qv(b) | {q, r})
                b2 = sub(subst_quantum(b, p, p2))
                return QbitNew(p2, b2) if isinstance(t, QbitNew) else QInput(t.chan, p2, b2)
            case QOutput(chan=c, qvar=p, body=b):
                return QOutput(c, r if p == q else p, sub(b))
            case Unitary(gate=g, qvars=qs, body=b):
                return Unitary(g, tuple(r if p == q else p for p in qs), sub(b))
            case Measure(obs=m, qvars=qs, var=x, body=b):
                return Measure(m, tuple(r if p == q else p for p in qs), x, sub(b))
        return rebuild(t, sub)

    return sub(e)


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
