"""Concrete syntax: tokenizer, parser, pretty printer, and elaborator.

A source file declares gates, measurements and channels, then defines
processes and configurations.  Later definitions may reference earlier ones;
references are expanded inline, so recursion cannot be expressed.  The
grammar is ASCII-first ('(x)' for the tensor sign, '\\' for restriction);
the file may start with a '#qccs 1' header line and '#' starts a comment.
One pattern splits the text into tokens (`tokenize`), and the parser reads
each shape of the grammar with one method: `Parser.infix` for
left-associative operator chains, `Parser.listed` and `Parser.braced` for
comma-separated lists.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .context import make_context
from .linalg import Gate, Observable
from .lts import Configuration, InputPolicy, format_value
from .syntax import (
    Arith, BoolOp, Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Not,
    Parallel, ProcessExpr, QbitNew, QInput, QOutput, Relabel, RelabelFn,
    Restrict, Sum, Unitary, Var, WellformednessError, check_wellformed,
)

HEADER = "#qccs 1"


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        text = f"{line}:{col}: {message}"
        if expected:
            text += f" (expected {expected})"
        super().__init__(text)


class ElaborationError(Exception):
    """Declarations that do not elaborate.  `faults` holds one message per
    fault: gates first, then measurements, declared processes,
    configurations and checks.  The message is the first fault."""

    def __init__(self, faults):
        self.faults = tuple(faults)
        super().__init__(self.faults[0])


# -- tokenizer --

# longest first, so that '->' is read before '-'
_SYMBOLS = ["->", "<=", "||", "&&", "\\", "(", ")", "[", "]", "{", "}",
            "<", ">", "|", ";", ":", ",", ".", "?", "!", "+", "-", "*", "/", "=",
            "⊗"]
_TOKEN = re.compile("|".join([
    r"(?P<blank>[ \t\r]+)",
    r"(?P<comment>#[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)",
    "(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<error>.)",
]))


@dataclass
class Token:
    kind: str  # 'IDENT', 'NUMBER', a symbol, or 'EOF'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    """Split text into tokens, ending with an EOF token.

    One pattern reads the text from left to right.  Its alternatives, in
    order: blanks, a '#' comment to the end of the line, a newline, a
    NUMBER, an IDENT, a symbol (longest first), and any other character,
    which is an error.  A NUMBER whose value is not a finite float is an
    error too.  A comment advances no column, so an EOF after a final
    comment keeps the column where the comment began.
    """
    tokens = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
        elif kind == "error":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        elif kind == "NUMBER" and not math.isfinite(float(lexeme)):
            raise ParseError("number out of range", line, col)
        elif kind != "comment":
            if kind != "blank":
                tokens.append(Token(lexeme if kind == "symbol" else kind, lexeme, line, col))
            col += len(lexeme)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parsed file --


@dataclass
class ConfigDecl:
    process: ProcessExpr
    vars: tuple
    state: np.ndarray | None  # None for the empty context


@dataclass
class SourceFile:
    gates: dict = field(default_factory=lambda: dict(linalg.BUILTIN_GATES))
    observables: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)  # name -> Chan
    domains: dict = field(default_factory=dict)   # name -> tuple of values
    processes: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)   # name -> ConfigDecl
    checks: list = field(default_factory=list)    # (mode, left, right)


_KEYWORDS = {"nil", "qbit", "if", "then", "gate", "measure", "channel",
             "qchannel", "process", "config", "check", "in", "sqrt", "i"}


class Parser:
    def __init__(self, tokens, source: SourceFile | None = None):
        self.tokens = tokens
        self.pos = 0
        self.source = source or SourceFile()

    # token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None):
        return self.next() if self.at(kind, text) else None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"found {tok.text!r}", tok.line, tok.col,
                             expected=what or kind)
        return self.next()

    def fail(self, message: str, expected: str | None = None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected=expected)

    # the shapes of the grammar: operator chains and comma lists

    def infix(self, operand, ops: tuple, build):
        """Read `operand (op operand)*`, where each op is a token kind in
        ops, and fold it to the left: build(op token, left, right) makes
        each node."""
        left = operand()
        while self.peek().kind in ops:
            op = self.next()
            left = build(op, left, operand())
        return left

    def listed(self, item) -> list:
        """Read one or more items separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def braced(self, item) -> list:
        """Read zero or more items separated by commas in braces; a comma
        may follow the last item."""
        self.expect("{")
        items = []
        while not self.at("}"):
            items.append(item())
            if not self.accept(","):
                break
        self.expect("}")
        return items

    def qvar(self) -> str:
        return self.expect("IDENT", "quantum variable").text

    # declarations

    def parse_file(self) -> SourceFile:
        declarations = {
            "gate": self.decl_gate,
            "measure": self.decl_measure,
            "channel": self.decl_channel,
            "qchannel": self.decl_qchannel,
            "process": self.decl_process,
            "config": self.decl_config,
            "check": self.decl_check,
        }
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(f"found {tok.text!r}", "a declaration keyword")
            if tok.text not in declarations:
                self.fail(f"found {tok.text!r}", "/".join(declarations))
            self.next()
            declarations[tok.text]()
        return self.source

    def _declare_name(self, tok: Token) -> str:
        name = tok.text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is a keyword", tok.line, tok.col)
        sf = self.source
        if any(name in table for table in (sf.gates, sf.observables, sf.channels,
                                           sf.processes, sf.configs)):
            raise ParseError(f"{name!r} is already declared", tok.line, tok.col)
        return name

    def decl_gate(self):
        name = self._declare_name(self.expect("IDENT", "gate name"))
        self.expect("=")
        tok = self.peek()
        self.source.gates[name] = Gate(name, _as_matrix(self.state_expr(), tok))

    def decl_measure(self):
        name = self._declare_name(self.expect("IDENT", "measurement name"))
        self.expect("=")
        self.expect("{")
        outcomes = self.listed(self.outcome)
        self.expect("}")
        self.source.observables[name] = Observable(name, tuple(outcomes))

    def outcome(self) -> tuple:
        ev_tok = self.peek()
        ev = self.scalar_expr()
        if abs(ev.imag) > 1e-12:
            raise ParseError("eigenvalues must be real", ev_tok.line, ev_tok.col)
        self.expect(":")
        ptok = self.peek()
        return float(ev.real), _as_matrix(self.state_expr(), ptok)

    def decl_channel(self):
        name = self._declare_name(self.expect("IDENT", "channel name"))
        self.source.channels[name] = Chan(name, quantum=False)
        if self.accept("IDENT", "in"):
            self.expect("{")
            self.source.domains[name] = tuple(self.listed(self.domain_value))
            self.expect("}")

    def domain_value(self) -> float:
        v = self.scalar_expr()
        if abs(v.imag) > 1e-12:
            self.fail("classical domains hold real values")
        return float(v.real)

    def decl_qchannel(self):
        name = self._declare_name(self.expect("IDENT", "channel name"))
        self.source.channels[name] = Chan(name, quantum=True)

    def decl_process(self):
        name = self._declare_name(self.expect("IDENT", "process name"))
        self.expect("=")
        self.source.processes[name] = self.process_expr()

    def decl_config(self):
        name = self._declare_name(self.expect("IDENT", "configuration name"))
        self.expect("=")
        self.expect("<")
        proc = self.process_expr()
        vars_, state = (), None
        if self.accept(";") and not self.at(">"):
            vars_ = tuple(self.listed(self.qvar))
            self.expect("=")
            stok = self.peek()
            state = self.state_expr()
            if state.ndim == 1:
                state = _in_range(stok, linalg.dm, state)
            dim = 2 ** len(vars_)
            if state.shape != (dim, dim):
                raise ParseError(
                    f"state has dimension {state.shape[0]}, expected {dim} "
                    f"for {len(vars_)} qubit(s)", stok.line, stok.col)
        self.expect(">")
        self.source.configs[name] = ConfigDecl(proc, vars_, state)

    def decl_check(self):
        mode_tok = self.expect("IDENT", "strong|weak|eq")
        if mode_tok.text not in ("strong", "weak", "eq"):
            raise ParseError(f"unknown check mode {mode_tok.text!r}",
                             mode_tok.line, mode_tok.col, expected="strong|weak|eq")
        left = self.expect("IDENT", "configuration name").text
        right = self.expect("IDENT", "configuration name").text
        self.source.checks.append((mode_tok.text, left, right))

    # process grammar: sum > parallel > postfix (restrict/relabel) > prefix

    def process_expr(self) -> ProcessExpr:
        return self.infix(self.par_expr, ("+",), lambda _, a, b: Sum(a, b))

    def par_expr(self) -> ProcessExpr:
        return self.infix(self.post_expr, ("||",), lambda _, a, b: Parallel(a, b))

    def post_expr(self) -> ProcessExpr:
        term = self.prefix_expr()
        while True:
            if self.accept("\\"):
                term = Restrict(term, frozenset(self.braced(self.channel_ref)))
            elif self.at("[") and self.peek(1).kind == "{":
                self.next()
                pairs = self.braced(self.relabel_pair)
                self.expect("]")
                term = Relabel(term, RelabelFn(pairs))
            else:
                return term

    def relabel_pair(self) -> tuple:
        src = self.channel_ref()
        self.expect("->")
        dst = self.channel_ref()
        if src.quantum != dst.quantum:
            self.fail(f"relabeling {src} -> {dst} crosses channel kinds")
        return src, dst

    def channel_ref(self) -> Chan:
        tok = self.expect("IDENT", "channel name")
        chan = self.source.channels.get(tok.text)
        if chan is None:
            raise ParseError(f"unknown channel {tok.text!r}", tok.line, tok.col)
        return chan

    def prefix_expr(self) -> ProcessExpr:
        tok = self.peek()
        if self.accept("IDENT", "nil"):
            return Nil()
        if self.accept("("):
            inner = self.process_expr()
            self.expect(")")
            return inner
        if self.accept("IDENT", "qbit"):
            q = self.qvar()
            self.expect(".")
            return QbitNew(q, self.prefix_expr())
        if self.accept("IDENT", "if"):
            cond = self.bool_expr()
            if not self.accept("IDENT", "then"):
                self.fail(f"found {self.peek().text!r}", "then")
            return If(cond, self.prefix_expr())
        if tok.kind != "IDENT":
            self.fail(f"found {tok.text!r}", "a process term")

        name = tok.text
        nxt = self.peek(1)
        if nxt.kind == "?":
            return self.input_prefix()
        if nxt.kind == "!":
            return self.output_prefix()
        if nxt.kind == "[" and self.peek(2).kind != "{":
            return self.apply_prefix()
        # bare name: reference to an earlier process definition
        self.next()
        body = self.source.processes.get(name)
        if body is None:
            raise ParseError(f"unknown process {name!r}", tok.line, tok.col)
        return body

    def input_prefix(self) -> ProcessExpr:
        chan = self.channel_ref()
        self.expect("?")
        var = self.expect("IDENT", "variable").text
        self.expect(".")
        return (QInput if chan.quantum else CInput)(chan, var, self.prefix_expr())

    def output_prefix(self) -> ProcessExpr:
        chan = self.channel_ref()
        self.expect("!")
        if chan.quantum:
            q = self.qvar()
            self.expect(".")
            return QOutput(chan, q, self.prefix_expr())
        e = self.value_expr()
        self.expect(".")
        return COutput(chan, e, self.prefix_expr())

    def apply_prefix(self) -> ProcessExpr:
        tok = self.next()
        name = tok.text
        sf = self.source
        self.expect("[")
        qvars = tuple(self.listed(self.qvar))
        cvar = self.expect("IDENT", "classical variable").text if self.accept(";") else None
        self.expect("]")
        self.expect(".")
        body = self.prefix_expr()

        if cvar is not None:
            obs = sf.observables.get(name)
            if obs is None:
                raise ParseError(f"unknown measurement {name!r}", tok.line, tok.col)
            return Measure(obs, qvars, cvar, body)
        if name in sf.gates:
            return Unitary(sf.gates[name], qvars, body)
        if name.startswith("sigma_"):
            return _sigma_sugar(name[len("sigma_"):], qvars, body)
        if name in sf.observables:
            raise ParseError(f"{name!r} is a measurement; write {name}[...; x]",
                             tok.line, tok.col)
        raise ParseError(f"unknown gate {name!r}", tok.line, tok.col)

    # classical value and boolean expressions

    def value_expr(self):
        return self.infix(self.value_term, ("+", "-"), lambda op, a, b: Arith(op.kind, a, b))

    def value_term(self):
        return self.infix(self.value_atom, ("*",), lambda op, a, b: Arith(op.kind, a, b))

    def value_atom(self):
        tok = self.peek()
        if self.accept("NUMBER"):
            return Const(float(tok.text))
        if tok.kind == "IDENT":
            if tok.text in _KEYWORDS:
                self.fail(f"found keyword {tok.text!r}", "a value")
            self.next()
            return Var(tok.text)
        if self.accept("-"):
            inner = self.value_atom()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Arith("-", Const(0.0), inner)
        if self.accept("("):
            inner = self.value_expr()
            self.expect(")")
            return inner
        self.fail(f"found {tok.text!r}", "a value expression")

    def bool_expr(self):
        return self.infix(self.bool_term, ("||",), lambda op, a, b: BoolOp(op.kind, a, b))

    def bool_term(self):
        return self.infix(self.bool_factor, ("&&",), lambda op, a, b: BoolOp(op.kind, a, b))

    def bool_factor(self):
        if self.accept("!"):
            return Not(self.bool_factor())
        if self.at("("):
            saved = self.pos
            try:
                self.next()
                inner = self.bool_expr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        lhs = self.value_expr()
        tok = self.peek()
        if tok.kind not in ("=", "<", "<="):
            self.fail(f"found {tok.text!r}", "a comparison (=, <, <=)")
        self.next()
        return Cmp(tok.kind, lhs, self.value_expr())

    # state expressions: matrices and kets

    def state_expr(self):
        """A ket (a 1-D array) or a matrix (a 2-D array)."""
        negate = bool(self.accept("-"))
        value = self.state_term()
        if negate:
            value = -1.0 * value
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.state_term()
            if value.ndim != rhs.ndim:
                self.fail("cannot add a ket and a matrix")
            if value.shape != rhs.shape:
                self.fail("cannot add kets of different sizes" if value.ndim == 1
                          else "cannot add matrices of different shapes")
            value = _in_range(op, operator.add, value, rhs if op.kind == "+" else -1.0 * rhs)
        return value

    def state_term(self):
        coeff = 1.0 + 0j
        tok = self.peek()
        if tok.kind == "NUMBER" or (tok.kind == "IDENT" and tok.text in ("i", "sqrt")):
            coeff = self.scalar_expr()
            self.accept("*")
        value = _in_range(tok, operator.mul, coeff, self.state_factor())
        while True:
            op = self.peek()
            if self.accept("⊗"):
                pass
            elif (self.at("(") and self.peek(1).kind == "IDENT"
                  and self.peek(1).text == "x" and self.peek(2).kind == ")"):
                self.next()
                self.next()
                self.next()
            else:
                return value
            value = _in_range(op, _state_tensor, value, self.state_factor())

    def state_factor(self):
        tok = self.peek()
        if self.accept("("):
            inner = self.state_expr()
            self.expect(")")
            return inner
        if tok.kind == "[":
            return self.matrix_literal()
        if tok.kind == "|":
            return self.ket_or_ketbra()
        if tok.kind == "IDENT":
            gate = self.source.gates.get(tok.text)
            if gate is not None:
                self.next()
                return gate.matrix.copy()
            raise ParseError(f"unknown matrix constant {tok.text!r}", tok.line, tok.col)
        self.fail(f"found {tok.text!r}", "a matrix, ket, or named gate")

    def matrix_literal(self) -> np.ndarray:
        self.expect("[")
        rows = self.listed(self.matrix_row)
        tok = self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged matrix literal", tok.line, tok.col)
        return np.array(rows, dtype=complex)

    def matrix_row(self) -> list:
        self.expect("[")
        row = self.listed(self.scalar_expr)
        self.expect("]")
        return row

    def ket_name(self, closing: str) -> str:
        chars = []
        while not self.at(closing):
            # '->' lexes as one token; inside a ket it is '-' plus the closer
            if closing == ">" and self.at("->"):
                self.next()
                chars.append("-")
                break
            tok = self.next()
            if tok.kind == "EOF":
                raise ParseError("unterminated ket", tok.line, tok.col)
            chars.append(tok.text)
        else:
            self.next()
        name = "".join(chars)
        if not name or any(c not in "01+-" for c in name):
            tok = self.peek()
            raise ParseError(f"bad basis label {name!r}", tok.line, tok.col,
                             expected="a string over 0, 1, +, -")
        return name

    def ket_or_ketbra(self):
        self.expect("|")
        kname = self.ket_name(">")
        if self.accept("<"):
            bname = self.ket_name("|")
            if len(bname) != len(kname):
                self.fail("ket and bra have different lengths")
            return np.outer(_ket_vector(kname), _ket_vector(bname).conj())
        return _ket_vector(kname)

    # complex scalars: numbers, i, sqrt, + - * /

    def scalar_expr(self) -> complex:
        return self.infix(self.scalar_prod, ("+", "-"), _scalar_op)

    def scalar_prod(self) -> complex:
        return self.infix(self.scalar_atom, ("*", "/"), _scalar_op)

    def scalar_atom(self) -> complex:
        tok = self.peek()
        if self.accept("NUMBER"):
            v = float(tok.text)
            if self.accept("IDENT", "i"):
                return v * 1j
            return complex(v)
        if self.accept("IDENT", "i"):
            return 1j
        if self.accept("IDENT", "sqrt"):
            self.expect("(")
            inner = self.scalar_expr()
            self.expect(")")
            return complex(np.sqrt(inner))
        if self.accept("-"):
            return -self.scalar_atom()
        if self.accept("("):
            inner = self.scalar_expr()
            self.expect(")")
            return inner
        self.fail(f"found {tok.text!r}", "a number")


_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _scalar_op(op: Token, a: complex, b: complex) -> complex:
    if op.kind == "/" and b == 0:
        raise ParseError("division by zero", op.line, op.col)
    return _in_range(op, _SCALAR_OPS[op.kind], a, b)


_KET_ATOMS = {
    "0": linalg.KET0, "1": linalg.KET1, "+": linalg.KET_PLUS, "-": linalg.KET_MINUS,
}


def _ket_vector(name: str) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for c in name:
        out = np.kron(out, _KET_ATOMS[c])
    return out


def _in_range(tok: Token, fn, *args):
    """fn(*args), or a ParseError at tok if its arithmetic overflowed (a
    result that is not finite, with NumPy's warning silenced)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = fn(*args)
    if not np.isfinite(out).all():
        raise ParseError("number out of range", tok.line, tok.col)
    return out


def _state_tensor(a, b):
    """a ⊗ b; next to a matrix, a ket stands for its density matrix."""
    if a.ndim != b.ndim:
        a, b = (linalg.dm(v) if v.ndim == 1 else v for v in (a, b))
    return np.kron(a, b)


def _as_matrix(value, tok) -> np.ndarray:
    if value.ndim == 1:
        raise ParseError("expected a matrix, found a ket", tok.line, tok.col)
    return value


def _sigma_sugar(var: str, qvars: tuple, body: ProcessExpr) -> ProcessExpr:
    """sigma_x[q].P is the four-way conditional Pauli correction on x."""
    return functools.reduce(Sum, [
        If(Cmp("=", Var(var), Const(float(i))), Unitary(linalg.GATE_SIGMA[i], qvars, body))
        for i in range(4)
    ])


def parse(text: str) -> SourceFile:
    """Parse a full source file; raises ParseError with line/column on failure."""
    first = text.splitlines()[0].strip() if text.strip() else ""
    if first.startswith("#qccs") and first != HEADER:
        raise ParseError(f"unsupported format header {first!r}", 1, 1, expected=HEADER)
    return Parser(tokenize(text)).parse_file()


def parse_process(text: str, source: SourceFile | None = None) -> ProcessExpr:
    """Parse a single process expression under the given declarations."""
    parser = Parser(tokenize(text), source)
    term = parser.process_expr()
    parser.expect("EOF")
    return term


# -- pretty printer --

_SUM, _PAR, _POST, _PRE = 0, 1, 2, 3


def pretty_print(e: ProcessExpr) -> str:
    """Render a term; parse_process(pretty_print(e)) is structurally e."""
    return _pp(e, _SUM)


def _paren(s: str, need: bool) -> str:
    return f"({s})" if need else s


def _pp_infix(pp, op: str, left, right, prec: int, level: int) -> str:
    """`left op right` for a left-associative operator of precedence prec,
    in parentheses where the context binds tighter (level > prec)."""
    return _paren(f"{pp(left, prec)} {op} {pp(right, prec + 1)}", prec < level)


def _chan_list(chans) -> str:
    return ", ".join(c.name for c in sorted(chans, key=lambda c: (c.quantum, c.name)))


def _pp(e: ProcessExpr, level: int) -> str:
    match e:
        case Nil():
            return "nil"
        case Sum(left=l, right=r):
            return _pp_infix(_pp, "+", l, r, _SUM, level)
        case Parallel(left=l, right=r):
            return _pp_infix(_pp, "||", l, r, _PAR, level)
        case Restrict(body=b, chans=chans):
            return _paren(f"{_pp(b, _POST)} \\ {{{_chan_list(chans)}}}", level > _POST)
        case Relabel(body=b, fn=fn):
            pairs = ", ".join(f"{s.name}->{d.name}" for s, d in fn.pairs)
            return _paren(f"{_pp(b, _POST)}[{{{pairs}}}]", level > _POST)
        case CInput(chan=c, var=x, body=b) | QInput(chan=c, qvar=x, body=b):
            return f"{c.name}?{x}.{_pp(b, _PRE)}"
        case COutput(chan=c, expr=v, body=b):
            return f"{c.name}!{_pp_value(v, 1)}.{_pp(b, _PRE)}"
        case QOutput(chan=c, qvar=q, body=b):
            return f"{c.name}!{q}.{_pp(b, _PRE)}"
        case QbitNew(qvar=q, body=b):
            return f"qbit {q}.{_pp(b, _PRE)}"
        case Unitary(gate=g, qvars=qs, body=b):
            return f"{g.name}[{', '.join(qs)}].{_pp(b, _PRE)}"
        case Measure(obs=m, qvars=qs, var=x, body=b):
            return f"{m.name}[{', '.join(qs)}; {x}].{_pp(b, _PRE)}"
        case If(cond=c, body=b):
            return f"if {_pp_bool(c, 1)} then {_pp(b, _PRE)}"
    raise ValueError(f"bad process term {e!r}")


def _pp_value(e, minprec: int) -> str:
    match e:
        case Const(value=v):
            s = format_value(v)
            return _paren(s, v < 0 and minprec > 2)
        case Var(name=x):
            return x
        case Arith(op=op, left=l, right=r):
            return _pp_infix(_pp_value, op, l, r, 2 if op == "*" else 1, minprec)
    raise ValueError(f"bad value expression {e!r}")


def _pp_bool(e, minprec: int) -> str:
    match e:
        case Cmp(op=op, left=l, right=r):
            return f"{_pp_value(l, 1)} {op} {_pp_value(r, 1)}"
        case BoolOp(op=op, left=l, right=r):
            return _pp_infix(_pp_bool, op, l, r, 2 if op == "&&" else 1, minprec)
        case Not(body=b):
            return f"!{_pp_bool(b, 3)}"
    raise ValueError(f"bad boolean expression {e!r}")


# -- elaboration --


@dataclass
class Elaboration:
    configs: dict  # name -> Configuration
    policy: InputPolicy
    checks: list   # (mode, left, right)


def elaborate(source: SourceFile) -> Elaboration:
    """Validate declarations and build runnable configurations.

    Each gate and measurement must have no `fault`: a gate is a unitary over
    qubits, and a measurement's projectors are square over qubits and satisfy
    the spectral-form invariants.  Each declared process must pass
    `check_wellformed`; each violation is a fault of its own.  Every other
    configuration is built by make_context and Configuration, the one gate
    for a state, a closed term, coverage and well-formedness, and its first
    fault there is recorded.  A configuration whose process is a faulty
    declared process repeats that process's faults and is skipped.  One
    ElaborationError lists every fault.
    """
    faults = [f"gate {name}: {gate.fault}"
              for name, gate in source.gates.items() if gate.fault]
    faults += [f"measurement {name}: {obs.fault}"
               for name, obs in source.observables.items() if obs.fault]
    faulty = set()  # the parser inlines a reference as the same object
    for name, proc in source.processes.items():
        for v in check_wellformed(proc):
            faults.append(f"process {name}: {v}")
            faulty.add(id(proc))

    configs = {}
    for name, decl in source.configs.items():
        if id(decl.process) in faulty:
            continue
        try:
            ctx = (make_context((), np.array([[1.0 + 0j]])) if decl.state is None
                   else make_context(decl.vars, decl.state))
            configs[name] = Configuration(decl.process, ctx)
        except WellformednessError as exc:
            faults.append(f"config {name}: invalid process: {exc}")
        except Exception as exc:
            faults.append(f"config {name}: {exc}")

    for mode, left, right in source.checks:
        for side in (left, right):
            if side not in source.configs:
                faults.append(f"check references unknown config {side!r}")
    if faults:
        raise ElaborationError(faults)

    domains = tuple(
        (source.channels[name], values) for name, values in source.domains.items()
    )
    policy = InputPolicy(classical_domains=domains)
    return Elaboration(configs, policy, source.checks)
