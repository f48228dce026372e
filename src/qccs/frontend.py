"""Concrete syntax: tokenizer, parser, pretty printer, and elaborator.

A source file declares gates, measurements and channels, then defines
processes and configurations.  Later definitions may reference earlier ones;
references are expanded inline, so recursion cannot be expressed.  The
grammar is ASCII-first ('(x)' for the tensor sign, '\\' for restriction);
the file may start with a '#qccs 1' header line and '#' starts a comment.
"""

from __future__ import annotations

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
    Restrict, Sum, Unitary, Var, check_wellformed, qv, subterms,
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
    """Declarations that do not elaborate.  `faults` holds a (message,
    config) pair per fault, gates first, then measurements, configurations
    and checks; `config` names the configuration at fault, or is None for a
    gate, measurement or check.  The message is the first fault's."""

    def __init__(self, faults):
        self.faults = tuple(faults)
        super().__init__(self.faults[0][0])


# -- tokenizer --

_SYMBOLS = ["->", "<=", "||", "&&", "\\", "(", ")", "[", "]", "{", "}",
            "<", ">", "|", ";", ":", ",", ".", "?", "!", "+", "-", "*", "/", "=",
            "⊗"]
_NUMBER = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@dataclass
class Token:
    kind: str  # 'IDENT', 'NUMBER', a symbol, or 'EOF'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(Token("NUMBER", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("IDENT", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parsed file --


@dataclass
class ConfigDecl:
    name: str
    process: ProcessExpr
    vars: tuple
    state: np.ndarray | None  # None for the empty context
    line: int
    col: int


@dataclass
class SourceFile:
    gates: dict = field(default_factory=dict)
    observables: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)  # name -> Chan
    domains: dict = field(default_factory=dict)   # name -> tuple of values
    processes: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)   # name -> ConfigDecl
    checks: list = field(default_factory=list)    # (mode, left, right)

    def __post_init__(self):
        if not self.gates:
            self.gates = dict(linalg.BUILTIN_GATES)


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
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"found {tok.text!r}", tok.line, tok.col,
                             expected=what or kind)
        return self.next()

    def fail(self, message: str, expected: str | None = None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected=expected)

    # declarations

    def parse_file(self) -> SourceFile:
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(f"found {tok.text!r}", "a declaration keyword")
            handler = {
                "gate": self.decl_gate,
                "measure": self.decl_measure,
                "channel": self.decl_channel,
                "qchannel": self.decl_qchannel,
                "process": self.decl_process,
                "config": self.decl_config,
                "check": self.decl_check,
            }.get(tok.text)
            if handler is None:
                self.fail(f"found {tok.text!r}", "gate/measure/channel/qchannel/process/config/check")
            handler()
        return self.source

    def _declare_name(self, tok: Token) -> str:
        name = tok.text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is a keyword", tok.line, tok.col)
        sf = self.source
        taken = (name in sf.observables or name in sf.channels
                 or name in sf.processes or name in sf.configs
                 or (name in sf.gates and name not in linalg.BUILTIN_GATES))
        if taken or name in linalg.BUILTIN_GATES:
            raise ParseError(f"{name!r} is already declared", tok.line, tok.col)
        return name

    def decl_gate(self):
        self.next()
        name = self._declare_name(self.expect("IDENT", "gate name"))
        self.expect("=")
        tok = self.peek()
        value = self.state_expr()
        m = _as_matrix(value, tok)
        self.source.gates[name] = Gate(name, m)

    def decl_measure(self):
        self.next()
        name = self._declare_name(self.expect("IDENT", "measurement name"))
        self.expect("=")
        self.expect("{")
        outcomes = []
        while True:
            ev_tok = self.peek()
            ev = self.scalar_expr()
            if abs(ev.imag) > 1e-12:
                raise ParseError("eigenvalues must be real", ev_tok.line, ev_tok.col)
            self.expect(":")
            ptok = self.peek()
            proj = _as_matrix(self.state_expr(), ptok)
            outcomes.append((float(ev.real), proj))
            if not self.accept(","):
                break
        self.expect("}")
        self.source.observables[name] = Observable(name, tuple(outcomes))

    def decl_channel(self):
        self.next()
        name = self._declare_name(self.expect("IDENT", "channel name"))
        self.source.channels[name] = Chan(name, quantum=False)
        if self.accept("IDENT", "in"):
            self.expect("{")
            values = []
            while True:
                v = self.scalar_expr()
                if abs(v.imag) > 1e-12:
                    self.fail("classical domains hold real values")
                values.append(float(v.real))
                if not self.accept(","):
                    break
            self.expect("}")
            self.source.domains[name] = tuple(values)

    def decl_qchannel(self):
        self.next()
        name = self._declare_name(self.expect("IDENT", "channel name"))
        self.source.channels[name] = Chan(name, quantum=True)

    def decl_process(self):
        self.next()
        name = self._declare_name(self.expect("IDENT", "process name"))
        self.expect("=")
        self.source.processes[name] = self.process_expr()

    def decl_config(self):
        self.next()
        tok = self.expect("IDENT", "configuration name")
        name = self._declare_name(tok)
        self.expect("=")
        self.expect("<")
        proc = self.process_expr()
        vars_, state = (), None
        if self.accept(";"):
            if not self.at(">"):
                names = [self.expect("IDENT", "quantum variable").text]
                while self.accept(","):
                    names.append(self.expect("IDENT", "quantum variable").text)
                self.expect("=")
                stok = self.peek()
                value = self.state_expr()
                if isinstance(value, _Ket):
                    state = linalg.dm(value.vec)
                else:
                    state = value
                vars_ = tuple(names)
                dim = 2 ** len(vars_)
                if state.shape != (dim, dim):
                    raise ParseError(
                        f"state has dimension {state.shape[0]}, expected {dim} "
                        f"for {len(vars_)} qubit(s)", stok.line, stok.col)
        self.expect(">")
        self.source.configs[name] = ConfigDecl(name, proc, vars_, state, tok.line, tok.col)

    def decl_check(self):
        self.next()
        mode_tok = self.expect("IDENT", "strong|weak|eq")
        if mode_tok.text not in ("strong", "weak", "eq"):
            raise ParseError(f"unknown check mode {mode_tok.text!r}",
                             mode_tok.line, mode_tok.col, expected="strong|weak|eq")
        left = self.expect("IDENT", "configuration name").text
        right = self.expect("IDENT", "configuration name").text
        self.source.checks.append((mode_tok.text, left, right))

    # process grammar: sum > parallel > postfix (restrict/relabel) > prefix

    def process_expr(self) -> ProcessExpr:
        left = self.par_expr()
        while self.accept("+"):
            left = Sum(left, self.par_expr())
        return left

    def par_expr(self) -> ProcessExpr:
        left = self.post_expr()
        while self.accept("||"):
            left = Parallel(left, self.post_expr())
        return left

    def post_expr(self) -> ProcessExpr:
        term = self.prefix_expr()
        while True:
            if self.at("\\"):
                self.next()
                self.expect("{")
                chans = []
                while not self.at("}"):
                    chans.append(self.channel_ref())
                    if not self.accept(","):
                        break
                self.expect("}")
                term = Restrict(term, frozenset(chans))
            elif self.at("[") and self.peek(1).kind == "{":
                self.next()
                self.next()
                pairs = []
                while not self.at("}"):
                    src = self.channel_ref()
                    self.expect("->")
                    dst = self.channel_ref()
                    if src.quantum != dst.quantum:
                        self.fail(f"relabeling {src} -> {dst} crosses channel kinds")
                    pairs.append((src, dst))
                    if not self.accept(","):
                        break
                self.expect("}")
                self.expect("]")
                term = Relabel(term, RelabelFn(pairs))
            else:
                return term

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
            q = self.expect("IDENT", "quantum variable").text
            self.expect(".")
            return QbitNew(q, self.prefix_expr())
        if self.accept("IDENT", "if"):
            cond = self.bool_expr()
            then = self.expect("IDENT", "then")
            if then.text != "then":
                raise ParseError(f"found {then.text!r}", then.line, then.col, expected="then")
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
        body = self.prefix_expr()
        if chan.quantum:
            return QInput(chan, var, body)
        return CInput(chan, var, body)

    def output_prefix(self) -> ProcessExpr:
        chan = self.channel_ref()
        self.expect("!")
        if chan.quantum:
            q = self.expect("IDENT", "quantum variable").text
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
        qvars = [self.expect("IDENT", "quantum variable").text]
        kind = "gate"
        cvar = None
        while True:
            if self.accept(","):
                qvars.append(self.expect("IDENT", "quantum variable").text)
            elif self.accept(";"):
                cvar = self.expect("IDENT", "classical variable").text
                kind = "measure"
                break
            else:
                break
        self.expect("]")
        self.expect(".")
        body = self.prefix_expr()

        if kind == "measure":
            obs = sf.observables.get(name)
            if obs is None:
                raise ParseError(f"unknown measurement {name!r}", tok.line, tok.col)
            return Measure(obs, tuple(qvars), cvar, body)
        if name in sf.gates:
            return Unitary(sf.gates[name], tuple(qvars), body)
        if name.startswith("sigma_"):
            return _sigma_sugar(name[len("sigma_"):], tuple(qvars), body)
        if name in sf.observables:
            raise ParseError(f"{name!r} is a measurement; write {name}[...; x]",
                             tok.line, tok.col)
        raise ParseError(f"unknown gate {name!r}", tok.line, tok.col)

    # classical value and boolean expressions

    def value_expr(self):
        left = self.value_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = Arith(op, left, self.value_term())
        return left

    def value_term(self):
        left = self.value_atom()
        while self.at("*"):
            self.next()
            left = Arith("*", left, self.value_atom())
        return left

    def value_atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
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
        left = self.bool_term()
        while self.accept("||"):
            left = BoolOp("||", left, self.bool_term())
        return left

    def bool_term(self):
        left = self.bool_factor()
        while self.accept("&&"):
            left = BoolOp("&&", left, self.bool_factor())
        return left

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
        negate = bool(self.accept("-"))
        value = self.state_term()
        if negate:
            value = _state_scale(-1.0, value)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.state_term()
            value = _state_add(value, rhs if op == "+" else _state_scale(-1.0, rhs), self)
        return value

    def state_term(self):
        coeff = 1.0 + 0j
        tok = self.peek()
        if tok.kind == "NUMBER" or (tok.kind == "IDENT" and tok.text in ("i", "sqrt")):
            coeff = self.scalar_expr()
            self.accept("*")
        value = _state_scale(coeff, self.state_factor())
        while True:
            if self.accept("⊗"):
                pass
            elif (self.at("(") and self.peek(1).kind == "IDENT"
                  and self.peek(1).text == "x" and self.peek(2).kind == ")"):
                self.next()
                self.next()
                self.next()
            else:
                return value
            value = _state_tensor(value, self.state_factor())

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
        rows = []
        while True:
            self.expect("[")
            row = [self.scalar_expr()]
            while self.accept(","):
                row.append(self.scalar_expr())
            self.expect("]")
            rows.append(row)
            if not self.accept(","):
                break
        tok = self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged matrix literal", tok.line, tok.col)
        return np.array(rows, dtype=complex)

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
        if self.at("<"):
            self.next()
            bname = self.ket_name("|")
            if len(bname) != len(kname):
                self.fail("ket and bra have different lengths")
            return np.outer(_ket_vector(kname), _ket_vector(bname).conj())
        return _Ket(_ket_vector(kname))

    # complex scalars: numbers, i, sqrt, + - * /

    def scalar_expr(self) -> complex:
        value = self.scalar_prod()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.scalar_prod()
            value = value + rhs if op == "+" else value - rhs
        return value

    def scalar_prod(self) -> complex:
        value = self.scalar_atom()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.scalar_atom()
            value = value * rhs if op == "*" else value / rhs
        return value

    def scalar_atom(self) -> complex:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            v = float(tok.text)
            if self.at("IDENT") and self.peek().text == "i":
                self.next()
                return v * 1j
            return complex(v)
        if tok.kind == "IDENT" and tok.text == "i":
            self.next()
            return 1j
        if tok.kind == "IDENT" and tok.text == "sqrt":
            self.next()
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


@dataclass
class _Ket:
    vec: np.ndarray


_KET_ATOMS = {
    "0": linalg.KET0, "1": linalg.KET1, "+": linalg.KET_PLUS, "-": linalg.KET_MINUS,
}


def _ket_vector(name: str) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for c in name:
        out = np.kron(out, _KET_ATOMS[c])
    return out


def _state_scale(c, value):
    if isinstance(value, _Ket):
        return _Ket(c * value.vec)
    return c * value


def _state_add(a, b, parser):
    if isinstance(a, _Ket) != isinstance(b, _Ket):
        parser.fail("cannot add a ket and a matrix")
    if isinstance(a, _Ket):
        if a.vec.shape != b.vec.shape:
            parser.fail("cannot add kets of different sizes")
        return _Ket(a.vec + b.vec)
    if a.shape != b.shape:
        parser.fail("cannot add matrices of different shapes")
    return a + b


def _state_tensor(a, b):
    if isinstance(a, _Ket) and isinstance(b, _Ket):
        return _Ket(np.kron(a.vec, b.vec))
    am = linalg.dm(a.vec) if isinstance(a, _Ket) else a
    bm = linalg.dm(b.vec) if isinstance(b, _Ket) else b
    return np.kron(am, bm)


def _as_matrix(value, tok) -> np.ndarray:
    if isinstance(value, _Ket):
        raise ParseError("expected a matrix, found a ket", tok.line, tok.col)
    return value


def _sigma_sugar(var: str, qvars: tuple, body: ProcessExpr) -> ProcessExpr:
    """sigma_x[q].P is the four-way conditional Pauli correction on x."""
    arms = [
        If(Cmp("=", Var(var), Const(float(i))), Unitary(linalg.GATE_SIGMA[i], qvars, body))
        for i in range(4)
    ]
    out = arms[0]
    for arm in arms[1:]:
        out = Sum(out, arm)
    return out


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


def _chan_list(chans) -> str:
    return ", ".join(c.name for c in sorted(chans, key=lambda c: (c.quantum, c.name)))


def _pp(e: ProcessExpr, level: int) -> str:
    match e:
        case Nil():
            return "nil"
        case Sum(left=l, right=r):
            return _paren(f"{_pp(l, _SUM)} + {_pp(r, _PAR)}", level > _SUM)
        case Parallel(left=l, right=r):
            return _paren(f"{_pp(l, _PAR)} || {_pp(r, _POST)}", level > _PAR)
        case Restrict(body=b, chans=chans):
            return _paren(f"{_pp(b, _POST)} \\ {{{_chan_list(chans)}}}", level > _POST)
        case Relabel(body=b, fn=fn):
            pairs = ", ".join(f"{s.name}->{d.name}" for s, d in fn.pairs)
            return _paren(f"{_pp(b, _POST)}[{{{pairs}}}]", level > _POST)
        case CInput(chan=c, var=x, body=b):
            return f"{c.name}?{x}.{_pp(b, _PRE)}"
        case QInput(chan=c, qvar=q, body=b):
            return f"{c.name}?{q}.{_pp(b, _PRE)}"
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
            prec = 2 if op == "*" else 1
            s = f"{_pp_value(l, prec)} {op} {_pp_value(r, prec + 1)}"
            return _paren(s, prec < minprec)
    raise ValueError(f"bad value expression {e!r}")


def _pp_bool(e, minprec: int) -> str:
    match e:
        case Cmp(op=op, left=l, right=r):
            return f"{_pp_value(l, 1)} {op} {_pp_value(r, 1)}"
        case BoolOp(op=op, left=l, right=r):
            prec = 2 if op == "&&" else 1
            s = f"{_pp_bool(l, prec)} {op} {_pp_bool(r, prec + 1)}"
            return _paren(s, prec < minprec)
        case Not(body=b):
            return f"!{_pp_bool(b, 3)}"
    raise ValueError(f"bad boolean expression {e!r}")


# -- elaboration --


@dataclass
class Elaboration:
    configs: dict  # name -> Configuration
    policy: InputPolicy
    checks: list   # (mode, left, right)


def _over_qubits(m) -> bool:
    """Is m square, with a side that is a power of two?"""
    d = m.shape[0]
    return m.shape == (d, d) and d > 0 and d & (d - 1) == 0


def _applies(term: ProcessExpr, ops: set) -> bool:
    """Does term apply a gate or measurement whose id is in ops?"""
    match term:
        case Unitary(gate=op) | Measure(obs=op) if id(op) in ops:
            return True
    return any(_applies(t, ops) for t in subterms(term))


def elaborate(source: SourceFile) -> Elaboration:
    """Validate declarations and build runnable configurations.

    Gates and measurement projectors must be square matrices over qubits,
    gates must be unitary, measurements must satisfy the spectral-form
    invariants, each configuration's process must be well formed
    (check_wellformed), configuration states must be density matrices, and
    each configuration's context must cover the process's free quantum
    variables.  Each declaration's first fault is recorded, and one
    ElaborationError lists them all.  A configuration that applies an
    operator not square over qubits is not checked for arity, which could
    only repeat that operator's fault.
    """
    faults, misshapen = [], set()
    for name, gate in source.gates.items():
        if name in linalg.BUILTIN_GATES:
            continue
        if not _over_qubits(gate.matrix):
            faults.append((f"gate {name}: matrix must be square over qubits", None))
            misshapen.add(id(gate))
        elif not linalg.is_unitary(gate.matrix):
            faults.append((f"gate {name}: matrix is not unitary", None))

    for name, obs in source.observables.items():
        if not _over_qubits(obs.outcomes[0][1]):
            faults.append((f"measurement {name}: projectors must be square over qubits", None))
            misshapen.add(id(obs))
        elif problems := linalg.validate_observable(obs, obs.dim):
            faults.append((f"measurement {name}: {', '.join(problems)}", None))

    configs = {}
    for name, decl in source.configs.items():
        violations = [] if _applies(decl.process, misshapen) else check_wellformed(decl.process)
        missing = qv(decl.process) - set(decl.vars)
        if violations:
            faults.append((f"config {name}: invalid process: "
                           + "; ".join(str(v) for v in violations), name))
        elif missing:
            faults.append((f"config {name}: context does not declare {sorted(missing)}", name))
        else:
            try:
                ctx = (make_context((), np.array([[1.0 + 0j]])) if decl.state is None
                       else make_context(decl.vars, decl.state))
                configs[name] = Configuration(decl.process, ctx)
            except Exception as exc:
                faults.append((f"config {name}: {exc}", name))

    for mode, left, right in source.checks:
        for side in (left, right):
            if side not in source.configs:
                faults.append((f"check references unknown config {side!r}", None))
    if faults:
        raise ElaborationError(faults)

    domains = tuple(
        (source.channels[name], values) for name, values in source.domains.items()
    )
    policy = InputPolicy(classical_domains=domains)
    return Elaboration(configs, policy, source.checks)
