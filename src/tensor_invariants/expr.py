"""Scalar fields over chart coordinates as immutable expression trees.

The grammar (EBNF):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' exponent)?
    base     := number | ident | '(' expr ')' | func '(' expr ')'
    func     := sin | cos | ln | exp | sqrt
    exponent := number | '(' '-'? number ')'

``^`` binds tighter than unary minus (so ``-u^2`` is ``-(u^2)``) and is
right-associative; exponents must be constants, which keeps
differentiation total.  Chains like ``u^2^3`` are folded right-associatively
into a single constant exponent.

This module is the syntax only: the chart, the trees, the parser, the
printer and the errors.  Fields evaluate their trees through the compiled
programs of ``jets``, which holds the one rule of each scalar map (one per
name in ``FUNCTIONS``, and ``pow``) and raises this module's ``DomainError``
naming the failing subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "Chart",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprError",
    "ParseError",
    "DomainError",
    "parse",
    "print_expr",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "ln", "exp", "sqrt")

# ASCII digits only: \d would also take any other script's decimal digits
_NUMBER_RE = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ExprError(Exception):
    """Base class for expression front-end errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation left the expression's domain (pole, log of non-positive...)."""

    def __init__(self, message: str, node) -> None:
        self.reason = message
        self.node = node
        super().__init__(self.describe())

    def describe(self, chart: Chart | None = None) -> str:
        """The message, with the subexpression printed in `chart`'s names."""
        return f"{self.reason} in subexpression '{print_expr(self.node, chart)}'"


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: dimension plus distinct coordinate names."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ValueError("chart dimension must be at least 2")
        if len(set(names)) != len(names):
            raise ValueError(f"chart names must be unique: {names}")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid coordinate name: {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"coordinate name collides with function: {name!r}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class _Node:
    """A tree node's only slot beyond its fields: nodes are slotted (no
    ``__dict__``), and a weak reference to one stays possible."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Const(_Node):
    value: float


@dataclass(frozen=True, slots=True)
class Var(_Node):
    index: int


@dataclass(frozen=True, slots=True)
class Unary(_Node):
    op: str  # neg | sin | cos | ln | exp | sqrt
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Binary(_Node):
    op: str  # add | sub | mul | div | pow
    left: "Expr"
    right: "Expr"


Expr = Const | Var | Unary | Binary


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

class _Tokens:
    """A text's tokens, ``(kind, text, position)``, each scanned once: the
    parser peeks at a token several times before it takes it, and every
    peek after the first returns the token kept from the first.  A character
    that starts no token raises its ``ParseError`` when the parser reaches
    it, so an earlier syntax error is reported first."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.token = None  # the token at pos, once peeked

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, text, position) of the next token without consuming."""
        if self.token is None:
            self.token = self._scan()
        return self.token

    def next(self) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        self.pos, self.token = pos + len(text), None
        return kind, text, pos

    def _scan(self) -> tuple[str, str, int]:
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return ("eof", "", pos)
        ch = text[pos]
        if ch in "+-*/^()":
            return ("op", ch, pos)
        m = _NUMBER_RE.match(text, pos)
        if m:
            return ("number", m.group(0), pos)
        m = _IDENT_RE.match(text, pos)
        if m:
            return ("ident", m.group(0), pos)
        raise ParseError(f"unexpected character {ch!r}", pos)


def parse(text: str, chart: Chart) -> Expr:
    """Parse ``text`` into an expression tree over ``chart`` coordinates."""
    toks = _Tokens(text)
    node = _parse_expr(toks, chart)
    kind, tok, pos = toks.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return node


def _parse_expr(toks: _Tokens, chart: Chart) -> Expr:
    node = _parse_term(toks, chart)
    while True:
        kind, tok, _ = toks.peek()
        if kind == "op" and tok in "+-":
            toks.next()
            rhs = _parse_term(toks, chart)
            node = Binary("add" if tok == "+" else "sub", node, rhs)
        else:
            return node


def _parse_term(toks: _Tokens, chart: Chart) -> Expr:
    node = _parse_factor(toks, chart)
    while True:
        kind, tok, _ = toks.peek()
        if kind == "op" and tok in "*/":
            toks.next()
            rhs = _parse_factor(toks, chart)
            node = Binary("mul" if tok == "*" else "div", node, rhs)
        else:
            return node


def _parse_factor(toks: _Tokens, chart: Chart) -> Expr:
    kind, tok, _ = toks.peek()
    if kind == "op" and tok == "-":
        toks.next()
        return Unary("neg", _parse_factor(toks, chart))
    node = _parse_base(toks, chart)
    kind, tok, _ = toks.peek()
    if kind == "op" and tok == "^":
        toks.next()
        exponent = _parse_exponent(toks, chart)
        node = Binary("pow", node, Const(exponent))
    return node


def _parse_base(toks: _Tokens, chart: Chart) -> Expr:
    kind, tok, pos = toks.next()
    if kind == "number":
        return Const(_number(tok, pos))
    if kind == "ident":
        if tok in FUNCTIONS:
            kind2, tok2, pos2 = toks.next()
            if not (kind2 == "op" and tok2 == "("):
                raise ParseError(f"function {tok!r} requires parenthesized argument", pos2)
            arg = _parse_expr(toks, chart)
            _expect(toks, ")")
            return Unary(tok, arg)
        if tok in chart.names:
            return Var(chart.index(tok))
        raise ParseError(f"unknown identifier {tok!r}", pos)
    if kind == "op" and tok == "(":
        node = _parse_expr(toks, chart)
        _expect(toks, ")")
        return node
    raise ParseError(f"unexpected token {tok!r}", pos)


def _parse_exponent(toks: _Tokens, chart: Chart) -> float:
    kind, tok, pos = toks.peek()
    if kind == "number":
        toks.next()
        value = _number(tok, pos)
    elif kind == "op" and tok == "(":
        toks.next()
        sign = 1.0
        kind2, tok2, _ = toks.peek()
        if kind2 == "op" and tok2 == "-":
            toks.next()
            sign = -1.0
        kind2, tok2, pos2 = toks.next()
        if kind2 != "number":
            raise ParseError("pow exponent must be a constant", pos2)
        value = sign * _number(tok2, pos2)
        _expect(toks, ")")
    elif kind == "op" and tok == "-":
        raise ParseError("a negative exponent needs parentheses, e.g. u^(-2)", pos)
    else:
        raise ParseError("pow exponent must be a constant", pos)
    kind, tok, pos = toks.peek()
    if kind == "op" and tok == "^":
        toks.next()
        exponent = _parse_exponent(toks, chart)
        try:
            value = value**exponent
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        # a fold may also give a complex number (a negative base)
        if not (isinstance(value, float) and math.isfinite(value)):
            raise ParseError("chained exponent is not a finite real number", pos)
    return value


def _number(tok: str, pos: int) -> float:
    value = float(tok)
    if not math.isfinite(value):
        raise ParseError(f"number {tok} is not finite", pos)
    return value


def _expect(toks: _Tokens, symbol: str) -> None:
    kind, tok, pos = toks.next()
    if not (kind == "op" and tok == symbol):
        raise ParseError(f"expected {symbol!r}, found {tok!r}", pos)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def print_expr(node: Expr, chart: Chart | None = None) -> str:
    """Render a tree back to grammar text; parse(print(parse(s))) == parse(s)."""
    return _print(node, chart, 0)


def _print(node: Expr, chart: Chart | None, parent_prec: int) -> str:
    if isinstance(node, Const):
        text = repr(node.value)
        return text if node.value >= 0 else f"({text})"
    if isinstance(node, Var):
        return chart.names[node.index] if chart is not None else f"x{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _print(node.arg, chart, _PREC["neg"])
            text = f"-{inner}"
            return text if parent_prec <= _PREC["neg"] else f"({text})"
        return f"{node.op}({_print(node.arg, chart, 0)})"
    if node.op == "pow":
        base = _print_pow_base(node.left, chart)
        exponent = node.right.value
        negative = math.copysign(1.0, exponent) < 0  # by the sign bit: -0.0 too
        exp_text = f"(-{repr(-exponent)})" if negative else repr(exponent)
        return f"{base}^{exp_text}"
    prec = _PREC[node.op]
    symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[node.op]
    left = _print(node.left, chart, prec)
    # right operand of - and / must not reassociate
    right = _print(node.right, chart, prec + 1)
    text = f"{left}{symbol}{right}"
    return text if prec >= parent_prec else f"({text})"


def _print_pow_base(node: Expr, chart: Chart | None) -> str:
    if isinstance(node, (Var, Unary)) and not (isinstance(node, Unary) and node.op == "neg"):
        return _print(node, chart, 0)
    if isinstance(node, Const) and node.value >= 0:
        return _print(node, chart, 0)
    return f"({_print(node, chart, 0)})"
