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

Fields evaluate their trees through the compiled programs of ``jets``, which
share this module's scalar rules (``_apply_unary``/``_apply_binary``);
:func:`evaluate` is the plain tree walk kept as their independent oracle.
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
    "evaluate",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "ln", "exp", "sqrt")

_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
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


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | ln | exp | sqrt
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Expr"
    right: "Expr"


Expr = Const | Var | Unary | Binary


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, text, position) of the next token without consuming."""
        self._skip_ws()
        pos = self.pos
        if pos >= len(self.text):
            return ("eof", "", pos)
        ch = self.text[pos]
        if ch in "+-*/^()":
            return ("op", ch, pos)
        m = _NUMBER_RE.match(self.text, pos)
        if m:
            return ("number", m.group(0), pos)
        m = _IDENT_RE.match(self.text, pos)
        if m:
            return ("ident", m.group(0), pos)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def next(self) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


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
        return Const(float(tok))
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
        value = float(tok)
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
        value = sign * float(tok2)
        _expect(toks, ")")
    else:
        raise ParseError("pow exponent must be a constant", pos)
    kind, tok, _ = toks.peek()
    if kind == "op" and tok == "^":
        toks.next()
        value = value ** _parse_exponent(toks, chart)
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
        exp_text = repr(exponent) if exponent >= 0 else f"(-{repr(-exponent)})"
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


# ---------------------------------------------------------------------------
# evaluation: the scalar rules the compiled programs of ``jets`` share, and
# the tree walk kept as their independent oracle
# ---------------------------------------------------------------------------

def _apply_unary(op: str, x: float, node: Expr) -> float:
    if op == "neg":
        return -x
    if op == "sin":
        return math.sin(x)
    if op == "cos":
        return math.cos(x)
    if op == "ln":
        if x <= 0.0:
            raise DomainError(f"ln of non-positive value {x!r}", node)
        return math.log(x)
    if op == "exp":
        out = math.exp(x) if x < 710 else math.inf
        if not math.isfinite(out):
            raise DomainError(f"exp overflow at {x!r}", node)
        return out
    if op == "sqrt":
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x!r}", node)
        return math.sqrt(x)
    raise ValueError(f"unknown unary op {op!r}")


def _apply_binary(op: str, a: float, b: float, node: Expr) -> float:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0.0:
            raise DomainError("division by zero", node)
        return a / b
    if op == "pow":
        if a == 0.0 and b < 0:
            raise DomainError("zero base with negative exponent", node)
        if a < 0.0 and b != int(b):
            raise DomainError(f"negative base {a!r} with non-integer exponent", node)
        try:
            out = a ** b
        except OverflowError:
            raise DomainError("pow overflow", node) from None
        if not math.isfinite(out):
            raise DomainError("pow overflow", node)
        return out
    raise ValueError(f"unknown binary op {op!r}")


def evaluate(node: Expr, point) -> float:
    """Evaluate the tree at a point (list of chart coordinate values).

    A plain recursive walk, independent of the compiled programs that
    ``TensorField`` runs: tests check ``jets.run_program`` against it, and
    the audit uses it on the paper's printed formulas.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index])
    if isinstance(node, Unary):
        return _apply_unary(node.op, evaluate(node.arg, point), node)
    left = evaluate(node.left, point)
    right = evaluate(node.right, point)
    return _apply_binary(node.op, left, right, node)
