"""Seeded random fields, spaces and omega bundles for audits and tests.

Everything is expression-backed so jets stay exact; coefficients are kept
small so connections remain tame over the default [1, 2]^N sampling box.
Fields are built as expression trees, not as text: each tree is the one
``expr.parse`` gives for the term's printed text (a coefficient rounded to
4 decimals), drawn in the same order, so a seed gives the same fields.  A
term builds only its coefficient and its products: the subtrees x, sin(x),
cos(x) and ln(1+x^2) of each coordinate are built once per chart dimension
and shared by every term that uses them, so a compile walks each once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .expr import Binary, Chart, Const, Expr, Unary, Var
from .geometry import Space
from .invariants import OmegaSpec, SValues
from .mappings import MappingSpec
from .tensor import TensorField

__all__ = [
    "random_expr",
    "random_field",
    "random_symmetric_field",
    "random_omega_spec",
    "random_connection_space",
    "random_metric_space",
    "random_mapping",
]

# the upper bound of a random metric's diagonal coefficients, one ulp above 0.3
_DIAGONAL_HIGH = 0.2 + 0.1


def _coefficient(value: float) -> Expr:
    """``value`` rounded to 4 decimals, as ``parse`` reads its text: a
    leading ``-`` (``-0.0000`` too) is a negated constant."""
    text = f"{value:.4f}"
    if text.startswith("-"):
        return Unary("neg", Const(float(text[1:])))
    return Const(float(text))


def _mul(*factors: Expr) -> Expr:
    """``a*b*c`` as ``parse`` builds it: left-associated products."""
    node = factors[0]
    for factor in factors[1:]:
        node = Binary("mul", node, factor)
    return node


def _square(x: Expr) -> Expr:
    return Binary("pow", x, Const(2.0))


@lru_cache(maxsize=None)
def _factors(dim: int) -> tuple:
    """Per coordinate of a chart of dimension `dim`, the factors of the
    random terms, indexed by form: x, x, sin(x), cos(x), ln(1+x^2)."""
    out = []
    for x in map(Var, range(dim)):
        ln = Unary("ln", Binary("add", Const(1.0), _square(x)))
        out.append((x, x, Unary("sin", x), Unary("cos", x), ln))
    return tuple(out)


def random_expr(chart: Chart, rng: np.random.Generator) -> Expr:
    """One random term as an expression tree: ``c``, ``c*x``, ``c*x*y``,
    ``c*sin(x)``, ``c*cos(x)`` or ``c*ln(1+x^2)``, with c uniform in
    [-0.3, 0.3] rounded to 4 decimals and x, y random coordinates."""
    return _term(_factors(chart.dim), rng)


def _term(factors: tuple, rng) -> Expr:
    """:func:`random_expr` from the chart's factor table (:func:`_factors`),
    looked up once per field; each integer drawn is made a Python int once."""
    form = int(rng.integers(6))
    c = _coefficient(rng.uniform(-0.3, 0.3))
    if form == 0:
        return c
    n = len(factors)
    node = Binary("mul", c, factors[int(rng.integers(n))][form - 1])
    if form == 2:
        return Binary("mul", node, factors[int(rng.integers(n))][0])
    return node


def _nested(factors: tuple, rng, depth: int):
    if depth == 0:
        return _term(factors, rng)
    return [_nested(factors, rng, depth - 1) for _ in factors]


def random_field(chart: Chart, variance: str, rng) -> TensorField:
    return TensorField(chart, variance, _nested(_factors(chart.dim), rng, len(variance)))


def random_symmetric_field(chart: Chart, rng) -> TensorField:
    n = chart.dim
    factors = _factors(n)
    entries = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            entries[j][k] = entries[k][j] = _term(factors, rng)
    return TensorField(chart, "ll", entries)


def random_omega_spec(chart: Chart, rng, s: SValues | None = None) -> OmegaSpec:
    if s is None:
        s = SValues(*(float(x) for x in rng.uniform(-1.0, 1.0, 3)))
    return OmegaSpec(
        chart,
        s,
        rho=random_field(chart, "l", rng),
        sigma=random_field(chart, "l", rng),
        F=random_field(chart, "ul", rng),
        phi=random_field(chart, "u", rng),
        sigma2=random_symmetric_field(chart, rng),
    )


def random_connection_space(chart: Chart, rng) -> Space:
    return Space.from_connection(random_field(chart, "ull", rng))


def random_metric_space(chart: Chart, rng) -> Space:
    """Diagonally dominant metric, invertible over positive boxes."""
    n = chart.dim
    entries = [[None] * n for _ in range(n)]
    for j in range(n):
        coefficient = _coefficient(rng.uniform(0.1, _DIAGONAL_HIGH))
        entries[j][j] = Binary("add", Const(1.0 + j), _mul(coefficient, _square(Var(j))))
    for j in range(n):
        for k in range(j + 1, n):
            coefficient = _coefficient(rng.uniform(-0.05, 0.05))
            entries[j][k] = entries[k][j] = _mul(coefficient, Var(j), Var(k))
    return Space.from_metric(TensorField(chart, "ll", entries))


def random_mapping(chart: Chart, rng, s: SValues | None = None) -> MappingSpec:
    if s is None:
        s = SValues(*(float(x) for x in rng.uniform(-1.0, 1.0, 3)))
    return MappingSpec(random_omega_spec(chart, rng, s), random_omega_spec(chart, rng, s))
