"""Reference implementations that the tests compare the package against.

The package itself evaluates every expression through the compiled programs
of ``tensor_invariants.jets``; these routes reach the same numbers another
way, or one expression at a time:

- :func:`evaluate`, the plain recursive tree walk, node by node: the rule
  ``jets`` holds for each scalar map, and its own ``+ - * /``, independent of
  the compiled programs;
- :func:`eval_jet`, one expression's value and partials at one point,
  through a one-entry program;
- :func:`riemannian_weyl`, the projective Weyl assembly reduced for a
  symmetric Ricci tensor;
- :func:`omega_square_residual`, the audit's omega-square measurement one
  random draw at a time, each on a batch of its own.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from tensor_invariants.expr import Const, DomainError, Expr, Unary, Var
from tensor_invariants.geometry import (
    RICCI_LAST,
    Space,
    curvature,
    delta_bracket,
    ricci_arrays,
)
from tensor_invariants.invariants import omega, omega_square_expanded
from tensor_invariants.jets import compile_program, rule_of, run_program
from tensor_invariants.sampling import random_omega_spec
from tensor_invariants.tensor import PointBatch


def evaluate(node: Expr, point) -> float:
    """Evaluate the tree at a point (list of chart coordinate values)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index])
    if isinstance(node, Unary) and node.op == "neg":
        return -evaluate(node.arg, point)
    if isinstance(node, Unary) or node.op == "pow":
        arg = evaluate(node.arg if isinstance(node, Unary) else node.left, point)
        return rule_of(node)(arg, node, 0)[0]
    left = evaluate(node.left, point)
    right = evaluate(node.right, point)
    if node.op == "div" and right == 0.0:
        raise DomainError("division by zero", node)
    return _ARITHMETIC[node.op](left, right)


_ARITHMETIC = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


class Jet(NamedTuple):
    """One expression's value and partials at a point; None above the order."""

    value: float
    grad: np.ndarray | None
    hess: np.ndarray | None


def eval_jet(node: Expr, point, order: int = 2) -> Jet:
    """Compile one expression and run it at `point`, with partials up to `order`."""
    if not 0 <= order <= 2:
        raise ValueError("jet order must be in 0..2")
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_program(compile_program(node), point, order)
    return Jet(*[c[0] for c in (result if order else (result,))], *[None] * (2 - order))


def riemannian_weyl(space: Space, convention: str = RICCI_LAST):
    """Weyl assembly specialized to symmetric Ricci (Riemannian reduction)."""
    riemann = curvature(space)

    def reduced(point) -> np.ndarray:
        r = riemann(point)
        return r + delta_bracket(ricci_arrays(r, convention)) / (r.shape[-1] - 1)

    return reduced


def omega_square_residual(chart, rng, points) -> float:
    """The largest gap between omega^a_{jm} omega^i_{an} contracted directly
    and its printed expansion, over 50 random omega specs drawn from `rng`,
    each evaluated on the first 3 `points` as a batch of its own."""
    worst = 0.0
    for _ in range(50):
        spec = random_omega_spec(chart, rng)
        batch = PointBatch(points[:3])
        w = omega(spec, batch)
        direct = np.einsum("...ajm,...ian->...ijmn", w, w)
        worst = max(worst, float(np.max(np.abs(direct - omega_square_expanded(spec, batch)))))
    return worst
