"""Forward-mode derivative jets via truncated Taylor arithmetic.

A :class:`Jet3` carries a value together with exact partial derivatives up to
third order at a point.  Propagation uses truncated Taylor products and the
chain rule, not finite differences, so partials are exact up to rounding.
The library asks for order 2 at most: second partials of a metric give the
first partials of its Christoffel symbols, which curvature needs, and every
other field (connection coefficients, omega data) is jetted to order 1.
Order 3 is supported and tested but has no caller in the library.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import Const, DomainError, Expr, Unary, Var, _apply_binary, _apply_unary

__all__ = ["Jet3", "eval_jet"]


class Jet3:
    """Value plus symmetric partial-derivative tensors, truncated at `order`."""

    __slots__ = ("n", "order", "value", "grad", "hess", "third")

    def __init__(self, n: int, order: int, value: float, grad=None, hess=None, third=None):
        if not 0 <= order <= 3:
            raise ValueError("jet order must be in 0..3")
        self.n = n
        self.order = order
        self.value = float(value)
        self.grad = np.zeros(n) if grad is None and order >= 1 else grad
        self.hess = np.zeros((n, n)) if hess is None and order >= 2 else hess
        self.third = np.zeros((n, n, n)) if third is None and order >= 3 else third

    @classmethod
    def constant(cls, n: int, order: int, value: float) -> "Jet3":
        return cls(n, order, value)

    @classmethod
    def variable(cls, n: int, order: int, index: int, value: float) -> "Jet3":
        jet = cls(n, order, value)
        if order >= 1:
            jet.grad = np.zeros(n)
            jet.grad[index] = 1.0
        return jet

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "Jet3":
        out = Jet3(self.n, self.order, -self.value)
        if self.order >= 1:
            out.grad = -self.grad
        if self.order >= 2:
            out.hess = -self.hess
        if self.order >= 3:
            out.third = -self.third
        return out

    def add(self, other: "Jet3", sign: float = 1.0) -> "Jet3":
        out = Jet3(self.n, self.order, self.value + sign * other.value)
        if self.order >= 1:
            out.grad = self.grad + sign * other.grad
        if self.order >= 2:
            out.hess = self.hess + sign * other.hess
        if self.order >= 3:
            out.third = self.third + sign * other.third
        return out

    def mul(self, other: "Jet3", value: float | None = None) -> "Jet3":
        """Leibniz product; `value` overrides the value channel when the
        caller wants bit-exact agreement with the plain evaluator."""
        a0, b0 = self.value, other.value
        out = Jet3(self.n, self.order, a0 * b0 if value is None else value)
        if self.order >= 1:
            out.grad = self.grad * b0 + a0 * other.grad
        if self.order >= 2:
            cross = np.outer(self.grad, other.grad)
            out.hess = self.hess * b0 + cross + cross.T + a0 * other.hess
        if self.order >= 3:
            out.third = (
                self.third * b0
                + _sym3(self.hess, other.grad)
                + _sym3(other.hess, self.grad)
                + a0 * other.third
            )
        return out

    def compose(self, f: tuple[float, float, float, float]) -> "Jet3":
        """Chain rule for a scalar map applied to this jet.

        `f` holds the map's value and first three derivatives at self.value.
        """
        f0, f1, f2, f3 = f
        out = Jet3(self.n, self.order, f0)
        if self.order >= 1:
            out.grad = f1 * self.grad
        if self.order >= 2:
            out.hess = f2 * np.outer(self.grad, self.grad) + f1 * self.hess
        if self.order >= 3:
            g = self.grad
            ggg = np.einsum("i,j,k->ijk", g, g, g)
            out.third = f3 * ggg + f2 * _sym3(self.hess, g) + f1 * self.third
        return out


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Symmetrized hess-grad product: h_ij g_k + h_ik g_j + h_jk g_i."""
    hg = np.einsum("ij,k->ijk", h, g)
    return hg + hg.transpose(0, 2, 1) + hg.transpose(2, 0, 1)


def _pow_derivatives(x: float, p: float, node: Expr) -> tuple[float, float, float, float]:
    value = _apply_binary("pow", x, p, node)
    derivs = [value]
    coeff = 1.0
    for k in range(1, 4):
        coeff *= p - (k - 1)
        if coeff == 0.0:
            derivs.append(0.0)
        else:
            exponent = p - k
            if x == 0.0 and exponent < 0:
                raise DomainError("pow derivative singular at zero base", node)
            try:
                derivs.append(coeff * x ** exponent)
            except OverflowError:
                raise DomainError("pow derivative overflow", node) from None
    return tuple(derivs)


def _unary_derivatives(op: str, x: float, node: Expr) -> tuple[float, float, float, float]:
    value = _apply_unary(op, x, node)
    if op == "sin":
        c = math.cos(x)
        return (value, c, -value, -c)
    if op == "cos":
        s = math.sin(x)
        return (value, -s, -value, s)
    if op == "exp":
        return (value, value, value, value)
    if op == "ln":
        inv = 1.0 / x
        return (value, inv, -inv * inv, 2.0 * inv ** 3)
    if op == "sqrt":
        if x == 0.0:
            raise DomainError("sqrt derivative singular at zero", node)
        inv = 0.5 / value
        return (value, inv, -0.5 * inv / x, 0.75 * inv / (x * x))
    raise ValueError(f"unknown unary op {op!r}")


def eval_jet(node: Expr, point, order: int = 3) -> Jet3:
    """Evaluate an expression tree with partials up to `order` at `point`."""
    n = len(point)
    if isinstance(node, Const):
        return Jet3.constant(n, order, node.value)
    if isinstance(node, Var):
        return Jet3.variable(n, order, node.index, float(point[node.index]))
    if isinstance(node, Unary):
        arg = eval_jet(node.arg, point, order)
        if node.op == "neg":
            return -arg
        return arg.compose(_unary_derivatives(node.op, arg.value, node))
    left = eval_jet(node.left, point, order)
    right = eval_jet(node.right, point, order)
    if node.op == "add":
        return left.add(right)
    if node.op == "sub":
        return left.add(right, sign=-1.0)
    if node.op == "mul":
        return left.mul(right)
    if node.op == "div":
        if right.value == 0.0:
            raise DomainError("division by zero", node)
        reciprocal = right.compose(_pow_derivatives(right.value, -1.0, node))
        return left.mul(reciprocal, value=_apply_binary("div", left.value, right.value, node))
    if node.op == "pow":
        return left.compose(_pow_derivatives(left.value, node.right.value, node))
    raise ValueError(f"unknown binary op {node.op!r}")
