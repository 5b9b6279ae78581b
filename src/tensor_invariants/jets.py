"""Forward-mode derivative jets via truncated Taylor arithmetic.

A :class:`Jet` carries a value together with exact partial derivatives up to
second order at a point.  Propagation uses truncated Taylor products and the
chain rule, not finite differences, so partials are exact up to rounding.
Order 2 is the most the library needs: second partials of a metric give the
first partials of its Christoffel symbols, which curvature needs, and every
other field (connection coefficients, omega data) is jetted to order 1.

Derivatives of a scalar map are computed only up to the requested order, so
a lower-order jet never fails on a derivative it does not carry (the order-1
jet of ``u^1.5`` at u = 0 is fine; its order-2 jet is singular).
"""

from __future__ import annotations

import math

import numpy as np

from .expr import Const, DomainError, Expr, Unary, Var, _apply_binary, _apply_unary

__all__ = ["Jet", "eval_jet"]


class Jet:
    """Value plus symmetric partial-derivative tensors, truncated at `order`."""

    __slots__ = ("n", "order", "value", "grad", "hess")

    def __init__(self, n: int, order: int, value: float, grad=None, hess=None):
        if not 0 <= order <= 2:
            raise ValueError("jet order must be in 0..2")
        self.n = n
        self.order = order
        self.value = float(value)
        self.grad = np.zeros(n) if grad is None and order >= 1 else grad
        self.hess = np.zeros((n, n)) if hess is None and order >= 2 else hess

    @classmethod
    def constant(cls, n: int, order: int, value: float) -> "Jet":
        return cls(n, order, value)

    @classmethod
    def variable(cls, n: int, order: int, index: int, value: float) -> "Jet":
        jet = cls(n, order, value)
        if order >= 1:
            jet.grad = np.zeros(n)
            jet.grad[index] = 1.0
        return jet

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "Jet":
        out = Jet(self.n, self.order, -self.value)
        if self.order >= 1:
            out.grad = -self.grad
        if self.order >= 2:
            out.hess = -self.hess
        return out

    def add(self, other: "Jet", sign: float = 1.0) -> "Jet":
        out = Jet(self.n, self.order, self.value + sign * other.value)
        if self.order >= 1:
            out.grad = self.grad + sign * other.grad
        if self.order >= 2:
            out.hess = self.hess + sign * other.hess
        return out

    def mul(self, other: "Jet", value: float | None = None) -> "Jet":
        """Leibniz product; `value` overrides the value channel when the
        caller wants bit-exact agreement with the plain evaluator."""
        a0, b0 = self.value, other.value
        out = Jet(self.n, self.order, a0 * b0 if value is None else value)
        if self.order >= 1:
            out.grad = self.grad * b0 + a0 * other.grad
        if self.order >= 2:
            cross = np.outer(self.grad, other.grad)
            out.hess = self.hess * b0 + cross + cross.T + a0 * other.hess
        return out

    def compose(self, f) -> "Jet":
        """Chain rule for a scalar map applied to this jet.

        `f` holds the map's value and its derivatives at self.value, up to
        this jet's order.
        """
        out = Jet(self.n, self.order, f[0])
        if self.order >= 1:
            out.grad = f[1] * self.grad
        if self.order >= 2:
            out.hess = f[2] * np.outer(self.grad, self.grad) + f[1] * self.hess
        return out


def _pow_derivatives(x: float, p: float, node: Expr, order: int) -> list[float]:
    derivs = [_apply_binary("pow", x, p, node)]
    coeff = 1.0
    for k in range(1, order + 1):
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
    return derivs


def _unary_derivatives(op: str, x: float, node: Expr, order: int) -> tuple[float, ...]:
    value = _apply_unary(op, x, node)
    if order == 0:
        return (value,)
    if op == "sin":
        derivs = (value, math.cos(x), -value)
    elif op == "cos":
        derivs = (value, -math.sin(x), -value)
    elif op == "exp":
        derivs = (value, value, value)
    elif op == "ln":
        inv = 1.0 / x
        derivs = (value, inv, -inv * inv)
    elif op == "sqrt":
        if x == 0.0:
            raise DomainError("sqrt derivative singular at zero", node)
        inv = 0.5 / value
        derivs = (value, inv, -0.5 * inv / x)
    else:
        raise ValueError(f"unknown unary op {op!r}")
    return derivs[: order + 1]


def eval_jet(node: Expr, point, order: int = 2) -> Jet:
    """Evaluate an expression tree with partials up to `order` at `point`."""
    n = len(point)
    if isinstance(node, Const):
        return Jet.constant(n, order, node.value)
    if isinstance(node, Var):
        return Jet.variable(n, order, node.index, float(point[node.index]))
    if isinstance(node, Unary):
        arg = eval_jet(node.arg, point, order)
        if node.op == "neg":
            return -arg
        return arg.compose(_unary_derivatives(node.op, arg.value, node, order))
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
        reciprocal = right.compose(_pow_derivatives(right.value, -1.0, node, order))
        return left.mul(reciprocal, value=_apply_binary("div", left.value, right.value, node))
    if node.op == "pow":
        return left.compose(_pow_derivatives(left.value, node.right.value, node, order))
    raise ValueError(f"unknown binary op {node.op!r}")
