"""One engine for field values and exact jets: compiled postfix programs.

:func:`compile_program` flattens an expression tree once to ``(code, arg,
node)`` ops.  ``node`` is the op's tree node, so a ``DomainError`` names the
subexpression ``expr.evaluate`` would name; a scalar map (a function, or
``pow`` with its constant exponent folded in) carries its derivative rule as
``arg``.  :func:`run_program` runs a program at order 0 on plain floats,
exactly as ``expr.evaluate`` computes, or at order 1 or 2 on ``(value, grad,
hess)`` by truncated Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, ch. 13), so partials are exact up to rounding.  The zero
gradient of a constant subtree and the zero Hessian of a linear one are
carried as None and cost no array work.  Order 2 is the most the library
needs (second partials of a metric give the first partials of its
Christoffel symbols); every other field is jetted to order 1.

Derivatives of a scalar map are formed only up to the requested order, so a
lower-order jet never fails on a derivative it does not carry (the order-1
jet of ``u^1.5`` at u = 0 is fine; its order-2 jet is singular).  Floats
overflow to inf/NaN without raising: callers run programs with numpy's
overflow warnings off and check the results.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .expr import Const, DomainError, Expr, Unary, Var, _apply_binary, _apply_unary

__all__ = ["Jet", "compile_program", "run_program", "eval_jet"]


class Jet(NamedTuple):
    """One expression's value and partials at a point; None above the order."""

    value: float
    grad: np.ndarray | None
    hess: np.ndarray | None


def compile_program(node: Expr) -> tuple:
    """Flatten a tree to the postfix program :func:`run_program` runs."""
    if isinstance(node, Const):
        return (("const", node.value, node),)
    if isinstance(node, Var):
        return (("var", node.index, node),)
    if isinstance(node, Unary):
        if node.op == "neg":
            return compile_program(node.arg) + (("neg", None, node),)
        rule = partial(_unary_derivatives, node.op)
        return compile_program(node.arg) + (("map", rule, node),)
    if node.op == "pow":
        rule = partial(_pow_derivatives, node.right.value)
        return compile_program(node.left) + (("map", rule, node),)
    return compile_program(node.left) + compile_program(node.right) + ((node.op, None, node),)


def run_program(program: tuple, point, order: int):
    """Run `program` at `point`: the value at order 0, else the channels up
    to the order, ``(value, grad)`` or ``(value, grad, hess)``."""
    stack: list = []
    if order == 0:
        for code, arg, node in program:
            if code == "const":
                stack.append(arg)
            elif code == "var":
                stack.append(float(point[arg]))
            elif code == "map":
                stack[-1] = arg(stack[-1], node, 0)[0]
            elif code == "neg":
                stack[-1] = -stack[-1]
            else:
                b = stack.pop()
                stack[-1] = _apply_binary(code, stack[-1], b, node)
        return stack[0]

    push, pop = stack.append, stack.pop
    n = len(point)
    second = order == 2
    for code, arg, node in program:
        if code == "var":
            grad = np.zeros(n)
            grad[arg] = 1.0
            push((float(point[arg]), grad, None))
        elif code == "const":
            push((arg, None, None))
        elif code == "map":
            a, ga, ha = pop()
            push(_chain(arg(a, node, order), ga, ha, second))
        elif code == "mul":
            b, a = pop(), pop()
            push(_product(a, b, a[0] * b[0], second))
        elif code == "add":
            (b, gb, hb), (a, ga, ha) = pop(), pop()
            push((a + b, _plus(ga, gb), _plus(ha, hb)))
        elif code == "sub":
            (b, gb, hb), (a, ga, ha) = pop(), pop()
            push((a - b, _minus(ga, gb), _minus(ha, hb)))
        elif code == "div":
            (b, gb, hb), a = pop(), pop()
            if b == 0.0:
                raise DomainError("division by zero", node)
            reciprocal = _chain(_pow_derivatives(-1.0, b, node, order), gb, hb, second)
            push(_product(a, reciprocal, a[0] / b, second))
        elif code == "neg":
            a, ga, ha = pop()
            push((-a, _minus(None, ga), _minus(None, ha)))
        else:
            raise ValueError(f"unknown binary op {code!r}")
    value, grad, hess = stack[0]
    if grad is None:
        grad = np.zeros(n)
    if not second:
        return value, grad
    return value, grad, np.zeros((n, n)) if hess is None else hess


# -- Taylor arithmetic on (value, grad, hess), None for a zero channel ---------

def _plus(x, y):
    if x is None:
        return y
    return x if y is None else x + y


def _minus(x, y):
    if y is None:
        return x
    return -y if x is None else x - y


def _product(left, right, value: float, second: bool) -> tuple:
    """Leibniz product; the caller gives the value channel."""
    (a, ga, ha), (b, gb, hb) = left, right
    grad = _plus(None if ga is None else ga * b, None if gb is None else a * gb)
    hess = None
    if second:
        hess = None if ha is None else ha * b
        if ga is not None and gb is not None:
            cross = ga[:, None] * gb
            hess = _plus(hess, cross) + cross.T
        hess = _plus(hess, None if hb is None else a * hb)
    return value, grad, hess


def _chain(f, grad, hess, second: bool) -> tuple:
    """Chain rule for a scalar map with value and derivatives `f`."""
    if grad is None:
        return f[0], None, None
    out = None
    if second:
        out = _plus(f[2] * (grad[:, None] * grad), None if hess is None else f[1] * hess)
    return f[0], f[1] * grad, out


def _pow_derivatives(p: float, x: float, node: Expr, order: int) -> list[float]:
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
    value = _apply_unary(op, x, node)  # raises on an unknown op
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
    return derivs[: order + 1]


def eval_jet(node: Expr, point, order: int = 2) -> Jet:
    """Compile one expression and run it at `point`, with partials up to `order`."""
    if not 0 <= order <= 2:
        raise ValueError("jet order must be in 0..2")
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_program(compile_program(node), point, order)
    return Jet(*result, *[None] * (2 - order)) if order else Jet(result, None, None)
