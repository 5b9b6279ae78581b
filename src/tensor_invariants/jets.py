"""One engine for field values and exact jets: compiled programs.

:func:`compile_program` compiles the entries of a field (one expression, or
every entry of a tensor) into one program of ``(code, arg, node, left,
right)`` ops, one per distinct subtree, each writing a slot from its
operands' slots.  An op's key is its code, the constant's bits (0.0 and -0.0
stay apart), the variable's index and the operands' slots, so a subtree
repeated within or across entries (mirror entries, a shared ``sin(u)``) is
computed once, with the bits a program of one entry gives.  ``node`` is the
op's tree node, so a ``DomainError`` names the subexpression that failed;
a scalar map (a function, or ``pow`` with its constant exponent folded in)
carries its derivative rule as ``arg``, built once per op.
:func:`run_program` runs a program at order 0 on plain floats, by the scalar
rules of ``expr`` (``_apply_unary``/``_apply_binary``) and IEEE arithmetic,
or at order 1 or 2 on ``(value, grad, hess)`` by
truncated Taylor arithmetic (Griewank & Walther, *Evaluating Derivatives*,
ch. 13), so partials are exact up to rounding.  The zero gradient of a
constant subtree and the zero Hessian of a linear one are carried as None
and cost no array work.  Order 2 is the most the library needs (second
partials of a metric give the first partials of its Christoffel symbols);
every other field is jetted to order 1.

The same interpreter runs a program over a ``(P, N)`` array of points, the
Taylor arithmetic vectorised over a leading point axis: values ``(P,)``,
gradients ``(P, N)``, Hessians ``(P, N, N)``.  Scalar maps keep their float
rules, applied to each point in turn (numpy's ``exp``/``log``/``power`` can
differ from ``math`` by an ulp), so each point's channels are bit-identical
to a run at that point alone.

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

__all__ = ["Program", "compile_program", "run_program"]


class Program(NamedTuple):
    """Ops in run order, each entry's slot, and per op the entry that made it."""

    ops: tuple
    roots: tuple
    owners: tuple


def compile_program(*entries: Expr) -> Program:
    """Compile the entries into one program, one op per distinct subtree."""
    ops, owners, slots = [], [], {}

    def visit(node) -> int:
        left = right = arg = tag = None
        if isinstance(node, Const):
            code, arg, tag = "const", node.value, (node.value, math.copysign(1.0, node.value))
        elif isinstance(node, Var):
            code, arg, tag = "var", node.index, node.index
        elif isinstance(node, Unary):
            code, tag, left = ("neg" if node.op == "neg" else "map"), node.op, visit(node.arg)
        elif node.op == "pow":
            p = node.right.value
            code, tag, left = "map", (p, math.copysign(1.0, p)), visit(node.left)
        else:
            code, left, right = node.op, visit(node.left), visit(node.right)
        key = (code, tag, left, right)
        slot = slots.get(key)
        if slot is None:
            if code == "map":  # the rule is built for a new op only
                arg = (
                    partial(_pow_derivatives, node.right.value)
                    if node.op == "pow"
                    else partial(_unary_derivatives, node.op)
                )
            slot = slots[key] = len(ops)
            ops.append((code, arg, node, left, right))
            owners.append(owner)
        return slot

    roots = []
    for owner, node in enumerate(entries):
        roots.append(visit(node))
    return Program(tuple(ops), tuple(roots), tuple(owners))


def run_program(program: Program, point, order: int):
    """Run `program` at `point`: the entries' values at order 0, else their
    channels up to the order, ``(value, grad)`` or ``(value, grad, hess)``,
    each with a leading entry axis: ``(E,)``, ``(E, N)`` and ``(E, N, N)``.

    `point` is one point (N coordinates), or a ``(P, N)`` array of points;
    then the channels are ``(E, P)``, ``(E, P, N)`` and ``(E, P, N, N)``
    arrays, each row bit-identical to a run at that row alone: the Taylor
    arithmetic is elementwise, and scalar maps (and the reciprocal inside
    ``div``) apply the float rules below to each row in turn.  A run raises
    the ``DomainError`` of its first failing entry, at that entry's first
    failing row, as one-entry programs run in entry order do.
    """
    if not (isinstance(point, np.ndarray) and point.ndim == 2):
        return _run(program, point, order, ())
    try:
        return _run(program, point, order, point.shape[:1])
    except DomainError:
        # a row alone raises at the first failing op of its first failing
        # entry, since a lower entry's ops all run first: the row whose
        # failing op has the lowest owner, the first of them, is the one
        first = None
        for row in point.tolist():
            try:
                _run(program, row, order, ())
            except DomainError as error:
                owner = next(o for op, o in zip(program.ops, program.owners) if op[2] is error.node)
                if first is None or owner < first[0]:
                    first = owner, error
        if first is None:
            raise
        raise first[1]


def _run(program: Program, point, order: int, batch: tuple):
    slots: list = []
    push = slots.append
    n = point.shape[1] if batch else len(point)
    second = order == 2
    for code, arg, node, i, j in program.ops:
        if order == 0:
            if code == "const":
                push(arg)
            elif code == "var":
                push(point[:, arg] if batch else float(point[arg]))
            elif code == "map":
                push(_each(arg, slots[i], node, 0)[0])
            elif code == "neg":
                push(-slots[i])
            elif code != "div":
                push(_apply_binary(code, slots[i], slots[j], node))
            elif np.any(slots[j] == 0.0):
                raise DomainError("division by zero", node)
            else:
                push(slots[i] / slots[j])
        elif code == "mul":
            a, b = slots[i], slots[j]
            push(_product(a, b, a[0] * b[0], second))
        elif code == "map":
            a, ga, ha = slots[i]
            push(_chain(_each(arg, a, node, order), ga, ha, second))
        elif code == "add":
            (a, ga, ha), (b, gb, hb) = slots[i], slots[j]
            push((a + b, _plus(ga, gb), _plus(ha, hb)))
        elif code == "sub":
            (a, ga, ha), (b, gb, hb) = slots[i], slots[j]
            push((a - b, _minus(ga, gb), _minus(ha, hb)))
        elif code == "var":
            grad = np.zeros(batch + (n,))
            grad[..., arg] = 1.0
            push((point[:, arg] if batch else float(point[arg]), grad, None))
        elif code == "const":
            push((arg, None, None))
        elif code == "div":
            a, (b, gb, hb) = slots[i], slots[j]
            if np.any(b == 0.0):
                raise DomainError("division by zero", node)
            reciprocal = _chain(_each(_reciprocal, b, node, order), gb, hb, second)
            push(_product(a, reciprocal, a[0] / b, second))
        elif code == "neg":
            a, ga, ha = slots[i]
            push((-a, _minus(None, ga), _minus(None, ha)))
        else:
            raise ValueError(f"unknown binary op {code!r}")
    # channels by entry; a None channel of an entry stays zero
    out = [np.zeros((len(program.roots),) + batch + (n,) * k) for k in range(order + 1)]
    for entry, slot in enumerate(program.roots):
        for channel, part in zip(out, slots[slot] if order else (slots[slot],)):
            if part is not None:
                channel[entry] = part
    return tuple(out) if order else out[0]


def _each(rule, x, node: Expr, order: int):
    """A scalar map's value and derivatives at `x`: a float, or each entry
    of an array in turn (then one row per derivative)."""
    if not isinstance(x, np.ndarray):
        return rule(x, node, order)
    return np.array([rule(v, node, order) for v in x.tolist()]).T


# -- Taylor arithmetic on (value, grad, hess), None for a zero channel ---------
# A value is a float or a (P,) array; _col and _sq line it up with the
# derivative axes of (P, N) gradients and (P, N, N) Hessians.

def _col(value):
    return value[..., None] if isinstance(value, np.ndarray) else value


def _sq(value):
    return value[..., None, None] if isinstance(value, np.ndarray) else value


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _plus(x, y):
    if x is None:
        return y
    return x if y is None else x + y


def _minus(x, y):
    if y is None:
        return x
    return -y if x is None else x - y


def _product(left, right, value, second: bool) -> tuple:
    """Leibniz product; the caller gives the value channel."""
    (a, ga, ha), (b, gb, hb) = left, right
    grad = _plus(None if ga is None else ga * _col(b), None if gb is None else _col(a) * gb)
    hess = None
    if second:
        hess = None if ha is None else ha * _sq(b)
        if ga is not None and gb is not None:
            cross = _outer(ga, gb)
            hess = _plus(hess, cross) + np.swapaxes(cross, -1, -2)
        hess = _plus(hess, None if hb is None else _sq(a) * hb)
    return value, grad, hess


def _chain(f, grad, hess, second: bool) -> tuple:
    """Chain rule for a scalar map with value and derivatives `f`."""
    if grad is None:
        return f[0], None, None
    out = None
    if second:
        out = _plus(_sq(f[2]) * _outer(grad, grad), None if hess is None else _sq(f[1]) * hess)
    return f[0], _col(f[1]) * grad, out


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


_reciprocal = partial(_pow_derivatives, -1.0)
