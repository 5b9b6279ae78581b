"""One engine for field values and exact jets: compiled programs, and the one
rule of each scalar map.

:func:`compile_program` compiles the entries of a field (one expression, or
every entry of a tensor) into one program of ``(code, arg, node, left,
right)`` ops, one per distinct subtree, each writing a slot from its
operands' slots.  An op's key is its code, the constant's bits (0.0 and -0.0
stay apart), the variable's index and the operands' slots, so a subtree
repeated within or across entries (mirror entries, a shared ``sin(u)``) is
computed once, with the bits a program of one entry gives.  ``node`` is the
op's tree node, so a ``DomainError`` names the subexpression that failed.
A scalar map (a function, or ``pow`` with its constant exponent folded in)
carries its rule as ``arg`` (:func:`rule_of`), the one place that checks the
map's domain and gives its value and derivatives by ``math``, only up to the
requested order: the order-1 jet of ``u^1.5`` at u = 0 is fine, its order-2
jet is singular.

:func:`run_program` runs a program over a ``(P, N)`` array of points, one
point as one row: values ``(P,)``, and at order 1 or 2 gradients ``(P, N)``
and Hessians ``(P, N, N)`` by truncated Taylor arithmetic (Griewank &
Walther, *Evaluating Derivatives*, ch. 13), exact up to rounding.  The
arithmetic is elementwise and each scalar map applies its float rule to
each row in turn (numpy's ``exp``/``log``/``power`` can differ from ``math``
by an ulp), so a row's channels are bit-identical to a run of that row
alone.  A constant subtree stays a float; its zero gradient and a linear
subtree's zero Hessian are None and cost no array work.  Order 2 is the
most the library needs (second partials of a metric give the first partials
of its Christoffel symbols).  Floats overflow to inf/NaN without raising:
callers run programs with numpy's overflow warnings off and check the
results.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import NamedTuple

import numpy as np

from .expr import Const, DomainError, Expr, Unary, Var

__all__ = ["Program", "RULES", "compile_program", "rule_of", "run_program"]


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
            if code == "map":  # the rule is looked up for a new op only
                arg = rule_of(node)
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
    ``div``) apply their float rules to each row in turn.  A run raises
    the ``DomainError`` of its first failing entry, at that entry's first
    failing row, as one-entry programs run in entry order do.
    """
    points = np.asarray(point, dtype=float)
    rows = points if points.ndim == 2 else points[None]
    try:
        out = _run(program, rows, order)
    except DomainError:
        # a row alone raises at the first failing op of its first failing
        # entry, since a lower entry's ops all run first: the row whose
        # failing op has the lowest owner, the first of them, is the one
        first = None
        for r in range(len(rows)):
            try:
                _run(program, rows[r : r + 1], order)
            except DomainError as error:
                owner = next(o for op, o in zip(program.ops, program.owners) if op[2] is error.node)
                if first is None or owner < first[0]:
                    first = owner, error
        if first is None:
            raise
        raise first[1]
    if points.ndim != 2:
        out = [channel[:, 0] for channel in out]
    return tuple(out) if order else out[0]


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _run(program: Program, points: np.ndarray, order: int) -> list:
    slots: list = []
    push = slots.append
    rows, n = points.shape
    second = order == 2
    for code, arg, node, i, j in program.ops:
        if order == 0:
            if code == "const":
                push(arg)
            elif code == "var":
                push(points[:, arg])
            elif code == "map":
                push(_each(arg, slots[i], node, 0)[0])
            elif code == "neg":
                push(-slots[i])
            elif code != "div":
                push(_ARITHMETIC[code](slots[i], slots[j]))
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
            grad = np.zeros((rows, n))
            grad[:, arg] = 1.0
            push((points[:, arg], grad, None))
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
    out = [np.zeros((len(program.roots), rows) + (n,) * k) for k in range(order + 1)]
    for entry, slot in enumerate(program.roots):
        for channel, part in zip(out, slots[slot] if order else (slots[slot],)):
            if part is not None:
                channel[entry] = part
    return out


def _each(rule, x, node: Expr, order: int):
    """A scalar map's value and derivatives at `x`: a float (a constant
    subtree), or each entry of an array in turn (then one row per derivative)."""
    if not isinstance(x, np.ndarray):
        return rule(x, node, order)
    return np.array([rule(v, node, order) for v in x.tolist()]).T


# -- Taylor arithmetic on (value, grad, hess), None for a zero channel ---------
# A value is a float (a constant subtree) or a (P,) array; _col and _sq line
# it up with the derivative axes of (P, N) gradients and (P, N, N) Hessians.

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


# -- scalar maps: a rule takes a float, the map's node (for its DomainError)
# and the order, and gives the map's value and derivatives up to the order.

def _sin(x: float, node: Expr, order: int) -> tuple:
    if math.isinf(x):
        raise DomainError(f"sin of non-finite value {x!r}", node)
    value = math.sin(x)
    return (value, math.cos(x), -value)[: order + 1] if order else (value,)


def _cos(x: float, node: Expr, order: int) -> tuple:
    if math.isinf(x):
        raise DomainError(f"cos of non-finite value {x!r}", node)
    value = math.cos(x)
    return (value, -math.sin(x), -value)[: order + 1] if order else (value,)


def _exp(x: float, node: Expr, order: int) -> tuple:
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"exp overflow at {x!r}", node)
    return (value,) * (order + 1)


def _ln(x: float, node: Expr, order: int) -> tuple:
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x!r}", node)
    value = math.log(x)
    if not order:
        return (value,)
    inv = 1.0 / x
    return (value, inv, -inv * inv)[: order + 1]


def _sqrt(x: float, node: Expr, order: int) -> tuple:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}", node)
    value = math.sqrt(x)
    if not order:
        return (value,)
    if x == 0.0:
        raise DomainError("sqrt derivative singular at zero", node)
    inv = 0.5 / value
    return (value, inv, -0.5 * inv / x)[: order + 1]


def _pow(p: float, x: float, node: Expr, order: int) -> list[float]:
    """``x^p`` for a constant exponent `p`."""
    if x == 0.0 and p < 0:
        raise DomainError("zero base with negative exponent", node)
    if x < 0.0 and p != int(p):
        raise DomainError(f"negative base {x!r} with non-integer exponent", node)
    try:
        value = x ** p
    except OverflowError:
        raise DomainError("pow overflow", node) from None
    if not math.isfinite(value):
        raise DomainError("pow overflow", node)
    derivs = [value]
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


RULES = {"sin": _sin, "cos": _cos, "exp": _exp, "ln": _ln, "sqrt": _sqrt}
"""The rule of each function of the grammar (``expr.FUNCTIONS``)."""

_reciprocal = partial(_pow, -1.0)


def rule_of(node: Expr):
    """The rule of a scalar-map node: a function's, or ``pow``'s with the
    node's constant exponent bound."""
    return partial(_pow, node.right.value) if node.op == "pow" else RULES[node.op]
