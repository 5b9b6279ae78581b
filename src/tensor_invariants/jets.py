"""One engine for field values and exact jets: compiled programs, and the one
rule of each scalar map.

:func:`compile_program` compiles the entries of a field (one expression,
every entry of a tensor, or the entries of several fields run together) into
one program of ``(code, arg, node, left, right)`` ops, one per distinct
subtree, each writing a slot from its operands' slots.  An op's key is its code, the constant's bits (0.0 and -0.0
stay apart), the variable's index and the operands' slots, so a subtree
repeated within or across entries (mirror entries, a shared ``sin(u)``) is
computed once, with the bits a program of one entry gives.  ``node`` is the
op's tree node, so a ``DomainError`` names the subexpression that failed.
A scalar map (a function, or ``pow`` with its constant exponent folded in)
carries its rule as ``arg`` (:func:`rule_of`): numpy ufuncs on a whole value
(a constant subtree's float, or a ``(P,)`` array, in its dtype) give the
value, the derivatives up to the requested order and the domain checks, each
a mask of the rows that fail it: the order-1 jet of ``u^1.5`` at u = 0 is
fine, its order-2 jet is singular.

:func:`run_program` runs a program over a ``(P, N)`` array of points, one
point as one row, by truncated Taylor arithmetic (Griewank & Walther,
*Evaluating Derivatives*, ch. 13), exact up to rounding: values ``(P,)``,
gradients ``(P, N)`` and Hessians ``(P, N, N)`` up to the order, and order 0
is the jet with no derivative channels.  Every step is elementwise and each
ufunc gives a row the same bits in any batch (pinned by
``tests/test_jets.py``), so a row's channels are bit-identical to a run of
that row alone.  The channels are indexed entry first but laid out point
major: each is a ``(P, E, ...)`` buffer seen through ``swapaxes(0, 1)``, so
that a field's arrays, batch axis first, are C-contiguous (``tensor``).  A
zero channel is None and costs no array work: a constant's gradient, a
linear subtree's Hessian, every derivative at order 0.  Order 2 is the most
the library needs (second partials of a metric give Christoffel partials).
"""

from __future__ import annotations

import math
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
    """Compile the entries into one program, one op per distinct subtree.

    Every node is visited and keyed, so a subtree met again, as the same
    object (sampled fields share theirs) or as an equal tree, finds its
    first op's slot by its key."""
    ops, owners, slots = [], [], {}

    def visit(node) -> int:
        left = right = arg = tag = None
        if isinstance(node, Const):
            arg = node.value  # a zero's key keeps its sign: 0.0 and -0.0 stay apart
            code, tag = "const", arg if arg else (arg, math.copysign(1.0, arg))
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
    del visit  # its closure holds itself, ops and the trees: no cycle left for the GC
    return Program(tuple(ops), tuple(roots), tuple(owners))


def run_program(program: Program, point, order: int):
    """Run `program` at `point`: the entries' values at order 0 (one array,
    the value channel of any order bit for bit), else their channels up to
    the order, ``(value, grad)`` or ``(value, grad, hess)``, each with a
    leading entry axis: ``(E,)``, ``(E, N)`` and ``(E, N, N)``.

    `point` is one point (N coordinates), or a ``(P, N)`` array of points;
    then the channels are ``(E, P)``, ``(E, P, N)`` and ``(E, P, N, N)``
    arrays, in the points' floating dtype, each the entry-first view of a
    point-major buffer (``swapaxes(0, 1)`` of a C-contiguous ``(P, E, ...)``
    array).  Floats overflow to inf/NaN with numpy's warnings off.  A run
    whose checks fire raises the ``DomainError`` of its first failing entry
    at that entry's first failing row, as runs of each row alone in turn
    would.
    """
    points = np.asarray(point)
    if points.dtype.kind != "f":
        points = points.astype(float)
    rows = points if points.ndim == 2 else points[None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out, failures = _run(program, rows, order)
    if failures:
        # each row's first failing check, then the first row whose check has
        # the lowest owner (with no rows, only a constant's check can fire)
        first = np.full(max(len(rows), 1), len(failures))
        for k in range(len(failures) - 1, -1, -1):
            first[failures[k][2]] = k
        owners = np.array([failure[0] for failure in failures] + [len(program.roots)])
        row = int(np.argmin(owners[first]))
        _, node, _, reason, x = failures[first[row]]
        raise DomainError(reason.format(float(x[row] if isinstance(x, np.ndarray) else x)), node)
    if points.ndim != 2:
        out = [channel[:, 0] for channel in out]
    return tuple(out) if order else out[0]


def _run(program: Program, points: np.ndarray, order: int) -> tuple:
    """Each entry's channels, and ``(owner, node, fails, reason, x)`` of each
    check that fired, in run order; a slot is a jet (value, grad, hess)."""
    slots: list = []
    failures: list = []
    push = slots.append
    rows, n = points.shape
    second = order == 2
    for (code, arg, node, i, j), owner in zip(program.ops, program.owners):
        if code == "mul":
            a, b = slots[i], slots[j]
            push(_product(a, b, a[0] * b[0], second))
        elif code == "map":
            a, ga, ha = slots[i]
            push(_chain(_checked(arg(a, order), failures, owner, node, a), ga, ha, second))
        elif code == "add":
            (a, ga, ha), (b, gb, hb) = slots[i], slots[j]
            push((a + b, _plus(ga, gb), _plus(ha, hb)))
        elif code == "sub":
            (a, ga, ha), (b, gb, hb) = slots[i], slots[j]
            push((a - b, _minus(ga, gb), _minus(ha, hb)))
        elif code == "var":
            grad = None
            if order:
                grad = np.zeros((rows, n), points.dtype)
                grad[:, arg] = 1.0
            push((points[:, arg], grad, None))
        elif code == "const":
            push((arg, None, None))
        elif code == "div":
            a, (b, gb, hb) = slots[i], slots[j]
            reciprocal = _checked(_divisor(b, order), failures, owner, node, b)
            push(_product(a, _chain(reciprocal, gb, hb, second), np.divide(a[0], b), second))
        elif code == "neg":
            a, ga, ha = slots[i]
            push((-a, _minus(None, ga), _minus(None, ha)))
        else:
            raise ValueError(f"unknown binary op {code!r}")
    # channels laid out point-major, (P, E, ...), and indexed entry-first;
    # a None channel of an entry stays zero
    lead = (rows, len(program.roots))
    out = [np.zeros(lead + (n,) * k, points.dtype).swapaxes(0, 1) for k in range(order + 1)]
    for entry, slot in enumerate(program.roots):
        for channel, part in zip(out, slots[slot]):
            if part is not None:
                channel[entry] = part
    return out, failures


def _checked(rule_result, failures: list, owner: int, node: Expr, x):
    """A rule's derivatives; each of its checks that fires is recorded."""
    derivs, checks = rule_result
    for fails, reason in checks:
        if np.count_nonzero(fails):
            failures.append((owner, node, fails, reason, x))
    return derivs


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


# -- scalar maps: a rule takes a whole value (a float, or a (P,) array) and
# the order, and gives the value and derivatives up to the order and its
# domain checks in order, (fails, reason) pairs whose "{!r}" takes the failing
# row's argument.  Nothing raises: a failing row computes inf/NaN, unread.

def _sin(x, order: int) -> tuple:
    value = np.sin(x)
    derivs = (value, np.cos(x)) if order else (value,)
    derivs += (-value,) if order == 2 else ()
    return derivs, ((np.isinf(x), "sin of non-finite value {!r}"),)


def _cos(x, order: int) -> tuple:
    value = np.cos(x)
    derivs = (value, -np.sin(x)) if order else (value,)
    derivs += (-value,) if order == 2 else ()
    return derivs, ((np.isinf(x), "cos of non-finite value {!r}"),)


def _exp(x, order: int) -> tuple:
    value = np.exp(x)
    return (value,) * (order + 1), ((~np.isfinite(value), "exp overflow at {!r}"),)


def _ln(x, order: int) -> tuple:
    checks = ((np.less_equal(x, 0.0), "ln of non-positive value {!r}"),)
    if not order:
        return (np.log(x),), checks
    inv = np.divide(1.0, x)
    return ((np.log(x), inv) if order == 1 else (np.log(x), inv, -inv * inv)), checks


def _sqrt(x, order: int) -> tuple:
    checks = [(np.less(x, 0.0), "sqrt of negative value {!r}")]
    value = np.sqrt(x)
    if not order:
        return (value,), checks
    checks.append((np.equal(x, 0.0), "sqrt derivative singular at zero"))
    inv = 0.5 / value
    return ((value, inv) if order == 1 else (value, inv, -0.5 * inv / x)), checks


def _pow(p: float, x, order: int) -> tuple:
    """``x^p`` for a constant exponent `p`."""
    checks = []
    if p < 0:
        checks.append((np.equal(x, 0.0), "zero base with negative exponent"))
    if p != int(p):
        checks.append((np.less(x, 0.0), "negative base {!r} with non-integer exponent"))
    value = np.power(x, p)
    checks.append((~np.isfinite(value), "pow overflow"))
    derivs = [value]
    coeff = 1.0
    for k in range(1, order + 1):
        coeff *= p - (k - 1)
        exponent = p - k
        if coeff == 0.0 or exponent == 0:  # x^0 is 1
            derivs.append(coeff)
        elif exponent == 1:  # x^1 is x, exactly
            derivs.append(coeff * x)
        else:
            power = np.power(x, exponent)
            # past x^p's checks, only p - k < 0 fails: at zero (if p >= 0), by overflow
            if exponent < 0:
                if p >= 0:
                    checks.append((np.equal(x, 0.0), "pow derivative singular at zero base"))
                checks.append((np.isinf(power), "pow derivative overflow"))
            derivs.append(coeff * power)
    return derivs, checks


def _divisor(x, order: int) -> tuple:
    """``div``'s rule for its divisor: the zero check, then above order 0 the
    reciprocal's rule, whose jet the quotient's derivatives take."""
    zero = (np.equal(x, 0.0), "division by zero")
    if not order:
        return (None,), (zero,)
    derivs, checks = _pow(-1.0, x, order)
    return derivs, [zero] + checks[1:]  # checks[0], the zero base, is the same test


RULES = {"sin": _sin, "cos": _cos, "exp": _exp, "ln": _ln, "sqrt": _sqrt}
"""The rule of each function of the grammar (``expr.FUNCTIONS``)."""


def rule_of(node: Expr):
    """The rule of a scalar-map node: a function's, or ``pow``'s with the
    node's constant exponent bound."""
    return partial(_pow, node.right.value) if node.op == "pow" else RULES[node.op]
