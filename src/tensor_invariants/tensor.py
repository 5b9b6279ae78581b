"""Tensor fields over a chart: expression fields, point-function fields and
the last-point memo they share.

Storage is row-major with the index order as written in the formulas this
package implements (contravariant slot first), derivative axes last.
Variance is a string of ``'u'``/``'l'`` flags, one per slot.

Convention lock (the single most error-prone choice in this codebase): an
index bracket is the two-term difference WITHOUT the 1/2 factor,

    delta^i_[m R_jn] = delta^i_m R_jn - delta^i_n R_jm,

while pair symmetrization DOES carry the 1/2.  Jointly these make the
projective Weyl assembly (``geometry.weyl_arrays``) collapse to its
Riemannian form when the Ricci tensor is symmetric:
N/(N^2-1) + 1/(N^2-1) = 1/(N-1).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import expr as ex
from .jets import eval_jet

__all__ = [
    "TensorField",
    "PointField",
    "zero_field",
    "scale_field",
    "add_fields",
    "LastPointMemo",
]


# ---------------------------------------------------------------------------
# per-point memo
# ---------------------------------------------------------------------------

class LastPointMemo:
    """A point function that remembers its result at the last point only.

    The key is the point as an exact tuple of floats.  ``cache`` is a dict
    holding at most that one entry, so memory stays bounded however many
    points a run visits; a call at another point replaces the entry.  A
    point-major loop evaluates everything it needs at one point before it
    moves on, so one slot is enough for each object to be computed once per
    point.  Arrays in a result (or in a result tuple) are made read-only:
    a caller cannot alter what a later call at the same point returns.
    """

    __slots__ = ("fn", "cache")

    def __init__(self, fn):
        self.fn = fn
        self.cache: dict = {}

    def __call__(self, point):
        key = tuple(map(float, point))
        cache = self.cache
        if key in cache:
            return cache[key]
        value = _read_only(self.fn(point))
        cache.clear()
        cache[key] = value
        return value


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


# ---------------------------------------------------------------------------
# fields: tensors of scalar expressions, and generic point-function fields
# ---------------------------------------------------------------------------

class TensorField:
    """Dense tensor whose entries are parsed scalar expressions."""

    def __init__(self, chart: ex.Chart, variance: str, entries):
        self.chart = chart
        self.variance = variance
        n = chart.dim
        shape = (n,) * len(variance)
        flat: list[ex.Expr] = []

        def collect(node, depth):
            if depth == len(shape):
                if isinstance(node, str):
                    node = ex.parse(node, chart)
                flat.append(node)
                return
            if len(node) != n:
                raise ValueError(f"expected {n} entries at depth {depth}")
            for item in node:
                collect(item, depth + 1)

        collect(entries, 0)
        self.shape = shape
        self.entries = flat
        # the memos hold the entries, not the field, so that a field left
        # unused is freed at once rather than by the cycle collector
        self._value_memo = LastPointMemo(partial(_entry_values, flat, shape))
        self._jet_memo = LastPointMemo(partial(_entry_jets, flat, shape, n, 1))
        self._jet2_memo = LastPointMemo(partial(_entry_jets, flat, shape, n, 2))

    @classmethod
    def zeros(cls, chart: ex.Chart, variance: str) -> "TensorField":
        def build(depth):
            if depth == len(variance):
                return ex.Const(0.0)
            return [build(depth + 1) for _ in range(chart.dim)]

        return cls(chart, variance, build(0) if variance else ex.Const(0.0))

    def entry(self, *index) -> ex.Expr:
        flat = 0
        for i in index:
            flat = flat * self.chart.dim + i
        return self.entries[flat]

    def value(self, point) -> np.ndarray:
        """Entry values (read-only, computed once per point)."""
        return self._value_memo(point)

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Values and first partials; derivative axis last (read-only)."""
        return self._jet_memo(point)

    def jet2(self, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, first and second partials; derivative axes last (read-only)."""
        return self._jet2_memo(point)

    def strings(self) -> list:
        """Entries printed back to grammar text, nested per the shape."""

        def build(prefix):
            if len(prefix) == len(self.shape):
                return ex.print_expr(self.entry(*prefix), self.chart)
            return [build(prefix + (i,)) for i in range(self.chart.dim)]

        return build(())


def _entry_values(entries, shape, point) -> np.ndarray:
    return np.array([ex.evaluate(node, point) for node in entries]).reshape(shape)


def _entry_jets(entries, shape, n, order, point) -> tuple:
    """(value, grad) for order 1, (value, grad, hess) for order 2.

    Float products overflow to inf without raising, so a derivative too
    large for a float is caught here, naming the entry it came from.
    """
    jets = [eval_jet(node, point, order=order) for node in entries]
    out = (
        np.array([j.value for j in jets]).reshape(shape),
        np.array([j.grad for j in jets]).reshape(shape + (n,)),
    )
    if order == 2:
        out += (np.array([j.hess for j in jets]).reshape(shape + (n, n)),)
    if not all(np.isfinite(a).all() for a in out):
        for node, jet in zip(entries, jets):
            if not all(np.isfinite(x).all() for x in (jet.value, jet.grad, jet.hess)[: order + 1]):
                raise ex.DomainError("non-finite value or derivative", node)
    return out


class PointField:
    """Tensor field given by a point function returning (value, grad)."""

    def __init__(self, chart: ex.Chart, variance: str, fn):
        self.chart = chart
        self.variance = variance
        self._fn = fn

    def value(self, point) -> np.ndarray:
        return self._fn(point)[0]

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        return self._fn(point)


def zero_field(chart: ex.Chart, variance: str) -> PointField:
    n = chart.dim
    shape = (n,) * len(variance)

    def fn(point):
        return np.zeros(shape), np.zeros(shape + (n,))

    return PointField(chart, variance, fn)


def scale_field(field, factor: float) -> PointField:
    def fn(point):
        value, grad = field.jet(point)
        return factor * value, factor * grad

    return PointField(field.chart, field.variance, fn)


def add_fields(first, second) -> PointField:
    if first.variance != second.variance:
        raise ValueError("field variance mismatch")

    def fn(point):
        v1, g1 = first.jet(point)
        v2, g2 = second.jet(point)
        return v1 + v2, g1 + g2

    return PointField(first.chart, first.variance, fn)
