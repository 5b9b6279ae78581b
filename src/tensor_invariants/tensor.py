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
from .jets import compile_program, run_program

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
    """Dense tensor of parsed scalar expressions, each compiled once to the
    ``jets`` program that gives its values and partials."""

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
        self.programs = [compile_program(node) for node in flat]
        # the memos hold the programs, not the field, so that a field left
        # unused is freed at once rather than by the cycle collector
        self._value_memo, self._jet_memo, self._jet2_memo = (
            LastPointMemo(partial(_entry_arrays, self.programs, shape, order))
            for order in range(3)
        )

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


def _entry_arrays(programs, shape, order, point):
    """Entry values at order 0, else (value, grad[, hess]) with derivative
    axes last.  Floats overflow to inf/NaN without raising, so a non-finite
    value or derivative is caught here, naming its entry."""
    if order:
        with np.errstate(over="ignore", invalid="ignore"):
            results = [run_program(program, point, order) for program in programs]
        channels = [np.array(c) for c in zip(*results)]
    else:  # plain floats: no numpy warnings to silence
        channels = [np.array([run_program(program, point, 0) for program in programs])]
    if not all(np.isfinite(c).all() for c in channels):
        for program, entry in zip(programs, zip(*channels)):
            if not all(np.isfinite(c).all() for c in entry):
                # the last op of a program is its entry's root node
                raise ex.DomainError("non-finite value or derivative", program[-1][2])
    out = tuple(c.reshape(shape + c.shape[1:]) for c in channels)
    return out if order else out[0]


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
