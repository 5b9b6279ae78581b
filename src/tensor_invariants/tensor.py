"""Dense tensors over a chart: point values, algebra, and expression fields.

Storage is row-major with the index order as written in the formulas this
package implements (contravariant slot first).  Variance is a string of
``'u'``/``'l'`` flags, one per slot.

Convention lock (the single most error-prone choice in this codebase): the
alternation bracket is the two-term difference WITHOUT the 1/2 factor,

    alternate(A)_{..m..n..} = A_{..m..n..} - A_{..n..m..},

while pair symmetrization DOES carry the 1/2.  Jointly these make the
projective Weyl assembly collapse to its Riemannian form when the Ricci
tensor is symmetric: N/(N^2-1) + 1/(N^2-1) = 1/(N-1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import expr as ex
from .jets import eval_jet

__all__ = [
    "TensorValue",
    "contract",
    "alternate",
    "sym",
    "outer",
    "kronecker",
    "dumps",
    "loads",
    "TensorField",
    "PointField",
    "zero_field",
    "scale_field",
    "add_fields",
    "LastPointMemo",
]

_LETTERS = "abcdefgh"


@dataclass(frozen=True)
class TensorValue:
    """A tensor evaluated at a point: dense data plus a variance signature."""

    data: np.ndarray
    variance: str

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != len(self.variance):
            raise ValueError(f"variance {self.variance!r} does not match rank {data.ndim}")
        if any(flag not in "ul" for flag in self.variance):
            raise ValueError(f"variance flags must be 'u' or 'l': {self.variance!r}")

    @property
    def rank(self) -> int:
        return self.data.ndim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorValue)
            and self.variance == other.variance
            and np.array_equal(self.data, other.data)
        )


def _check_slot(t: TensorValue, slot: int) -> None:
    if not 0 <= slot < t.rank:
        raise ValueError(f"slot {slot} out of range for rank {t.rank}")


def contract(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Sum over the diagonal of one upper and one lower slot."""
    _check_slot(t, slot_a)
    _check_slot(t, slot_b)
    if slot_a == slot_b:
        raise ValueError("contraction slots must be distinct")
    if {t.variance[slot_a], t.variance[slot_b]} != {"u", "l"}:
        raise ValueError(
            f"contraction needs one upper and one lower slot, got "
            f"{t.variance[slot_a]!r} and {t.variance[slot_b]!r}"
        )
    letters = list(_LETTERS[: t.rank])
    letters[slot_b] = letters[slot_a]
    out_letters = [c for i, c in enumerate(letters) if i not in (slot_a, slot_b)]
    data = np.einsum(f"{''.join(letters)}->{''.join(out_letters)}", t.data)
    variance = "".join(f for i, f in enumerate(t.variance) if i not in (slot_a, slot_b))
    if not out_letters:
        return TensorValue(np.asarray(float(data)).reshape(()), "")
    return TensorValue(data, variance)


def alternate(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Two-term antisymmetrization A[..m..n..] - A[..n..m..] (no 1/2)."""
    _check_slot(t, slot_a)
    _check_slot(t, slot_b)
    if t.variance[slot_a] != t.variance[slot_b]:
        raise ValueError("alternation slots must have equal variance")
    return TensorValue(t.data - np.swapaxes(t.data, slot_a, slot_b), t.variance)


def sym(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Pair symmetrization with the 1/2 factor."""
    _check_slot(t, slot_a)
    _check_slot(t, slot_b)
    if t.variance[slot_a] != t.variance[slot_b]:
        raise ValueError("symmetrization slots must have equal variance")
    return TensorValue(0.5 * (t.data + np.swapaxes(t.data, slot_a, slot_b)), t.variance)


def outer(a: TensorValue, b: TensorValue) -> TensorValue:
    return TensorValue(np.multiply.outer(a.data, b.data), a.variance + b.variance)


def kronecker(chart_or_dim) -> TensorValue:
    n = getattr(chart_or_dim, "dim", chart_or_dim)
    return TensorValue(np.eye(n), "ul")


def dumps(t: TensorValue) -> str:
    """Serialize to the tensor dump format (flat row-major data)."""
    payload = {
        "shape": list(t.data.shape),
        "variance": t.variance,
        "data": [repr(float(x)) for x in t.data.reshape(-1)],
        "index_order": "paper",
    }
    return json.dumps(payload)


def loads(text: str) -> TensorValue:
    payload = json.loads(text)
    if payload.get("index_order") != "paper":
        raise ValueError("unsupported index order")
    data = np.array([float(x) for x in payload["data"]]).reshape(payload["shape"])
    return TensorValue(data, payload["variance"])


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
    """(value, grad) for order 1, (value, grad, hess) for order 2."""
    jets = [eval_jet(node, point, order=order) for node in entries]
    value = np.array([j.value for j in jets]).reshape(shape)
    grad = np.array([j.grad for j in jets]).reshape(shape + (n,))
    if order == 1:
        return value, grad
    return value, grad, np.array([j.hess for j in jets]).reshape(shape + (n, n))


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
