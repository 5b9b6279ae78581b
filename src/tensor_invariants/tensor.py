"""Tensor fields over a chart: expression fields, point-function fields, the
point batches whose caches hold every shared result, and the
batch-invariant contraction of their arrays.

Storage is row-major with the index order as written in the formulas this
package implements (contravariant slot first), derivative axes last.
Variance is a string of ``'u'``/``'l'`` flags, one per slot.

Every field, connection and invariant evaluator takes either one point (a
sequence of N coordinates) or a :class:`PointBatch` of P points, and gives
its arrays with a leading axis of length P in the second case: ``value`` is
``(P, *shape)``, ``jet`` adds ``(P, *shape, N)`` and ``jet2`` ``(P, *shape,
N, N)``.  The kernels are written so that a point's result is bit-identical
whether it is evaluated alone or inside any batch: elementwise arithmetic,
Kronecker-delta products written into a diagonal (:func:`delta_product`),
traces summed in index order, and for a contraction of two operands one
BLAS call per point, of the same shape on C-contiguous operands, whether the
point is alone or a row of a stacked ``np.matmul`` (:func:`contract`).

Every result that readers share (a field's jets, a space's connection and
curvature, an invariant's building blocks) is computed once per batch by
:func:`memo` and kept in the batch's cache, so it lives as long as the
batch.  A block of a longer run (``PointBatch.blocks``) lets an expression
field jet several whole blocks at once, its span, as many as keep its
largest channel within one N^4 array per block; each block reads read-only
row views of the span's result, bit-identical to a run of its own.

Convention lock (the single most error-prone choice in this codebase): an
index bracket is the two-term difference WITHOUT the 1/2 factor,

    delta^i_[m R_jn] = delta^i_m R_jn - delta^i_n R_jm,

while pair symmetrization DOES carry the 1/2.  Jointly these make the
projective Weyl assembly (``geometry.weyl_arrays``) collapse to its
Riemannian form when the Ricci tensor is symmetric:
N/(N^2-1) + 1/(N^2-1) = 1/(N-1).
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from . import expr as ex
from .jets import compile_program, run_program

__all__ = [
    "TensorField",
    "PointField",
    "PointBatch",
    "batch_shape",
    "contract",
    "delta_product",
    "zero_field",
    "scale_field",
    "add_fields",
    "memo",
]


# ---------------------------------------------------------------------------
# point batches and their caches
# ---------------------------------------------------------------------------

class PointBatch(tuple):
    """P points of an N-dimensional chart, passed where one point would go,
    and the cache of the results computed on them (:func:`memo`).

    ``array`` holds the coordinates read-only: ``(P, N)``, or ``(N,)`` for a
    batch made from one point, whose results have no batch axis.  It
    iterates as its coordinates, row-major, as a point does.

    A block of a longer run of points (:meth:`blocks`) also knows that run,
    its first row in it and the run's block length, so that an evaluator
    whose arrays are small can run several whole blocks in one pass
    (:meth:`span`) and give each block its rows of the result.
    """

    run = None  # the batch this one is a block of
    start = 0  # the block's (or span's) first row in its run
    step = 0  # the run's block length

    def __new__(cls, points):
        array = np.array(points, dtype=float)
        if array.ndim not in (1, 2):
            raise ValueError("a point batch is a (P, N) array of coordinates, or one point")
        self = super().__new__(cls, array.ravel().tolist())
        array.flags.writeable = False
        self.array = array
        self.cache = {}
        return self

    def blocks(self, size: int) -> "_Blocks":
        """The batch cut into blocks of `size` points (the last may be
        shorter), each a batch that knows this one as its run, made when it
        is read so that it and its cache are freed once its reader moves on."""
        self.spans = {}
        return _Blocks(self, size)

    def span(self, blocks: int) -> tuple:
        """``(span, rows)`` for a block: the batch of `blocks` whole blocks
        of its run that holds it, spans laid end to end from the run's first
        row, and the slice of the span's rows that are the block's; the
        block itself and None when the span is no more than the block.  The
        run keeps the current span of each width only, so a span and the
        jets in its cache are freed once its blocks are done."""
        run, start, stop = self.run, self.start, self.start + len(self.array)
        width = blocks * self.step
        lo = start - start % width
        hi = min(lo + width, len(run.array))
        if lo == start and hi == stop:
            return self, None
        span = run.spans.get(width)
        if span is None or span.start != lo:
            span = run.spans[width] = PointBatch(run.array[lo:hi])
            span.start = lo
        return span, slice(start - lo, stop - lo)


class _Blocks:
    """A run's blocks, each made when it is read: ``blocks[k]``, or in turn."""

    def __init__(self, run: PointBatch, size: int):
        self.run, self.size = run, size

    def __getitem__(self, k: int) -> PointBatch:
        start = range(0, len(self.run.array), self.size)[k]  # IndexError past the end
        block = PointBatch(self.run.array[start : start + self.size])
        block.run, block.start, block.step = self.run, start, self.size
        return block


def batch_shape(point) -> tuple:
    """``(P,)`` for a batch of P points, ``()`` for one point."""
    return point.array.shape[:-1] if isinstance(point, PointBatch) else ()


def _batch(point) -> PointBatch:
    return point if isinstance(point, PointBatch) else PointBatch(point)


def memo(point, key, fn):
    """``fn(batch)``, computed once per batch: kept in the batch's cache
    under `key`, which names the result, with its arrays made read-only.  A
    plain point is made a one-point batch first."""
    batch = _batch(point)
    value = batch.cache.get(key)
    if value is None:
        value = batch.cache[key] = _read_only(fn(batch))
    return value


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


# ---------------------------------------------------------------------------
# batch-invariant contraction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _contraction_plan(spec: str, ndims: tuple, size: int):
    """How :func:`contract` forms `spec` for operands of `ndims` dimensions.

    A sum over a letter that appears once in each of two operands, with no
    other letter repeated, is a matrix product: ``("matmul", axis order and
    batch rank of the first operand, the same of the second, output rank,
    output axis order)``.  The axis orders take the first operand to (batch,
    kept, summed), the second to (batch, summed, kept), and the product's
    (batch, kept of the first, kept of the second) to the output letters.

    Anything else is ``("broadcast", axis orders, steps)``: per operand, the
    axis order that puts its kept letters in output order (summed letters
    last), and per term of the sum, the index that takes each operand's
    slice and lines it up with the output.

    An axis order that changes nothing is None."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    summed = set("".join(inputs)) - set(output)
    if len(summed) > 1:
        raise ValueError(f"contract sums over one index at most: {spec!r}")
    letter = summed.pop() if summed else None
    leads = [ndim - len(letters) for letters, ndim in zip(inputs, ndims)]
    kept = [sorted((c for c in letters if c != letter), key=output.index) for letters in inputs]

    def order(lead, axes):
        axes = tuple(range(lead)) + tuple(lead + k for k in axes)
        return None if axes == tuple(range(len(axes))) else axes

    joined = "".join(inputs)
    if (
        letter
        and len(inputs) == 2
        and all(letters.count(letter) == 1 for letters in inputs)
        and len(set(joined)) == len(joined) - 1
    ):
        (first, second), (lead1, lead2) = inputs, leads
        product = kept[0] + kept[1]
        return (
            "matmul",
            order(lead1, [first.index(c) for c in kept[0] + [letter]]),
            lead1,
            order(lead2, [second.index(c) for c in [letter] + kept[1]]),
            lead2,
            len(output),
            order(max(leads), [product.index(c) for c in output]),
        )
    axes, expands, repeats = [], [], []
    for letters, lead, keep in zip(inputs, leads, kept):
        summed_axes = [k for k, c in enumerate(letters) if c == letter]
        axes.append(order(lead, [letters.index(c) for c in keep] + summed_axes))
        expands.append((Ellipsis,) + tuple(slice(None) if c in keep else None for c in output))
        repeats.append(len(summed_axes))
    terms = range(size) if letter else (0,)
    steps = tuple(
        tuple(expand + (k,) * count for expand, count in zip(expands, repeats)) for k in terms
    )
    return "broadcast", tuple(axes), steps


def contract(spec: str, *operands: np.ndarray) -> np.ndarray:
    """``einsum``-like product with at most one summed index, such as
    ``contract("il,ljk->ijk", a, b)``.

    The letters name each operand's trailing axes, all of the chart's
    length; leading (batch) axes broadcast.  A sum over a letter that
    appears once in each of two operands is one ``np.matmul`` of stacked
    matrices ``(..., X, z) @ (..., z, Y)``, X the first operand's kept
    letters and Y the second's.  Both are made C-contiguous first, so a
    point on its own and every row of a batch reach the same BLAS call with
    the same shape and strides, and a point's entries are the same bits
    whatever the batch around it.  Other specs (outer products, and a letter
    repeated in one operand, which takes the diagonal: ``"aa->"`` is the
    trace) are formed left to right by broadcasting, any sum accumulated in
    index order.
    """
    ndims = tuple([op.ndim for op in operands])
    size = (operands[0] if ndims[0] else operands[1]).shape[-1]
    kind, *plan = _contraction_plan(spec, ndims, size)
    if kind == "matmul":
        axes1, lead1, axes2, lead2, rank, out_axes = plan
        first, second = operands
        first = np.ascontiguousarray(first if axes1 is None else first.transpose(axes1))
        second = np.ascontiguousarray(second if axes2 is None else second.transpose(axes2))
        out = np.matmul(
            first.reshape(first.shape[:lead1] + (-1, size)),
            second.reshape(second.shape[:lead2] + (size, -1)),
        )
        out = out.reshape(out.shape[:-2] + (size,) * rank)
        return out if out_axes is None else out.transpose(out_axes)
    axes, steps = plan
    ops = [op if order is None else op.transpose(order) for op, order in zip(operands, axes)]
    out = None
    for index in steps:
        term = ops[0][index[0]]
        for op, at in zip(ops[1:], index[1:]):
            term = term * op[at]
        out = term if out is None else out + term
    return out


@lru_cache(maxsize=None)
def _delta_plan(spec: str) -> tuple:
    """Output rank, the slot the delta pairs with slot 0, and the index that
    puts a unit axis before t's slots, for a :func:`delta_product` spec."""
    inputs, output = spec.split("->")
    delta, letters = inputs.split(",")
    if output[0] != delta[0] or output.replace(delta[1], "")[1:] != letters:
        raise ValueError(f"not a Kronecker delta product: {spec!r}")
    return len(output), output.index(delta[1]), (Ellipsis, None) + (slice(None),) * len(letters)


def delta_product(spec: str, t: np.ndarray) -> np.ndarray:
    """d^i_m t_jn for ``delta_product("im,jn->ijmn", t)``: the outer product
    ``contract(spec, identity, t)`` without its products.  The output is zero
    (+0.0, of t's dtype) off the diagonal of the two delta slots and t on
    it, bit for bit, so a non-finite t stays non-finite and a point's
    entries are the same alone or in a batch."""
    rank, at, unit = _delta_plan(spec)
    k = t.ndim - rank + 2  # batch axes
    out = np.zeros(t.shape[:k] + (t.shape[-1],) * rank, dtype=t.dtype)
    # the diagonal: slots 0 and `at` as one axis, whose stride is their sum
    step = out.strides[k:]
    strides = out.strides[:k] + (step[0] + step[at],) + step[1:at] + step[at + 1 :]
    np.ndarray(out.shape[:k] + out.shape[k + 1 :], out.dtype, out, strides=strides)[...] = t[unit]
    return out


# ---------------------------------------------------------------------------
# fields: tensors of scalar expressions, and generic point-function fields
# ---------------------------------------------------------------------------

class TensorField:
    """Dense tensor of parsed scalar expressions, compiled once to one
    ``jets`` program that gives every entry's values and partials."""

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
        self.program = compile_program(*flat)
        # each order's run holds the program, not the field, so that a field
        # left unused is freed at once rather than by the cycle collector
        self._runs = tuple(
            partial(_entry_arrays, self.program, flat, shape, order) for order in range(3)
        )

    def entry(self, *index) -> ex.Expr:
        flat = 0
        for i in index:
            flat = flat * self.chart.dim + i
        return self.entries[flat]

    def value(self, point) -> np.ndarray:
        """Entry values (read-only, computed once per batch or span).  When
        the span already holds the order-1 or order-2 channels, their value
        channel, bit-identical to an order-0 run, is returned."""
        point = _batch(point)
        for order in (1, 2):
            out = self._rows(order, point, compute=False)
            if out is not None:
                return out[0]
        return self._rows(0, point)

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Values and first partials; derivative axis last (read-only)."""
        return self._rows(1, point)

    def jet2(self, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, first and second partials; derivative axes last (read-only)."""
        return self._rows(2, point)

    def _rows(self, order, point, compute=True):
        """The channels up to `order` at the span of `point`, cut to its
        rows: one run of the program, kept in the span's cache, serves every
        block of the span.  Unless `compute`, None if the span has no run."""
        span, rows = _batch(point), None
        if span.run is not None:
            # blocks per span: as many as keep the largest channel, entries *
            # n**order doubles per point, within the n**4 doubles per point
            # that a verify block's budget is sized for
            n = self.chart.dim
            span, rows = span.span(max(1, n**4 // (len(self.entries) * n**order)))
        key = (self, order)
        out = memo(span, key, self._runs[order]) if compute else span.cache.get(key)
        if rows is None or out is None:
            return out
        return tuple(c[rows] for c in out) if order else out[rows]

    def strings(self) -> list:
        """Entries printed back to grammar text, nested per the shape."""

        def build(prefix):
            if len(prefix) == len(self.shape):
                return ex.print_expr(self.entry(*prefix), self.chart)
            return [build(prefix + (i,)) for i in range(self.chart.dim)]

        return build(())


def _entry_arrays(program, entries, shape, order, point):
    """Entry values at order 0, else (value, grad[, hess]), with the batch
    axis first and derivative axes last.  Floats overflow to inf/NaN without
    raising, so a non-finite value or derivative is caught here, naming its
    entry (at the first point of a batch that has one)."""
    lead = batch_shape(point)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_program(program, point.array, order)
    channels = result if order else (result,)
    if not all(np.isfinite(c).all() for c in channels):
        finite = np.logical_and.reduce(
            [np.isfinite(c).reshape(c.shape[: 1 + len(lead)] + (-1,)).all(-1) for c in channels]
        )
        bad = ~finite
        entry = int(np.argmax(bad[:, np.argmax(bad.any(0))] if lead else bad))
        raise ex.DomainError("non-finite value or derivative", entries[entry])
    out = tuple(
        (c.swapaxes(0, 1) if lead else c).reshape(lead + shape + c.shape[1 + len(lead) :])
        for c in channels
    )
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
        lead = batch_shape(point)
        return np.zeros(lead + shape), np.zeros(lead + shape + (n,))

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
