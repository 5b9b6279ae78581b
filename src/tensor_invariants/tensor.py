"""Tensor fields over a chart: expression fields, point-function fields, the
last-batch memo they share and the batch-invariant contraction of their
arrays.

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

A batch that is one block of a longer run (``PointBatch.blocks``) lets an
expression field jet several blocks at once: the field runs its program
once over its span, as many whole blocks as keep its largest channel within
one N^4 array per block, and gives each block read-only row views of the
result.  A row's bits do not depend on the batch it runs in, so a span
changes no result, and a memo hit on the span's batch object is one
identity test.

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
    "LastPointMemo",
]


# ---------------------------------------------------------------------------
# point batches and the last-batch memo
# ---------------------------------------------------------------------------

class PointBatch(tuple):
    """P points of an N-dimensional chart, passed where one point would go.

    It iterates as its P*N coordinates, row-major, so anything that reads a
    point as a tuple of floats (the memo key below, a trace hook) reads a
    batch the same way; ``array`` holds the coordinates as a read-only
    ``(P, N)`` array.

    A block of a longer run of points (:meth:`blocks`) also knows that run,
    its first row in it and the run's block length, so that an evaluator
    whose arrays are small can run several whole blocks in one pass
    (:meth:`span`) and give each block its rows of the result.
    """

    run = None  # the batch this one is a block of
    start = 0  # the block's first row in its run
    step = 0  # the run's block length

    def __new__(cls, points):
        array = np.array(points, dtype=float)
        if array.ndim != 2:
            raise ValueError("a point batch is a (P, N) array of coordinates")
        self = super().__new__(cls, array.ravel().tolist())
        array.flags.writeable = False
        self.array = array
        return self

    def blocks(self, size: int) -> list:
        """The batch cut into blocks of `size` points (the last may be
        shorter), each a batch that knows this one as its run; the batch
        itself when it has `size` points or fewer."""
        if len(self.array) <= size:
            return [self]
        self.spans = {}
        out = []
        for start in range(0, len(self.array), size):
            block = PointBatch(self.array[start : start + size])
            block.run, block.start, block.step = self, start, size
            out.append(block)
        return out

    def span(self, blocks: int) -> tuple:
        """``(span, rows)`` for a block: the batch of `blocks` whole blocks
        of its run that holds it, spans laid end to end from the run's first
        row, and the slice of the span's rows that are the block's; the
        block itself and None when the span is no more than the block.  A
        run makes each span's batch once, so the memos that read it hit by
        identity."""
        run, start, stop = self.run, self.start, self.start + len(self.array)
        width = blocks * self.step
        lo = start - start % width
        hi = min(lo + width, len(run.array))
        if lo == start and hi == stop:
            return self, None
        span = run.spans.get((lo, hi))
        if span is None:
            span = run.spans[lo, hi] = PointBatch(run.array[lo:hi])
        return span, slice(start - lo, stop - lo)


def batch_shape(point) -> tuple:
    """``(P,)`` for a batch of P points, ``()`` for one point."""
    return point.array.shape[:1] if isinstance(point, PointBatch) else ()


def _memo_key(point):
    if isinstance(point, PointBatch):
        return point, point.array.shape
    return tuple(map(float, point)), ()


class LastPointMemo:
    """A point function that remembers its result at the last point or
    batch only.

    The key is the point as an exact tuple of floats (a batch already is
    one), and a batch is told from a single point by its shape, so one point
    and a batch of one never share an entry.  A batch is immutable, so the
    very batch object of the last call is a hit without its key being built
    or hashed; a point given as a list or tuple is looked up by its value
    each time, since a list can change in place.  ``cache`` is a dict
    holding at most that one entry, so memory stays bounded however many
    points a run visits; a call at another point or batch replaces the
    entry.  A loop that evaluates everything it needs at one point or block
    before it moves on needs no more than that one slot.  Arrays in a result
    (or in a result tuple) are made read-only: a caller cannot alter what a
    later call at the same point returns.  A memo can be held weakly
    (``geometry.Space.share``).
    """

    __slots__ = ("fn", "cache", "shape", "batch", "value", "__weakref__")

    def __init__(self, fn):
        self.fn = fn
        self.cache: dict = {}
        self.shape = None
        self.batch = self.value = None  # the last batch given and its result

    def __call__(self, point):
        if point is self.batch:
            return self.value
        key, shape = _memo_key(point)
        cache = self.cache
        if shape == self.shape and key in cache:
            value = cache[key]
        else:
            value = _read_only(self.fn(point))
            cache.clear()
            cache[key] = value
            self.shape = shape
        self.batch = point if shape else None
        self.value = value
        return value

    def held(self, point):
        """The remembered result if it is for `point`, else None."""
        if point is self.batch:
            return self.value
        if not self.cache:
            return None
        key, shape = _memo_key(point)
        return self.cache.get(key) if shape == self.shape else None


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
        # the memos hold the program, not the field, so that a field left
        # unused is freed at once rather than by the cycle collector
        self._memos = tuple(
            LastPointMemo(partial(_entry_arrays, self.program, flat, shape, order))
            for order in range(3)
        )

    def entry(self, *index) -> ex.Expr:
        flat = 0
        for i in index:
            flat = flat * self.chart.dim + i
        return self.entries[flat]

    def value(self, point) -> np.ndarray:
        """Entry values (read-only, computed once per point or span).  When
        the order-1 or order-2 memo holds the point's span, its value
        channel, bit-identical to an order-0 run, is returned."""
        for order in (1, 2):
            held = self._rows(order, point, self._memos[order].held)
            if held is not None:
                return held[0]
        return self._rows(0, point, self._memos[0])

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Values and first partials; derivative axis last (read-only)."""
        return self._rows(1, point, self._memos[1])

    def jet2(self, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, first and second partials; derivative axes last (read-only)."""
        return self._rows(2, point, self._memos[2])

    def _rows(self, order, point, read):
        """`read` (a memo or its ``held``) at the span of `point` for
        `order`, cut to the point's rows: one run of the program serves every
        block of a span, each row bit-identical to its run alone."""
        if not (isinstance(point, PointBatch) and point.run is not None):
            return read(point)
        # blocks per span: as many as keep the largest channel, entries *
        # n**order doubles per point, within the n**4 doubles per point that
        # a verify block's budget is sized for
        n = self.chart.dim
        span, rows = point.span(max(1, n**4 // (len(self.entries) * n**order)))
        out = read(span)
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
    coords = point.array if lead else point
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_program(program, coords, order)
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
