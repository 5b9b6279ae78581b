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
batch.  A run of points is cut into blocks (``PointBatch.blocks``) of as
many points as keep an array of N^4 doubles (a curvature-sized array)
within ``BLOCK_BYTES``.  An expression field jets several whole blocks at
once, its span (``PointBatch.span``), as many as keep its largest channel
within one N^4 array per block; each block reads read-only row views of the
span's result, bit-identical to a run of its own.  The
``jets`` channels are laid out point-major, so a field run alone gives
C-contiguous arrays, and so do a span's rows of them: the kernels that
read them run over contiguous rows.

An expression field (:class:`TensorField`) compiles its own ``jets``
program when it first runs alone.  :func:`run_fields` runs several fields
as one program in one run and keeps each field's channels under the cache
key of its own run, so that a reader of many small fields pays one compile
and one run for all of them; how a run fails is decided by ``jets`` alone,
and a joint run raises the error of the fields' own runs in turn.
:func:`run_grouped` runs the fields of many random draws so, a group of
draws at a time, each group's program within ``GROUP_ENTRIES`` entries.

Convention lock (the single most error-prone choice in this codebase): an
index bracket is the two-term difference WITHOUT the 1/2 factor,

    delta^i_[m R_jn] = delta^i_m R_jn - delta^i_n R_jm,

while pair symmetrization DOES carry the 1/2.  Jointly these make the
projective Weyl assembly (``geometry.weyl_arrays``) collapse to its
Riemannian form when the Ricci tensor is symmetric:
N/(N^2-1) + 1/(N^2-1) = 1/(N-1).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from .jets import Program, compile_program, run_program

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
    "run_fields",
    "run_grouped",
    "GROUP_ENTRIES",
]


# ---------------------------------------------------------------------------
# point batches and their caches
# ---------------------------------------------------------------------------

# bytes that one block may give an array of N^4 doubles (a curvature-sized
# array); the many such arrays alive at once during a block make up the
# extra memory verify holds
BLOCK_BYTES = 64 * 1024


def block_size(dim: int) -> int:
    """Points per block at chart dimension `dim`."""
    return max(1, BLOCK_BYTES // (8 * dim**4))


class PointBatch(tuple):
    """P points of an N-dimensional chart, passed where one point would go,
    and the cache of the results computed on them (:func:`memo`).

    ``array`` holds the coordinates read-only: ``(P, N)``, or ``(N,)`` for a
    batch made from one point, whose results have no batch axis.  It
    iterates as its coordinates, row-major, as a point does.

    A block of a longer run of points (:meth:`blocks`) also knows that run
    and its first row in it, so that an evaluator whose arrays are small can
    run several whole blocks in one pass (:meth:`span`) and give each block
    its rows of the result.
    """

    run = None  # the batch this one is a block of
    start = 0  # the block's (or span's) first row in its run

    def __new__(cls, points):
        array = np.array(points, dtype=float)
        if array.ndim not in (1, 2):
            raise ValueError("a point batch is a (P, N) array of coordinates, or one point")
        self = super().__new__(cls, array.ravel().tolist())
        array.flags.writeable = False
        self.array = array
        self.cache = {}
        return self

    def blocks(self):
        """The batch cut into blocks of ``block_size(N)`` points (the last
        may be shorter), each a batch that knows this one as its run, made
        when it is read so that it and its cache are freed once its reader
        moves on."""
        size = block_size(self.array.shape[-1])
        for start in range(0, len(self.array), size):
            block = PointBatch(self.array[start : start + size])
            block.run, block.start = self, start
            yield block

    def span(self, doubles: int) -> tuple:
        """``(span, rows)`` for a block whose reader's largest channel holds
        `doubles` doubles per point: the span of whole blocks that holds it,
        as many as keep that channel within one N^4 array per block, laid end
        to end from the run's first row, and the block's rows of it; the
        block itself and None when the span is no more than the block.  The
        run's cache keeps the current span of each width, so a span and its
        jets are freed once its blocks are done; a span knows no run, so the
        two make no cycle."""
        run, start, stop = self.run, self.start, self.start + len(self.array)
        n = self.array.shape[-1]
        width = max(1, n**4 // doubles) * block_size(n)
        lo = start - start % width
        hi = min(lo + width, len(run.array))
        if lo == start and hi == stop:
            return self, None
        span = run.cache.get(("span", width))
        if span is None or span.start != lo:
            span = run.cache["span", width] = PointBatch(run.array[lo:hi])
            span.start = lo
        return span, slice(start - lo, stop - lo)


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
    """Dense tensor of parsed scalar expressions, run through ``jets``
    programs that give every entry's values and partials: its own, compiled
    when it first runs alone, or one shared with the fields it is run with
    (:func:`run_fields`)."""

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
            if isinstance(node, str) or len(node) != n:  # a string is one entry, not a list
                raise ValueError(f"expected {n} entries at depth {depth}")
            for item in node:
                collect(item, depth + 1)

        collect(entries, 0)
        self.shape = shape
        self.entries = flat

    @cached_property
    def program(self) -> Program:
        """The field's own program, compiled at its first run alone."""
        return compile_program(*self.entries)

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
        for order in (1, 2, 0):  # runs only at order 0, when neither is there
            out = self._rows(order, point, compute=not order)
            if out is not None:
                return out[0]

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Values and first partials; derivative axis last (read-only)."""
        return self._rows(1, point)

    def jet2(self, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, first and second partials; derivative axes last (read-only)."""
        return self._rows(2, point)

    def _rows(self, order, point, compute=True):
        """The channels up to `order` at the span of `point`, cut to its
        rows: one run (:func:`run_fields`), kept in the span's cache, serves
        every block of the span.  Unless `compute`, None if the span has no
        run."""
        span, rows = _batch(point), None
        if span.run is not None:
            span, rows = span.span(len(self.entries) * self.chart.dim**order)
        if compute:
            run_fields((self,), span, order)
        out = span.cache.get((self, order))
        if rows is None or out is None:
            return out
        return tuple(c[rows] for c in out)

    def strings(self) -> list:
        """Entries printed back to grammar text, nested per the shape."""

        def build(prefix):
            if len(prefix) == len(self.shape):
                return ex.print_expr(self.entry(*prefix), self.chart)
            return [build(prefix + (i,)) for i in range(self.chart.dim)]

        return build(())


def run_fields(fields, point, order: int) -> None:
    """Run the expression fields among `fields` at `point` up to `order` in
    one program run, and keep each one's channels in the batch's cache under
    the key of its own run, ``(field, order)``.  A field already there, and
    anything that is not a :class:`TensorField` (a point-function field,
    None), is skipped.

    One field runs its own program.  Several run one program compiled over
    all their entries, field after field, in which a subtree shared by
    fields is one op; each op gives the bits it gives in a field's own
    program, so each field's channels are those of its own run.  A failing
    run raises the error of ``jets.run_program``, which is the error that
    the fields' own runs in turn raise, and keeps no field's channels."""
    batch = _batch(point)
    todo = [
        field
        for field in dict.fromkeys(fields)
        if isinstance(field, TensorField) and (field, order) not in batch.cache
    ]
    if not todo:
        return
    if len(todo) > 1:
        program = compile_program(*(entry for field in todo for entry in field.entries))
    else:
        program = todo[0].program
    result = run_program(program, batch.array, order)
    channels = result if order else (result,)  # run_program's bare order-0 array
    start = 0
    for field in todo:
        stop = start + len(field.entries)
        part = [c[start:stop] for c in channels]
        batch.cache[(field, order)] = _read_only(_entry_arrays(field, part, batch))
        start = stop


# the most entries a program of grouped draws holds (:func:`run_grouped`): a
# run holds every op's result at once, and 256 entries raised the audit's
# peak RSS by 0.15 MB
GROUP_ENTRIES = 128


def run_grouped(draws, fields, points, order: int):
    """Yield ``(draw, batch)`` for each of `draws` in turn, the draw's
    expression fields, ``fields(draw)``, run up to `order` on `batch`, a
    batch of `points`.

    The draws are taken from `draws` in turn into groups, each as many as
    keep the group's fields within ``GROUP_ENTRIES`` entries (at least one
    draw): the draw that would pass it starts the next group.  A group's
    fields run as one program on one batch (:func:`run_fields`), each
    field's channels those of its own run, and the group and its batch are
    dropped here once its last draw is yielded."""
    group, size = [], 0
    for draw in draws:
        parts = [f for f in dict.fromkeys(fields(draw)) if isinstance(f, TensorField)]
        entries = sum(len(f.entries) for f in parts)
        if group and size + entries > GROUP_ENTRIES:
            yield from _run_group(group, points, order)
            group, size = [], 0
        group.append((draw, parts))
        size += entries
    if group:
        yield from _run_group(group, points, order)


def _run_group(group, points, order):
    batch = PointBatch(points)
    run_fields([f for _, parts in group for f in parts], batch, order)
    for draw, _ in group:
        yield draw, batch


def _entry_arrays(field, channels, point):
    """A field's channels, cut from a run's: (value[, grad[, hess]]) up to
    the run's order, with the batch axis first and derivative axes last.
    Views, no copies: the channels of a field's own run are point-major
    buffers, so these are C-contiguous; a field's part of a joint run is
    strided by the other fields' entries."""
    lead = batch_shape(point)
    return tuple(
        (c.swapaxes(0, 1) if lead else c).reshape(lead + field.shape + c.shape[1 + len(lead) :])
        for c in channels
    )


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
