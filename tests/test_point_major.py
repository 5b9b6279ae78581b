"""Block-major verification with last-batch memos.

The verifier evaluates every invariant on one block of points before moving
on, and fields, spaces and evaluators each remember their result for the
last point or block.  These tests pin the two things that can go wrong with
that: a stale or shared memo entry (checked against a memo-free oracle, one
point at a time, bit for bit) and work done more than once per point
(checked by counting).
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from tensor_invariants import geometry, invariants, mappings, tensor
from tensor_invariants.configs import builtin_config
from tensor_invariants.expr import Chart
from tensor_invariants.geometry import thomas, weyl
from tensor_invariants.invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    basic_thomas,
    basic_weyl,
    derived_thomas,
    derived_weyl_chain,
    reduced_space,
)
from tensor_invariants.mappings import (
    apply_mapping,
    fplanar_as_omega,
    fplanar_build,
    fplanar_invariants,
    sample_points,
    verify_invariance,
)
from tensor_invariants.sampling import random_mapping, random_metric_space


def _omega_pair(name, source, target, mspec):
    """(source evaluator, target evaluator) of one invariant, built afresh."""
    w_src, w_tgt = mspec.omega_src, mspec.omega_tgt
    if name == "classical_thomas":
        return thomas(source), thomas(target)
    if name == "classical_weyl":
        return weyl(source), weyl(target)
    if name == "basic_thomas":
        return basic_thomas(source, w_src), basic_thomas(target, w_tgt)
    if name == "basic_weyl_direct":
        return basic_weyl(source, w_src, MODE_DIRECT), basic_weyl(target, w_tgt, MODE_DIRECT)
    if name == "basic_weyl_structured":
        return (
            basic_weyl(source, w_src, MODE_STRUCTURED),
            basic_weyl(target, w_tgt, MODE_STRUCTURED),
        )
    if name == "derived_thomas":
        return derived_thomas(source, w_src), derived_thomas(target, w_tgt)
    if name.startswith("weyl_"):
        stage = name[len("weyl_") :]
        return (
            getattr(derived_weyl_chain(source, w_src), stage),
            getattr(derived_weyl_chain(target, w_tgt), stage),
        )
    key = name[len("fplanar_") :]
    src_set = fplanar_invariants(source, w_src.F, w_src.sigma)
    tgt_set = fplanar_invariants(target, w_tgt.F, w_tgt.sigma)
    return src_set[key], tgt_set[key]


def _fplanar_world():
    job = builtin_config("fplanar-demo")
    source = job.build_space()
    mapping = job.mapping()
    return source, fplanar_build(source, mapping), mapping, fplanar_as_omega(source, mapping)


def _omega_world(seed=5):
    rng = np.random.default_rng(seed)
    chart = Chart(("x1", "x2", "x3", "x4"))
    source = random_metric_space(chart, rng)
    mapping = random_mapping(chart, rng)
    return source, apply_mapping(source, mapping), mapping, mapping


def _check_against_oracle(build, points, monkeypatch):
    source, target, mapping, _ = build()
    report = verify_invariance(source, target, mapping, points)
    assert len(report.rows) >= 10
    # the oracle: no memo anywhere, fresh spaces and evaluators per entry
    monkeypatch.setattr(tensor.LastPointMemo, "__call__", lambda self, point: self.fn(point))
    for row in report.rows:
        for index, point in enumerate(points):
            source, target, _, mspec = build()
            eval_src, eval_tgt = _omega_pair(row.name, source, target, mspec)
            expected = float(np.max(np.abs(eval_src(point) - eval_tgt(point))))
            got_point, got = row.discrepancies[index]
            assert got_point == tuple(point)
            assert got == expected, (row.name, point, got, expected)


def test_fplanar_verify_matches_memo_free_oracle(monkeypatch):
    points = sample_points([[1.0, 2.0]] * 3, 3, seed=19)
    # a point seen again after others must not return a stale entry
    points = [points[0], points[1], points[0], points[2]]
    _check_against_oracle(_fplanar_world, points, monkeypatch)


def test_general_omega_verify_matches_memo_free_oracle(monkeypatch):
    points = sample_points([[1.0, 2.0]] * 4, 3, seed=23)
    points = [points[0], points[1], points[0], points[2]]
    _check_against_oracle(_omega_world, points, monkeypatch)


def _rows(point):
    """The points a call covers: the rows of a batch, or the one point."""
    if isinstance(point, tensor.PointBatch):
        return [tuple(row) for row in point.array.tolist()]
    if isinstance(point, np.ndarray) and point.ndim == 2:
        return [tuple(row) for row in point.tolist()]
    return [tuple(point)]


def _count_calls(monkeypatch, calls, name, key=None):
    """Count the calls of geometry function `name` from every module that
    binds it, in `calls` under `name` or ``key(*args)``."""
    original = getattr(geometry, name)

    def counted(*args):
        calls[name if key is None else key(*args)] += 1
        return original(*args)

    for module in (geometry, invariants, mappings):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def _count_kernels(monkeypatch) -> Counter:
    kernels = Counter()
    for name in ("curvature_arrays", "ricci_arrays", "weyl_arrays"):
        _count_calls(monkeypatch, kernels, name)
    return kernels


def _count_runs(monkeypatch) -> list:
    """(program, order, rows) of each run of the interpreter as TensorField
    calls it, once per field program and span."""
    calls = []
    run_program = tensor.run_program

    def counting_run(program, point, order):
        calls.append((program, order, tuple(_rows(point))))
        return run_program(program, point, order)

    monkeypatch.setattr(tensor, "run_program", counting_run)
    return calls


def _check_runs(calls, points, size):
    """No (field program, row, order) runs twice and no value runs at order
    0; each order-1 program runs once per span, the blocks that hold its
    largest channel, (entries * N) doubles per point, within N^4 doubles per
    point; the metric's order-2 program runs once per block."""
    runs = Counter((id(program), row, order) for program, order, rows in calls for row in rows)
    assert runs and max(runs.values()) == 1
    assert {order for _, order, _ in calls} == {1, 2}
    points = [tuple(point) for point in points]
    n = len(points[0])
    for program, order, rows in calls:
        width = size if order == 2 else size * max(1, n**3 // len(program.roots))
        start = points.index(rows[0])
        assert start % width == 0 and rows == tuple(points[start : start + width])
    return runs


def test_verify_fplanar_work_counts(monkeypatch):
    job = builtin_config("fplanar-demo")
    points = job.points()
    assert len(points) == 20
    # blocks of 8, 8 and 4 points
    monkeypatch.setattr(mappings, "BLOCK_BYTES", 8 * 3**4 * 8)
    assert mappings.block_size(3) == 8
    program_runs = _count_runs(monkeypatch)

    # the F-planar rho's point function, behind its memo
    rho_runs = Counter()
    rho_field = mappings.fplanar_rho_field

    def counted_rho_field(*args, **kwargs):
        field = rho_field(*args, **kwargs)
        memo = field._fn
        fn = memo.fn

        def counting(point):
            rho_runs[tuple(_rows(point))] += 1
            return fn(point)

        memo.fn = counting
        return field

    monkeypatch.setattr(mappings, "fplanar_rho_field", counted_rho_field)

    provided = Counter()
    summed = Counter()
    metric_jets = geometry._MetricConnection.jets
    sum_jets = geometry._SumConnection.jets

    calls = Counter()

    def counting_metric(self, point):
        calls["metric"] += 1
        for row in _rows(point):
            provided[row] += 1
        return metric_jets(self, point)

    def counting_sum(self, point):
        calls["sum"] += 1
        for row in _rows(point):
            summed[(id(self), row)] += 1
        return sum_jets(self, point)

    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    monkeypatch.setattr(geometry._SumConnection, "jets", counting_sum)
    kernels = _count_kernels(monkeypatch)

    source = job.build_space()
    mapping = job.mapping()
    target = fplanar_build(source, mapping)
    report = verify_invariance(source, target, mapping, points)
    assert len(report.rows) == 13

    # each (field program, point, order) is run at most once, and no value
    # is run at order 0: each is read from the order-1 run of its span
    runs = _check_runs(program_runs, points, 8)
    # the metric's program (order 2) and those of F and sigma (order 1) ran
    # at every point, so the count above measured real work
    for field, order in ((job.metric, 2), (mapping.F, 1), (mapping.sigma, 1)):
        for point in points:
            assert runs[(id(field.program), tuple(point), order)] == 1
    # the metric's jet runs once per block; F's span is 3 blocks and
    # sigma's 9, so each runs once, over all 20 points
    runs_of = Counter((id(program), order) for program, order, _ in program_runs)
    assert runs_of[(id(job.metric.program), 2)] == 3
    assert runs_of[(id(mapping.F.program), 1)] == runs_of[(id(mapping.sigma.program), 1)] == 1
    # rho, which Lambda and zeta read in each space, is computed once per block
    blocks = [tuple(map(tuple, points[k : k + 8])) for k in range(0, 20, 8)]
    assert rho_runs == Counter(blocks)
    # each space computes its connection once per point, and every sum
    # reads its base's memoised connection: the metric provider runs once
    # per point, in one call per block.  There are five sums: the target,
    # and in each space the reduced connections L - omega and L - omega
    # without rho, which the Thomas and Weyl rows share
    assert set(provided) == {tuple(p) for p in points}
    assert set(provided.values()) == {1}
    assert set(summed.values()) == {1}
    assert len({key for key, _ in summed}) == 5
    assert calls == {"metric": 3, "sum": 15}
    # every row reads its space's one curvature, Ricci and Weyl evaluator:
    # per block, four curvatures (source, target and L - omega in each) and
    # the Ricci and Weyl tensors of source and target
    assert kernels == {"curvature_arrays": 4 * 3, "ricci_arrays": 2 * 3, "weyl_arrays": 2 * 3}


def test_verify_omega_work_counts(monkeypatch):
    # the metric provider, counted per block; bound when the space is built
    provided = Counter()
    metric_jets = geometry._MetricConnection.jets

    def counting_metric(self, point):
        provided[tuple(_rows(point))] += 1
        return metric_jets(self, point)

    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    # a general omega pair with every s nonzero reaches each branch of D
    source, target, mapping, _ = _omega_world()
    assert all(s != 0.0 for s in mapping.omega_src.s.as_tuple())
    points = sample_points([[1.0, 2.0]] * 4, 10, seed=29)
    # blocks of 2 points; the rank-2 fields' spans are 4 blocks, so the
    # second span is one block long
    monkeypatch.setattr(mappings, "BLOCK_BYTES", 2 * 8 * 4**4)
    assert mappings.block_size(4) == 2
    calls = _count_runs(monkeypatch)
    kernels = _count_kernels(monkeypatch)
    # D takes its two covariant derivatives of rank-3 tensors (of calF and of
    # sigma_{jk} phi^i) and zeta one of rho: counted by rank, they count the
    # runs of each body
    derivatives = Counter()
    _count_calls(monkeypatch, derivatives, "covariant_derivative_arrays", lambda *a: a[2])
    report = verify_invariance(source, target, mapping, points)
    assert len(report.rows) == 10
    runs = _check_runs(calls, points, 2)
    # a rank-2 and a rank-1 field of each spec ran at order 1 at every
    # point, so the count above measured real work
    w_src, w_tgt = mapping.omega_src, mapping.omega_tgt
    for field in (w_src.F, w_src.rho, w_tgt.sigma2, w_tgt.rho):
        for point in points:
            assert runs[(id(field.program), tuple(point), 1)] == 1
    # the metric's jet (the one order-2 program) runs once per block, F's
    # in two spans of 4 and 1 blocks, rho's in one
    runs_of = Counter((id(program), order) for program, order, _ in calls)
    assert [count for (_, order), count in runs_of.items() if order == 2] == [5]
    assert runs_of[(id(mapping.omega_src.F.program), 1)] == 2
    assert runs_of[(id(mapping.omega_src.rho.program), 1)] == 1
    # the metric provider runs once per block
    assert provided == Counter(tuple(map(tuple, points[k : k + 2])) for k in range(0, 10, 2))
    # per block and space: one D shared by the structured basic Weyl row and
    # the chain, one zeta, and the curvature of the space and of L - omega
    assert derivatives == {"ull": 2 * 2 * 5, "l": 2 * 5}
    assert kernels == {"curvature_arrays": 4 * 5, "ricci_arrays": 2 * 5, "weyl_arrays": 2 * 5}


def test_reduced_spaces_die_with_the_evaluators():
    # each space holds the objects shared by its rows weakly and nothing
    # refers back to them, so they go by reference counting alone, with no
    # cycle
    source, target, _, mspec = _fplanar_world()
    point = (1.25, 1.5, 1.75)
    gc.disable()
    try:
        pairs = mappings._evaluator_pairs(source, target, mspec, geometry.RICCI_LAST)
        pairs.update(mappings._fplanar_pairs(source, target, mspec, geometry.RICCI_LAST))
        for eval_src, eval_tgt in pairs.values():
            eval_src(point)
            eval_tgt(point)
        reduced = [
            reduced_space(space, spec, rho)
            for space, spec in ((source, mspec.omega_src), (target, mspec.omega_tgt))
            for rho in (True, False)
        ]
        # by kind (and Ricci convention, or whether rho enters): the space's
        # curvature, Ricci, Weyl and Thomas evaluators, zeta, D and the two
        # reduced spaces; the curvature of L - omega and the Thomas parameter
        # of L - omega without rho, which the F-planar Thomas row shares
        for space in (source, target):
            assert sorted(map(str, (key[:2] for key in space.shared))) == [
                "('curvature',)",
                "('dee', False)",
                "('reduced', False)",
                "('reduced', True)",
                "('ricci', 'last')",
                "('thomas',)",
                "('weyl', 'last')",
                "('zeta', True)",
            ]
        assert [list(space.shared) for space in reduced] == [[("curvature",)], [("thomas",)]] * 2
        held = [
            weakref.ref(shared)
            for space in [source, target] + reduced
            for shared in space.shared.values()
        ]
        assert len(held) == 20
        del pairs, eval_src, eval_tgt, reduced
        assert all(ref() is None for ref in held)
        assert len(source.shared) == 0 and len(target.shared) == 0
    finally:
        gc.enable()


def test_connection_cache_holds_last_point_only():
    job = builtin_config("fplanar-demo")
    source = job.build_space()
    target = fplanar_build(source, job.mapping())
    for point in sample_points([[1.0, 2.0]] * 3, 2000, seed=3):
        source.connection_jet(point)
        target.connection_jet(point)
    assert len(source._cache) == 1
    assert len(target._cache) == 1
    assert len(job.metric._memos[2].cache) == 1


def test_memoised_arrays_are_read_only():
    job = builtin_config("fplanar-demo")
    space = job.build_space()
    point = (1.25, 1.5, 1.75)
    conn, dconn = space.connection_jet(point)
    with pytest.raises(ValueError):
        conn[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        dconn[...] = 0.0
    value, grad = job.mapping().F.jet(point)
    with pytest.raises(ValueError):
        value[0, 0] = 1.0
    with pytest.raises(ValueError):
        grad += 1.0
    with pytest.raises(ValueError):
        job.metric.value(point)[1, 1] = 0.0
    # a block's rows of its span's jet: views of the span's read-only arrays
    F = job.mapping().F
    blocks = tensor.PointBatch(sample_points([[1.0, 2.0]] * 3, 5, seed=7)).blocks(2)
    first, second = F.jet(blocks[0]), F.jet(blocks[1])
    for together, alone in zip(first + second, F.jet(blocks[0].array[0].tolist()) * 2):
        assert together.shape == (2,) + alone.shape
        with pytest.raises(ValueError):
            together[0] = 1.0
    assert first[1].base is not None and first[1].base is second[1].base
    with pytest.raises(ValueError):
        F.value(blocks[2])[0, 0, 0] = 1.0
