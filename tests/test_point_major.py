"""Block-major verification with per-batch caches.

The verifier evaluates every invariant on one block of points before moving
on, and every result the rows share (field jets, connections, curvatures,
zeta, D) is kept in the block's cache (``tensor.memo``).  These tests pin
what can go wrong with that: a wrongly shared cache entry (checked against a
memo-free oracle, one point at a time, bit for bit), work done more than
once per point (checked by counting) and results kept alive after the run.
"""

import gc
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest

from tensor_invariants import deformation, geometry, invariants, mappings, tensor
from tensor_invariants.configs import builtin_config
from tensor_invariants.expr import Chart
from tensor_invariants.geometry import thomas, weyl
from tensor_invariants.invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    basic_thomas,
    basic_weyl,
    derived_thomas,
    derived_thomas_correlation_residual,
    derived_weyl_chain,
    reduced_space,
)
from tensor_invariants.jets import run_program
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
    def no_memo(point, key, fn):
        return fn(point if isinstance(point, tensor.PointBatch) else tensor.PointBatch(point))

    for module in (tensor, geometry, deformation, invariants, mappings):
        monkeypatch.setattr(module, "memo", no_memo)
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
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * 3**4 * 8)
    assert tensor.block_size(3) == 8
    program_runs = _count_runs(monkeypatch)

    # the F-planar rho's point function, behind its memo
    rho_runs = Counter()
    rho_field = mappings.fplanar_rho_field

    def counted_rho_field(*args, **kwargs):
        field = rho_field(*args, **kwargs)
        fn = field._fn.keywords["fn"]

        def counting(point):
            rho_runs[tuple(_rows(point))] += 1
            return fn(point)

        field._fn = partial(field._fn, fn=counting)  # under the same key
        return field

    monkeypatch.setattr(mappings, "fplanar_rho_field", counted_rho_field)

    provided = Counter()
    summed = Counter()
    metric_jets = geometry._MetricConnection.jets
    deformed = geometry.Space.deformed

    calls = Counter()

    def counting_metric(self, point):
        calls["metric"] += 1
        for row in _rows(point):
            provided[row] += 1
        return metric_jets(self, point)

    def counting_deformed(self, delta):
        # the sum's provider, counted per call and per (sum, point)
        space = deformed(self, delta)
        sum_jets = space._provider

        def counting_sum(point):
            calls["sum"] += 1
            for row in _rows(point):
                summed[(id(sum_jets), row)] += 1
            return sum_jets(point)

        space._provider = counting_sum
        return space

    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    monkeypatch.setattr(geometry.Space, "deformed", counting_deformed)
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
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 2 * 8 * 4**4)
    assert tensor.block_size(4) == 2
    calls = _count_runs(monkeypatch)
    kernels = _count_kernels(monkeypatch)
    # D takes its two covariant derivatives of rank-3 tensors (of calF and of
    # sigma_{jk} phi^i) and zeta one of rho: counted by rank, they count the
    # runs of each body
    derivatives = Counter()
    _count_calls(monkeypatch, derivatives, "covariant_derivative_arrays", lambda *a: a[2])
    # calF jets, asked for by omega (the target's deformation), L - omega
    # without rho and D, per (F, sigma, block)
    calF_calls, calF_builds = Counter(), Counter()
    memo = deformation.memo  # calF_jet's

    def counting_memo(point, key, fn):
        if isinstance(key, tuple) and key[0] == "calF":
            at = (key[1], key[2], tuple(_rows(point)))
            calF_calls[at] += 1

            def build(batch):
                calF_builds[at] += 1
                return fn(batch)

            return memo(point, key, build)
        return memo(point, key, fn)

    monkeypatch.setattr(deformation, "memo", counting_memo)
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
    # calF is built once per (F, sigma, block), for the readers of each
    fields = [(w.F, w.sigma) for w in (w_src, w_tgt)]
    blocks = [tuple(map(tuple, points[k : k + 2])) for k in range(0, 10, 2)]
    assert calF_builds == Counter({pair + (block,): 1 for pair in fields for block in blocks})
    assert set(calF_calls.values()) == {3}
    assert kernels == {"curvature_arrays": 4 * 5, "ricci_arrays": 2 * 5, "weyl_arrays": 2 * 5}


@pytest.mark.parametrize(
    "name", ["derived_thomas", "basic_weyl", "correlation", "fplanar_wbasic", "fplanar_wderived"]
)
def test_an_evaluator_makes_a_plain_point_one_batch(monkeypatch, name):
    # an evaluator whose parts read a space's connection turns a plain point
    # into one batch, so its parts share one connection, as on a PointBatch
    calls = []
    metric_jets = geometry._MetricConnection.jets

    def counting_metric(self, point):
        calls.append(point)
        return metric_jets(self, point)

    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    job = builtin_config("fplanar-demo")
    space, fspec = job.build_space(), job.mapping()
    spec = fplanar_as_omega(space, fspec).omega_src
    evaluate = {
        "derived_thomas": derived_thomas(space, spec),
        "basic_weyl": basic_weyl(space, spec, MODE_STRUCTURED),
        "correlation": derived_thomas_correlation_residual(space, spec),
        "fplanar_wbasic": fplanar_invariants(space, fspec.F, fspec.sigma)["wbasic"],
        "fplanar_wderived": fplanar_invariants(space, fspec.F, fspec.sigma)["wderived"],
    }[name]
    point = (1.25, 1.5, 1.75)
    results = []
    for arg in (point, tensor.PointBatch(point)):
        calls.clear()
        results.append(evaluate(arg))
        assert len(calls) == 1
    alone, batch = results
    assert alone.shape == batch.shape == (3,) * batch.ndim
    assert alone.tobytes() == batch.tobytes()


@pytest.mark.parametrize("name", ["omega", "omega_square_expanded"])
def test_omega_makes_a_plain_point_one_batch(monkeypatch, name):
    # omega reads its five fields on one batch, so the F-planar rho's jets of
    # F and sigma also give their values: 3 program runs (the metric, F and
    # sigma), for a plain point as for its batch
    runs = []
    run_program = tensor.run_program

    def counting_run(*args):
        runs.append(args)
        return run_program(*args)

    monkeypatch.setattr(tensor, "run_program", counting_run)
    job = builtin_config("fplanar-demo")
    space, fspec = job.build_space(), job.mapping()
    spec = fplanar_as_omega(space, fspec).omega_src
    point = (1.25, 1.5, 1.75)
    results = []
    for arg in (point, tensor.PointBatch(point)):
        runs.clear()
        results.append(getattr(invariants, name)(spec, arg))
        assert len(runs) == 3
    alone, batch = results
    assert alone.shape == batch.shape == (3,) * batch.ndim
    assert alone.tobytes() == batch.tobytes()


def test_reduced_spaces_die_with_the_evaluators():
    # the results the rows share live in the batch's cache, and nothing
    # refers back: the reduced spaces go with the evaluators, and the spaces
    # with the batch, by reference counting alone, with no cycle
    gc.disable()
    try:
        source, target, _, mspec = _fplanar_world()
        batch = tensor.PointBatch((1.25, 1.5, 1.75))
        pairs = {
            name: [
                build(space, spec, geometry.RICCI_LAST)
                for space, spec in ((source, mspec.omega_src), (target, mspec.omega_tgt))
            ]
            for name, (_, build) in mappings.ROWS.items()
        }
        for eval_src, eval_tgt in pairs.values():
            eval_src(batch)
            eval_tgt(batch)
        # each space's connection, curvature, Ricci, Weyl and Thomas tensors;
        # the connection and curvature of L - omega and the Thomas parameter
        # of L - omega without rho, which the F-planar Thomas row shares
        reduced = []
        for space, spec in ((source, mspec.omega_src), (target, mspec.omega_tgt)):
            full, part = reduced_space(space, spec), reduced_space(space, spec, rho=False)
            reduced += [full, part]
            for key in (
                ("connection", space.key),
                ("curvature", space.key),
                ("ricci", geometry.RICCI_LAST, space.key),
                ("weyl", geometry.RICCI_LAST, space.key),
                ("thomas", space.key),
                ("connection", full.key),
                ("curvature", full.key),
                ("connection", part.key),
                ("thomas", part.key),
            ):
                assert key in batch.cache, key
        spaces = [weakref.ref(space) for space in (source, target)]
        copies = [weakref.ref(space) for space in reduced]
        del pairs, eval_src, eval_tgt, reduced, source, target, mspec, space, spec, full, part, key
        assert all(ref() is None for ref in copies)
        # the keys name fields, such as the F-planar rho, that hold the source
        del batch
        assert all(ref() is None for ref in spaces)
    finally:
        gc.enable()


def test_connection_cache_holds_last_point_only(monkeypatch):
    # every result lives in the cache of the batch it was computed on, so
    # once verify returns, no batch it made (block, span, run) is alive, nor
    # any result in their caches
    made = []

    class Tracked(tensor.PointBatch):
        def __new__(cls, points):
            batch = super().__new__(cls, points)
            made.append(weakref.ref(batch.array))
            return batch

    for module in (tensor, mappings):
        monkeypatch.setattr(module, "PointBatch", Tracked)
    job = builtin_config("fplanar-demo")
    source = job.build_space()
    target = fplanar_build(source, job.mapping())
    points = sample_points([[1.0, 2.0]] * 3, 300, seed=3)
    gc.disable()
    try:
        for point in points[:20]:
            source.connection_jet(point)
            target.connection_jet(point)
        verify_invariance(source, target, job.mapping(), points)
        # 40 one-point batches; the run, its 3 blocks, and the span of all 3
        # of F's and of sigma's jets
        assert len(made) == 40 + 1 + 3 + 2
        assert all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_memoised_arrays_are_read_only(monkeypatch):
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
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 2 * 8 * 3**4)
    blocks = list(tensor.PointBatch(sample_points([[1.0, 2.0]] * 3, 5, seed=7)).blocks())
    first, second = F.jet(blocks[0]), F.jet(blocks[1])
    for together, alone in zip(first + second, F.jet(blocks[0].array[0].tolist()) * 2):
        assert together.shape == (2,) + alone.shape
        with pytest.raises(ValueError):
            together[0] = 1.0
    assert first[1].base is not None and first[1].base is second[1].base
    with pytest.raises(ValueError):
        F.value(blocks[2])[0, 0, 0] = 1.0


def test_block_field_arrays_are_c_contiguous(monkeypatch):
    # N = 6 at 12 points is two blocks of 6: the metric's order-2 jet runs
    # once per block, the omega fields once per span of both blocks.  Every
    # value, jet and jet2 array a block reads, from either, is C-contiguous,
    # so the N^4 kernels that read them run over contiguous rows
    rng = np.random.default_rng(3)
    chart = Chart(tuple(f"x{i + 1}" for i in range(6)))
    source = random_metric_space(chart, rng)
    mapping = random_mapping(chart, rng)
    target = apply_mapping(source, mapping)
    points = sample_points([[0.5, 1.5]] * 6, 12, seed=3)
    read, cut = [], []
    for name in ("value", "jet", "jet2"):

        def reader(self, point, method=getattr(tensor.TensorField, name)):
            out = method(self, point)
            read.extend(out if isinstance(out, tuple) else (out,))
            return out

        monkeypatch.setattr(tensor.TensorField, name, reader)
    span = tensor.PointBatch.span

    def spanned(self, blocks):
        found = span(self, blocks)
        cut.append(found[1] is not None)
        return found

    monkeypatch.setattr(tensor.PointBatch, "span", spanned)
    verify_invariance(source, target, mapping, points)
    assert set(cut) == {False, True}  # own runs and span rows both read
    assert len(read) > 50
    strided = [a.shape for a in read if not a.flags.c_contiguous]
    assert not strided, f"{len(strided)} of {len(read)} field arrays are strided: {strided[:3]}"
    # run_program's channels keep their entry-first shapes, each row the bits
    # of a run of that row alone
    program = mapping.omega_src.F.program
    batch = np.array(points)
    channels = run_program(program, batch, 2)
    assert [c.shape for c in channels] == [(36, 12), (36, 12, 6), (36, 12, 6, 6)]
    for row, point in enumerate(points):
        for together, alone in zip(channels, run_program(program, batch[row : row + 1], 2)):
            assert together[:, row].tobytes() == alone[:, 0].tobytes()
        for together, alone in zip(channels, run_program(program, point, 2)):
            assert together[:, row].tobytes() == alone.tobytes()
