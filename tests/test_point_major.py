"""Point-major verification with last-point memos.

The verifier evaluates every invariant at one point before moving on, and
fields, spaces and evaluators each remember their result at the last point.
These tests pin the two things that can go wrong with that: a stale or
shared memo entry (checked against a memo-free oracle, bit for bit) and
work done more than once per point (checked by counting).
"""

from collections import Counter

import numpy as np
import pytest

from tensor_invariants import geometry, tensor
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


def test_verify_fplanar_work_counts(monkeypatch):
    job = builtin_config("fplanar-demo")
    points = job.points()
    assert len(points) == 20

    runs = Counter()
    run_program = tensor.run_program

    def counting_run(program, point, order):
        runs[(id(program), tuple(point), order)] += 1
        return run_program(program, point, order)

    # the interpreter as TensorField calls it
    monkeypatch.setattr(tensor, "run_program", counting_run)

    provided = Counter()
    summed = Counter()
    metric_jets = geometry._MetricConnection.jets
    sum_jets = geometry._SumConnection.jets

    def counting_metric(self, point):
        provided[tuple(point)] += 1
        return metric_jets(self, point)

    def counting_sum(self, point):
        summed[tuple(point)] += 1
        return sum_jets(self, point)

    monkeypatch.setattr(geometry._MetricConnection, "jets", counting_metric)
    monkeypatch.setattr(geometry._SumConnection, "jets", counting_sum)

    source = job.build_space()
    mapping = job.mapping()
    target = fplanar_build(source, mapping)
    report = verify_invariance(source, target, mapping, points)
    assert len(report.rows) == 13

    # each (entry program, point, order) is run at most once
    assert runs and max(runs.values()) == 1
    # every entry of the metric (order 2) and of F and sigma (order 1) was
    # run at every point, so the count above measured real work
    for field, order in ((job.metric, 2), (mapping.F, 1), (mapping.sigma, 1)):
        for program in field.programs:
            for point in points:
                assert runs[(id(program), tuple(point), order)] == 1
    # each space computes its connection once per point, and the target's
    # sum reads the source's memoised connection: the metric provider runs
    # once per point
    assert set(provided) == {tuple(p) for p in points}
    assert set(provided.values()) == {1}
    assert set(summed.values()) == {1}


def test_connection_cache_holds_last_point_only():
    job = builtin_config("fplanar-demo")
    source = job.build_space()
    target = fplanar_build(source, job.mapping())
    for point in sample_points([[1.0, 2.0]] * 3, 2000, seed=3):
        source.connection_jet(point)
        target.connection_jet(point)
    assert len(source._cache) == 1
    assert len(target._cache) == 1
    assert len(job.metric._jet2_memo.cache) == 1


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
