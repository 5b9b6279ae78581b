import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate, riemannian_weyl
from tensor_invariants import sampling
from tensor_invariants.expr import Binary, Chart, Const, parse
from tensor_invariants.geometry import (
    RICCI_LAST,
    RICCI_MIDDLE,
    SingularMetricError,
    Space,
    christoffel,
    covariant_derivative_arrays,
    curvature,
    ricci,
    symmetrize_connection,
    thomas,
    weyl,
)
from tensor_invariants.deformation import OmegaSpec
from tensor_invariants.mappings import MappingSpec, apply_mapping, sample_points, verify_invariance
from tensor_invariants.sampling import random_mapping, random_metric_space
from tensor_invariants.tensor import PointBatch, TensorField

P0 = (1.0, 2.0, 3.0)


# --- Christoffel symbols ----------------------------------------------------

def test_example_metric_diagonal_christoffels(example_space, box_points):
    # standard formula: only Gamma^i_ii = 1/x_i survive for diag(u^2,v^2,w^2)
    for point in box_points[:10]:
        conn = example_space.connection(point)
        for i, x in enumerate(point):
            assert conn[i, i, i] == pytest.approx(1.0 / x, abs=1e-12)
    conn = example_space.connection(P0)
    assert conn[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
    assert conn[1, 1, 1] == pytest.approx(0.5, abs=1e-14)


def test_example_metric_offdiagonal_christoffels_vanish(example_space, box_points):
    # the standard formula zeroes every mixed entry for this metric
    mask = np.ones((3, 3, 3), dtype=bool)
    for i in range(3):
        mask[i, i, i] = False
    for point in box_points[:10]:
        assert np.max(np.abs(example_space.connection(point)[mask])) < 1e-12


def test_christoffel_against_finite_difference_of_metric(chart, example_metric):
    # independent check: assemble Gamma from FD partials of g
    point = np.array([1.3, 1.7, 1.1])
    h = 1e-5
    g = example_metric.value(point)
    dg = np.zeros((3, 3, 3))
    for n in range(3):
        shift = np.zeros(3)
        shift[n] = h
        dg[:, :, n] = (example_metric.value(point + shift) - example_metric.value(point - shift)) / (2 * h)
    ginv = np.linalg.inv(g)
    bracket = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
    gamma_fd = 0.5 * np.einsum("il,ljk->ijk", ginv, bracket)
    space = christoffel(example_metric)
    assert np.max(np.abs(space.connection(point) - gamma_fd)) < 1e-6


def test_identity_metric_is_flat(chart):
    metric = TensorField(chart, "ll", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    space = christoffel(metric)
    assert np.max(np.abs(space.connection(P0))) == 0.0
    assert np.max(np.abs(curvature(space)(P0))) == 0.0


def test_singular_metric_raises(chart):
    metric = TensorField(chart, "ll", [["u-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(SingularMetricError):
        christoffel(metric).connection((1.0, 2.0, 3.0))


def test_singularity_check_is_scale_free(chart, example_metric):
    # condition number 1 however small the entries
    conn = christoffel(example_metric).connection((1e-3, 1e-3, 1e-3))
    assert np.allclose(np.diagonal(np.diagonal(conn)), 1e3)
    tiny = TensorField(chart, "ll", [["1e-9", "0", "0"], ["0", "1e-9", "0"], ["0", "0", "1e-9"]])
    assert np.max(np.abs(christoffel(tiny).connection((1.0, 2.0, 3.0)))) == 0.0


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), c=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_constant_rescaling_leaves_christoffels_unchanged(n, seed, c):
    chart = Chart(("u", "v", "w", "x", "y", "z")[:n])
    with mock.patch.object(sampling, "TensorField", wraps=TensorField) as build:
        space = random_metric_space(chart, np.random.default_rng(seed))
    _, _, entries = build.call_args.args
    points = PointBatch(sample_points([[1.0, 2.0]] * n, 3, seed=seed))
    want = space.connection_jet(points)
    for factor in (4.0, c):
        scaled = [[Binary("mul", Const(factor), g) for g in row] for row in entries]
        got = christoffel(TensorField(chart, "ll", scaled)).connection_jet(points)
        for mine, theirs in zip(want, got):
            if factor == 4.0:  # a power of two scales every rounding exactly
                assert mine.tobytes() == theirs.tobytes()
            else:
                size = max(1.0, float(np.max(np.abs(mine))))
                assert np.max(np.abs(mine - theirs)) <= 1e-12 * size


@given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.1, 10.0))
@settings(max_examples=10, deadline=None)
def test_constant_rescaling_leaves_every_verify_row_unchanged(seed, c):
    chart = Chart(("u", "v", "w"))
    rng = np.random.default_rng(seed)
    with mock.patch.object(sampling, "TensorField", wraps=TensorField) as build:
        source = random_metric_space(chart, rng)
    _, _, entries = build.call_args.args
    mapping = random_mapping(chart, rng)  # a general omega pair
    points = sample_points([[1.0, 2.0]] * 3, 4, seed=seed)
    want = verify_invariance(source, apply_mapping(source, mapping), mapping, points)
    for factor in (4.0, c):
        scaled = [[Binary("mul", Const(factor), g) for g in row] for row in entries]
        space = Space.from_metric(TensorField(chart, "ll", scaled))
        got = verify_invariance(space, apply_mapping(space, mapping), mapping, points)
        assert [row.name for row in got.rows] == [row.name for row in want.rows]
        for row, scaled_row in zip(want.rows, got.rows):
            mine = np.array([d for _, d in row.discrepancies])
            theirs = np.array([d for _, d in scaled_row.discrepancies])
            if factor == 4.0:  # the connection is bit-identical, so every row is
                assert mine.tobytes() == theirs.tobytes(), row.name
            else:
                assert scaled_row.passed == row.passed, row.name
                assert np.all(np.abs(mine - theirs) <= 1e-12 * np.maximum(1.0, mine)), row.name


def _permuted(field, chart, perm):
    """`field` over `chart`, whose names are the field's chart's names in the
    order `perm`: entry (a, b, ...) is the field's entry (perm[a], perm[b],
    ...), printed in the old names and parsed in the new ones."""
    texts = np.array(field.strings(), dtype=object)
    for axis in range(texts.ndim):
        texts = texts.take(perm, axis=axis)
    return TensorField(chart, field.variance, texts.tolist())


def _permuted_spec(spec, chart, perm):
    names = ("rho", "sigma", "F", "phi", "sigma2")
    return OmegaSpec(chart, spec.s, **{k: _permuted(getattr(spec, k), chart, perm) for k in names})


@given(st.permutations(range(3)), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_permuting_the_chart_names_permutes_every_index(perm, seed):
    chart = Chart(("u", "v", "w"))
    moved = Chart(tuple(chart.names[k] for k in perm))
    rng = np.random.default_rng(seed)
    with mock.patch.object(sampling, "TensorField", wraps=TensorField) as build:
        source = random_metric_space(chart, rng)
    metric = TensorField(chart, "ll", build.call_args.args[2])
    mapping = random_mapping(chart, rng)
    moved_source = Space.from_metric(_permuted(metric, moved, perm))
    moved_mapping = MappingSpec(
        _permuted_spec(mapping.omega_src, moved, perm),
        _permuted_spec(mapping.omega_tgt, moved, perm),
    )
    points = sample_points([[0.5, 1.5]] * 3, 4, seed=seed)
    moved_points = [tuple(point[k] for k in perm) for point in points]
    target = apply_mapping(source, mapping)
    moved_target = apply_mapping(moved_source, moved_mapping)
    # every chart axis of each array, past the batch axis, taken in the order perm
    for space, moved_space in ((source, moved_source), (target, moved_target)):
        for build_eval in (lambda s: s.connection_jet, curvature, weyl):
            want = build_eval(space)(PointBatch(points))
            got = build_eval(moved_space)(PointBatch(moved_points))
            for mine, theirs in zip(want, got) if isinstance(want, tuple) else [(want, got)]:
                for axis in range(1, mine.ndim):
                    mine = mine.take(perm, axis=axis)
                size = max(1.0, float(np.max(np.abs(mine))))
                assert np.max(np.abs(mine - theirs)) <= 1e-12 * size
    report = verify_invariance(source, target, mapping, points)
    moved_report = verify_invariance(moved_source, moved_target, moved_mapping, moved_points)
    assert [row.name for row in moved_report.rows] == [row.name for row in report.rows]
    for row, moved_row in zip(report.rows, moved_report.rows):
        assert moved_row.passed == row.passed, row.name
        for (_, mine), (_, theirs) in zip(row.discrepancies, moved_row.discrepancies):
            assert abs(mine - theirs) <= 1e-12 * max(1.0, mine), row.name


def test_asymmetric_metric_rejected(chart):
    metric = TensorField(chart, "ll", [["1", "u", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(ValueError, match="differ"):
        christoffel(metric)


# --- symmetrization ---------------------------------------------------------

def test_symmetrize_symmetric_input_has_no_torsion(chart):
    field = TensorField(chart, "ull", [[["u" if (j, k) in ((0, 1), (1, 0)) else "0" for k in range(3)] for j in range(3)] for _ in range(3)])
    sym_part = symmetrize_connection(field)
    assert np.allclose(sym_part.value(P0), field.value(P0))


def test_symmetrize_splits_single_entry(chart):
    entries = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][1][2] = "1"
    field = TensorField(chart, "ull", entries)
    s = symmetrize_connection(field).value(P0)
    assert s[0, 1, 2] == 0.5 and s[0, 2, 1] == 0.5


def test_space_from_connection_symmetrizes(chart):
    entries = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][1][2] = "u"
    space = Space.from_connection(TensorField(chart, "ull", entries))
    assert space.connection(P0)[0, 1, 2] == 0.5  # symmetrized half


# --- covariant derivative ---------------------------------------------------

def _cov_deriv(field, space, point):
    value, grad = field.jet(point)
    return covariant_derivative_arrays(value, grad, field.variance, space.connection(point))


def test_cov_deriv_constant_scalar(chart, example_space):
    field = TensorField(chart, "", "4.0")
    assert np.max(np.abs(_cov_deriv(field, example_space, P0))) == 0.0


def test_cov_deriv_kronecker_vanishes(chart, example_space):
    field = TensorField(chart, "ul", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert np.max(np.abs(_cov_deriv(field, example_space, P0))) < 1e-15


def test_cov_deriv_flat_space_equals_partials(chart):
    flat = Space.flat(chart)
    field = TensorField(chart, "l", ["u*v", "w^2", "sin(u)"])
    point = np.array([1.2, 0.7, 1.9])
    got = _cov_deriv(field, flat, point)
    h = 1e-5
    nodes = [parse(s, chart) for s in ("u*v", "w^2", "sin(u)")]
    for j, node in enumerate(nodes):
        for k in range(3):
            shift = np.zeros(3)
            shift[k] = h
            fd = (evaluate(node, point + shift) - evaluate(node, point - shift)) / (2 * h)
            assert abs(got[j, k] - fd) < 1e-6


# --- curvature / Ricci -------------------------------------------------------

def test_example_metric_is_flat(example_space, box_points):
    for point in box_points[:5]:
        assert np.max(np.abs(curvature(example_space)(point))) < 1e-13


def test_sphere_curvature_fixture(sphere_space):
    # closed form from the curvature formula used here (derivative index last):
    # R^1_{221} = +sin^2 u, hence R^1_{212} = -sin^2 u.
    point = (math.pi / 3, 1.0)
    riemann = curvature(sphere_space)(point)
    assert riemann[0, 1, 1, 0] == pytest.approx(math.sin(math.pi / 3) ** 2, abs=1e-9)
    assert riemann[0, 1, 0, 1] == pytest.approx(-math.sin(math.pi / 3) ** 2, abs=1e-9)


def test_curvature_antisymmetry_random_space(box_points):
    rng = np.random.default_rng(8)
    space = random_metric_space(Chart(("u", "v", "w")), rng)
    for point in box_points[:5]:
        riemann = curvature(space)(point)
        assert np.max(np.abs(riemann + riemann.transpose(0, 1, 3, 2))) < 1e-12


def test_first_bianchi_random_space(box_points):
    rng = np.random.default_rng(9)
    space = random_metric_space(Chart(("u", "v", "w")), rng)
    for point in box_points[:5]:
        riemann = curvature(space)(point)
        cyclic = riemann + riemann.transpose(0, 2, 3, 1) + riemann.transpose(0, 3, 1, 2)
        assert np.max(np.abs(cyclic)) < 1e-9


def test_ricci_flat_space(chart):
    flat = Space.flat(chart)
    ric, alt = ricci(flat)(P0)
    assert np.max(np.abs(ric)) == 0.0 and np.max(np.abs(alt)) == 0.0


def test_example_metric_ricci_symmetric(example_space, box_points):
    for point in box_points[:5]:
        ric, alt = ricci(example_space)(point)
        assert np.max(np.abs(ric)) < 1e-13
        assert np.max(np.abs(alt)) < 1e-13


def test_sphere_ricci_frozen_regression(sphere_space):
    # frozen from a brute-force loop contraction of the curvature fixture
    point = (math.pi / 3, 1.0)
    riemann = curvature(sphere_space)(point)
    brute = np.zeros((2, 2))
    for j in range(2):
        for m in range(2):
            brute[j, m] = sum(riemann[a, j, m, a] for a in range(2))
    ric, alt = ricci(sphere_space, RICCI_LAST)(point)
    assert np.allclose(ric, brute, atol=1e-14)
    assert ric[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert ric[1, 1] == pytest.approx(math.sin(math.pi / 3) ** 2, abs=1e-9)
    assert np.max(np.abs(alt)) < 1e-12


def test_ricci_middle_is_negated_last(sphere_space):
    point = (1.1, 2.0)
    last, _ = ricci(sphere_space, RICCI_LAST)(point)
    middle, _ = ricci(sphere_space, RICCI_MIDDLE)(point)
    assert np.allclose(middle, -last, atol=1e-13)


# --- Thomas parameter and Weyl tensor ----------------------------------------

def test_thomas_example_values(example_space):
    t = thomas(example_space)(P0)
    assert t[0, 0, 0] == pytest.approx(0.5, abs=1e-14)  # (N-1)/(N+1) * 1/u
    assert t[0, 0, 1] == pytest.approx(-0.125, abs=1e-14)  # -Gamma^2_22 / (N+1)


def test_thomas_three_case_table(example_space, box_points):
    # i=j=k: (N-1)/(N+1) per-axis reciprocal; i=j!=k: -Gamma^(k)_k(k)/(N+1);
    # otherwise the connection entry itself (zero here).
    for point in box_points[:10]:
        t = thomas(example_space)(point)
        conn = example_space.connection(point)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if i == j == k:
                        expected = 0.5 / point[i]
                    elif i == j and i != k:
                        expected = -conn[k, k, k] / 4.0
                    elif i == k and i != j:
                        expected = -conn[j, j, j] / 4.0
                    else:
                        expected = conn[i, j, k]
                    assert abs(t[i, j, k] - expected) < 1e-12


def test_thomas_flat_space_vanishes(chart):
    assert np.max(np.abs(thomas(Space.flat(chart))(P0))) == 0.0


def test_weyl_flat_space_vanishes(chart):
    assert np.max(np.abs(weyl(Space.flat(chart))(P0))) == 0.0


def test_weyl_riemannian_collapse(sphere_space, box_points):
    rng = np.random.default_rng(10)
    metric_space = random_metric_space(Chart(("u", "v", "w")), rng)
    for point in box_points[:5]:
        full = weyl(metric_space)(point)
        reduced = riemannian_weyl(metric_space)(point)
        assert np.max(np.abs(full - reduced)) < 1e-12
    sphere_point = (1.0, 0.5)
    assert np.max(np.abs(weyl(sphere_space)(sphere_point) - riemannian_weyl(sphere_space)(sphere_point))) < 1e-12


def test_sphere_is_projectively_flat(sphere_space):
    for point in sample_points([[0.5, 2.5], [0.0, 6.0]], 8, seed=3):
        assert np.max(np.abs(weyl(sphere_space)(point))) < 1e-9
