import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fplanar_zeta_dee
from tensor_invariants.configs import builtin_config
from tensor_invariants.expr import Chart
from tensor_invariants.geometry import thomas
from tensor_invariants.invariants import OmegaSpec, SValues
from tensor_invariants.mappings import (
    FPlanarSpec,
    InvarianceReport,
    InvarianceRow,
    MappingSpec,
    apply_mapping,
    fplanar_as_omega,
    fplanar_build,
    fplanar_invariants,
    fplanar_rho_field,
    sample_points,
    verify_invariance,
)
from tensor_invariants.sampling import random_mapping, random_omega_spec
from tensor_invariants.tensor import PointBatch, TensorField, scale_field, zero_field

P0 = (1.0, 2.0, 3.0)
LN15 = math.log(15.0)


def geodesic_mapping(chart, components):
    psi = TensorField(chart, "l", components)
    s = SValues(1.0, 0.0, 0.0)
    return MappingSpec(OmegaSpec(chart, s), OmegaSpec(chart, s, rho=psi))


@pytest.fixture()
def example_fspec(chart, affinor, sigma_form):
    return FPlanarSpec(psi=zero_field(chart, "l"), sigma=sigma_form, F=affinor)


# --- apply_mapping ------------------------------------------------------------

def test_identity_mapping_keeps_connection(example_space, chart):
    rng = np.random.default_rng(0)
    spec = random_omega_spec(chart, rng)
    mapping = MappingSpec(spec, spec)
    target = apply_mapping(example_space, mapping)
    assert np.array_equal(target.connection(P0), example_space.connection(P0))


def test_geodesic_mapping_diagonal_shift(example_space, chart):
    mapping = geodesic_mapping(chart, ["1", "1", "0"])  # psi = d(u+v)
    target = apply_mapping(example_space, mapping)
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=1):
        src = example_space.connection(point)
        tgt = target.connection(point)
        assert tgt[0, 0, 0] == pytest.approx(src[0, 0, 0] + 2.0, abs=1e-14)


def test_swapped_mapping_restores_connection(example_space, chart):
    rng = np.random.default_rng(2)
    mapping = random_mapping(chart, rng)
    there = apply_mapping(example_space, mapping)
    back = apply_mapping(there, MappingSpec(mapping.omega_tgt, mapping.omega_src))
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=3):
        assert np.max(np.abs(back.connection(point) - example_space.connection(point))) < 1e-15


def test_mapping_requires_shared_s():
    chart = Chart(("u", "v", "w"))
    with pytest.raises(ValueError, match="share"):
        MappingSpec(
            OmegaSpec(chart, SValues(1.0, 0.0, 0.0)),
            OmegaSpec(chart, SValues(0.5, 0.0, 0.0)),
        )


def test_mapping_chart_mismatch_rejected(example_space):
    other = Chart(("x", "y"))
    spec = OmegaSpec(other, SValues(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="chart"):
        apply_mapping(example_space, MappingSpec(spec, spec))


# --- F-planar construction ------------------------------------------------------

def test_fplanar_zero_data_is_identity(example_space, chart):
    fspec = FPlanarSpec(zero_field(chart, "l"), zero_field(chart, "l"), zero_field(chart, "ul"))
    target = fplanar_build(example_space, fspec)
    assert np.array_equal(target.connection(P0), example_space.connection(P0))


def test_fplanar_build_example_entry(example_space, example_fspec):
    target = fplanar_build(example_space, example_fspec)
    assert target.connection(P0)[2, 2, 2] == pytest.approx(1.0 / 3.0 + 6.0 * LN15, abs=1e-12)
    assert target.connection(P0)[2, 2, 2] == pytest.approx(16.5816, abs=1e-4)


def _inverse_fspec(f):
    """Defining data of the inverse F-planar mapping: (F, -sigma, -psi)."""
    return FPlanarSpec(psi=scale_field(f.psi, -1.0), sigma=scale_field(f.sigma, -1.0), F=f.F)


def test_fplanar_roundtrip_through_inverse(example_space, example_fspec):
    target = fplanar_build(example_space, example_fspec)
    back = fplanar_build(target, _inverse_fspec(example_fspec))
    for point in sample_points([[1.0, 2.0]] * 3, 6, seed=4):
        assert np.max(np.abs(back.connection(point) - example_space.connection(point))) < 1e-15


def test_fplanar_as_omega_matches_direct_build(example_space, example_fspec):
    mapping = fplanar_as_omega(example_space, example_fspec)
    via_omega = apply_mapping(example_space, mapping)
    direct = fplanar_build(example_space, example_fspec)
    for point in sample_points([[1.0, 2.0]] * 3, 6, seed=5):
        assert np.max(np.abs(via_omega.connection(point) - direct.connection(point))) < 1e-14


def test_fplanar_inverse_pair_preserves_sigma_even_products(example_fspec):
    # the reduction premise: Fbar Fbar sigmabar sigmabar == F F sigma sigma
    inverse = _inverse_fspec(example_fspec)
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=6):
        F = example_fspec.F.value(point)
        sigma = example_fspec.sigma.value(point)
        Fb = inverse.F.value(point)
        sigmab = inverse.sigma.value(point)
        lhs = np.einsum("ij,mn,p,q->ijmnpq", Fb, Fb, sigmab, sigmab)
        rhs = np.einsum("ij,mn,p,q->ijmnpq", F, F, sigma, sigma)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


# --- trace-gauge rho --------------------------------------------------------------

def test_fplanar_recover_rho_value(example_space, affinor, sigma_form):
    rho = fplanar_rho_field(example_space, affinor, sigma_form)
    # (1/4) * [Gamma^a_{3a} + (F sigma_3 + F^a_3 sigma_a) / 2] at (1,2,3)
    expected = (1.0 / 3.0 + 0.5 * (math.sin(1) + math.cos(2) + 3.0) * LN15 + 0.5 * 3.0 * LN15) / 4.0
    assert rho.value(P0)[2] == pytest.approx(expected, abs=1e-14)
    assert rho.value(P0)[2] == pytest.approx(2.258346, abs=1e-6)


# --- specialized invariants --------------------------------------------------------

def test_fplanar_thomas_collapses_without_sigma(example_space, chart, affinor):
    evaluators = fplanar_invariants(example_space, affinor, zero_field(chart, "l"))
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=11):
        got = evaluators["thomas"](point)
        assert np.max(np.abs(got - thomas(example_space)(point))) < 1e-14


def test_fplanar_trace_value(affinor, sigma_form):
    # calF^a_{3a} = (sin u + cos v + w) sigma_3 + w sigma_3 at (1,2,3)
    F = affinor.value(P0)
    sigma = sigma_form.value(P0)
    trace = np.trace(F) * sigma + F.T @ sigma
    assert trace[2] == pytest.approx(17.400100351844422, abs=1e-12)


def test_fplanar_thomas_matches_derived_form(example_space, chart, affinor, sigma_form, example_fspec):
    from tensor_invariants.invariants import derived_thomas

    mapping = fplanar_as_omega(example_space, example_fspec)
    evaluators = fplanar_invariants(example_space, affinor, sigma_form)
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=12):
        specialized = evaluators["thomas"](point)
        general = derived_thomas(example_space, mapping.omega_src)(point)
        assert np.max(np.abs(specialized - general)) < 1e-13


def test_printed_fplanar_zeta_and_dee_match_an_independent_assembly():
    # every component, not the largest: the printed zeta is not symmetric,
    # and a term written with its factors swapped changes entries that are
    # never the largest
    job = builtin_config("fplanar-demo")
    source = job.build_space()
    target = fplanar_build(source, job.mapping())
    mapping = fplanar_as_omega(source, job.mapping())
    points = job.points()
    batch = PointBatch(points)
    for space, spec in ((source, mapping.omega_src), (target, mapping.omega_tgt)):
        evaluators = fplanar_invariants(space, spec.F, spec.sigma)
        zeta, dee = evaluators["zeta"](batch), evaluators["dee"](batch)
        for k, point in enumerate(points):
            expected_zeta, expected_dee = fplanar_zeta_dee(space, spec.F, spec.sigma, point)
            np.testing.assert_allclose(zeta[k], expected_zeta, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(dee[k], expected_dee, rtol=1e-12, atol=1e-12)


# --- verification -------------------------------------------------------------------

def test_identity_mapping_report_is_exactly_zero(example_space, chart):
    rng = np.random.default_rng(13)
    spec = random_omega_spec(chart, rng)
    mapping = MappingSpec(spec, spec)
    target = apply_mapping(example_space, mapping)
    report = verify_invariance(example_space, target, mapping, sample_points([[1, 2]] * 3, 5, 14))
    for row in report.rows:
        assert row.max_discrepancy == 0.0


def test_geodesic_anchor_classical_invariance(example_space, chart, box_points):
    mapping = geodesic_mapping(chart, ["1", "2*v", "0"])  # psi = d(u + v^2)
    target = apply_mapping(example_space, mapping)
    report = verify_invariance(
        example_space,
        target,
        mapping,
        box_points,
        invariants=["classical_thomas", "classical_weyl"],
        tol=1e-9,
    )
    assert report.passed, report.to_text()


def test_geodesic_full_family_invariance(example_space, chart, box_points):
    mapping = geodesic_mapping(chart, ["0.2*v", "0.2*u", "1"])
    target = apply_mapping(example_space, mapping)
    report = verify_invariance(example_space, target, mapping, box_points[:8], tol=1e-9)
    assert report.passed, report.to_text()


def test_general_mapping_invariance_pattern(chart, example_space, box_points):
    # arbitrary omega pair: Theorem-1 objects and the corrected first chained
    # Weyl stage hold; the printed chain stages and the final object do not
    rng = np.random.default_rng(15)
    mapping = random_mapping(chart, rng)
    target = apply_mapping(example_space, mapping)
    report = verify_invariance(example_space, target, mapping, box_points[:8], tol=1e-10)
    for name in ("basic_thomas", "basic_weyl_direct", "basic_weyl_structured", "weyl_first_corrected"):
        assert report.row(name).passed, report.to_text()
    for name in ("weyl_first_printed", "weyl_second", "weyl_final"):
        assert report.row(name).max_discrepancy > 1e-4, report.to_text()


def test_fplanar_verification_report(example_space, example_fspec, box_points):
    target = fplanar_build(example_space, example_fspec)
    report = verify_invariance(example_space, target, example_fspec, box_points, tol=1e-8)
    assert report.row("fplanar_thomas").passed
    assert report.row("basic_thomas").passed
    assert report.row("basic_weyl_direct").passed
    assert report.row("derived_thomas").passed
    assert report.row("weyl_first_corrected").passed
    # the printed specialized Weyl objects fail by O(1): measured, not hidden
    assert report.row("fplanar_wbasic").max_discrepancy > 1.0
    assert report.row("fplanar_wderived").max_discrepancy > 1.0
    assert not report.passed


def test_report_serialization_roundtrip(example_space, chart):
    mapping = geodesic_mapping(chart, ["1", "0", "0"])
    target = apply_mapping(example_space, mapping)
    report = verify_invariance(example_space, target, mapping, sample_points([[1, 2]] * 3, 3, 16))
    payload = report.to_dict()
    assert payload["passed"] == report.passed
    assert len(payload["invariants"]) == len(report.rows)
    text = report.to_text()
    assert "classical_thomas" in text and "verdict" in text


def test_nan_after_first_point_fails():
    row = InvarianceRow("x", [((0,), 0.0), ((1,), math.nan)], 1e-8)
    assert math.isnan(row.max_discrepancy)
    assert not row.finite
    assert not row.passed
    report = InvarianceReport([row], 1e-8)
    assert not report.passed
    line = report.to_text().splitlines()[1]
    assert "non-finite" in line and line.endswith("FAIL")
    payload = report.to_dict()["invariants"][0]
    assert payload["non_finite"] is True
    assert payload["passed"] is False


def test_infinite_discrepancy_fails():
    row = InvarianceRow("x", [((0,), math.inf), ((1,), 0.0)], 1e-8)
    assert row.max_discrepancy == math.inf
    assert not row.passed
    finite = InvarianceReport([InvarianceRow("y", [((0,), 0.0)], 1e-8)]).to_dict()
    assert "non_finite" not in finite["invariants"][0]


def test_max_discrepancy_is_computed_once_per_row(monkeypatch):
    calls = []
    np_max = np.max
    monkeypatch.setattr(np, "max", lambda *a, **k: calls.append(1) or np_max(*a, **k))
    row = InvarianceRow("x", [((0,), 1e-9), ((1,), math.nan)], 1e-8)
    report = InvarianceReport([row], 1e-8)
    assert not row.passed and not row.finite
    report.to_text(), report.to_dict(), report.to_json()
    assert len(calls) == 1


def test_report_json_is_json_dumps_of_the_dict(example_space, chart):
    # NaN, both infinities and -0.0 among the discrepancies; int, float and
    # np.float64 coordinates, and two equal points that print differently
    shared = (1, np.float64(2.5), -0.0)
    points = [shared, (0.0, 1.0, 3.0), (-0.0, 1.0, 3.0), (1.0, 1e-300, 2.5e20)]
    rows = [
        InvarianceRow("nan", list(zip(points, [math.nan, 0.0, -0.0, 1e-9])), 1e-8),
        InvarianceRow("inf", list(zip(points, [math.inf, -math.inf, 3.0, 0.1])), 1e-8),
        InvarianceRow('quoted "name" \u00e9', list(zip(points, [0.0, 1e-12, 2e-9, -0.0])), 1e-8),
        InvarianceRow("empty", [], 1e-8),
    ]
    for report in (InvarianceReport(rows), InvarianceReport([], 1), InvarianceReport(rows[2:])):
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)
    mapping = geodesic_mapping(chart, ["1", "0", "0"])
    target = apply_mapping(example_space, mapping)
    report = verify_invariance(example_space, target, mapping, sample_points([[1, 2]] * 3, 5, 3))
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


# zeros of both signs, NaN, the infinities, subnormals, ints and np.float64:
# values that are equal but print differently, or print alike but differ
_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e-9, 0.1, 88.25,
    0, 3, -7, np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
]
_COORDS = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0).map(np.float64))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_report_json_of_shared_points_and_repeated_values(data):
    points = data.draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=4))
    # a small pool per report, so values repeat within and across rows
    values = st.one_of(st.sampled_from(_VALUES), st.floats())
    pool = data.draw(st.lists(values, min_size=1, max_size=6))
    rows = []
    for k in range(data.draw(st.integers(1, 4))):
        shared = data.draw(st.lists(st.sampled_from(points), max_size=6))  # the same tuples
        discs = [data.draw(st.sampled_from(pool)) for _ in shared]
        rows.append(InvarianceRow(f"row{k}", list(zip(shared, discs)), 1e-8))
    report = InvarianceReport(rows, data.draw(st.sampled_from([1e-8, 0.0, 1])))
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)
    assert len(list(report.json_pieces())) == len(rows) + 2  # one piece per row


def test_unknown_invariant_name_rejected(example_space, chart):
    mapping = geodesic_mapping(chart, ["1", "0", "0"])
    target = apply_mapping(example_space, mapping)
    # a name of no row, an F-planar row under an omega pair, and an omega
    # row with no mapping
    for given, names in (
        (mapping, ["nope"]),
        (mapping, ["fplanar_thomas"]),
        (None, ["basic_thomas"]),
    ):
        with pytest.raises(ValueError, match=re.escape(f"unknown invariants: {names}")):
            verify_invariance(example_space, target, given, [P0], invariants=names)


def test_an_empty_invariant_list_is_rejected(example_space, chart):
    # no row at all: the report would pass with nothing checked
    mapping = geodesic_mapping(chart, ["1", "0", "0"])
    target = apply_mapping(example_space, mapping)
    with pytest.raises(ValueError, match="verify needs at least one invariant"):
        verify_invariance(example_space, target, mapping, [P0], invariants=[])


@pytest.mark.parametrize(
    "points, message",
    [
        # no point at all: the report would pass every row at 0.0
        ([], "verify needs at least one point"),
        # too few coordinates, and too many
        ([P0, (1.0, 2.0)], r"point \(1.0, 2.0\) does not have 3 finite coordinates"),
        ([(1.0, 2.0, 3.0, 4.0)], r"point \(1.0, 2.0, 3.0, 4.0\) does not have 3"),
        # rows of different lengths in one list
        ([[1.0, 2.0, 3.0], [1.0, 2.0]], r"point \(1.0, 2.0\) does not have 3"),
        ([(1.0, math.nan, 3.0)], r"point \(1.0, nan, 3.0\) does not have 3 finite"),
        ([(1.0, 2.0, -math.inf)], r"point \(1.0, 2.0, -inf\) does not have 3 finite"),
        ([(1.0, "2", 3.0)], r"point \(1.0, '2', 3.0\) does not have 3 finite"),
    ],
)
def test_verify_rejects_bad_points(example_space, chart, example_fspec, points, message):
    target = fplanar_build(example_space, example_fspec)
    with pytest.raises(ValueError, match=message):
        verify_invariance(example_space, target, example_fspec, points)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_non_negative(
    example_space, example_fspec, tol
):
    # NaN or a negative tolerance would fail every row, inf pass every one
    target = fplanar_build(example_space, example_fspec)
    with pytest.raises(ValueError, match="tolerance must be a finite non-negative number"):
        verify_invariance(example_space, target, example_fspec, [P0], tol=tol)


def test_a_zero_tolerance_from_python_is_reported_as_positive_zero():
    # the range check accepts -0.0, which the report printed as "tolerance
    # -0" and wrote as "tol": -0.0
    job = builtin_config("geodesic-demo")
    source, mapping = job.build_space(), job.mapping()
    target = apply_mapping(source, mapping)
    report = verify_invariance(source, target, mapping, job.points(), tol=-0.0)
    assert report.to_text().splitlines()[-1] == "tolerance 0; overall FAIL"
    assert '\n  "tol": 0.0,\n' in report.to_json()
    assert math.copysign(1.0, json.loads(report.to_json())["tol"]) == 1.0


def test_fplanar_invariance_on_curved_source(chart, affinor, sigma_form):
    # the example metric is curvature-flat; repeat the key invariances on a
    # genuinely curved source space
    from tensor_invariants.geometry import curvature
    from tensor_invariants.sampling import random_metric_space

    rng = np.random.default_rng(19)
    source = random_metric_space(chart, rng)
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=20)
    assert max(np.max(np.abs(curvature(source)(p))) for p in points) > 1e-3
    fspec = FPlanarSpec(psi=TensorField(chart, "l", ["0.3", "v", "0"]), sigma=sigma_form, F=affinor)
    target = fplanar_build(source, fspec)
    report = verify_invariance(source, target, fspec, points, tol=1e-10)
    for name in (
        "basic_thomas",
        "basic_weyl_direct",
        "basic_weyl_structured",
        "derived_thomas",
        "weyl_first_corrected",
        "fplanar_thomas",
    ):
        assert report.row(name).passed, report.to_text()
