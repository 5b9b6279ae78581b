import math

import numpy as np
import pytest

from tensor_invariants.expr import Chart
from tensor_invariants.geometry import Space, symmetrize_connection, thomas
from tensor_invariants.invariants import OmegaSpec, SValues
from tensor_invariants.mappings import (
    FPlanarSpec,
    InvarianceReport,
    InvarianceRow,
    MappingSpec,
    apply_mapping,
    fplanar_as_omega,
    fplanar_build,
    fplanar_inverse,
    fplanar_invariants,
    fplanar_recover,
    fplanar_rho_field,
    sample_points,
    verify_invariance,
)
from tensor_invariants.sampling import random_mapping, random_omega_spec
from tensor_invariants.tensor import TensorField, scale_field, zero_field

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
    back = apply_mapping(there, mapping.swapped())
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


def test_torsion_delta_reaches_target(example_space, chart):
    entries = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][1][2] = "1"
    raw = TensorField(chart, "ull", entries)

    from tensor_invariants.tensor import PointField

    def antisym(point):
        value, grad = raw.jet(point)
        return value - value.transpose(0, 2, 1), grad - grad.transpose(0, 2, 1, 3)

    tau_delta = PointField(chart, "ull", antisym)
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0))
    target = apply_mapping(example_space, MappingSpec(spec, spec, torsion_delta=tau_delta))
    assert target.torsion(P0)[0, 1, 2] == 1.0
    # symmetric part untouched by a pure torsion change
    assert np.array_equal(target.connection(P0), example_space.connection(P0))


def test_torsion_delta_adds_to_source_torsion(chart):
    entries = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][1][2] = "u"  # source torsion^1_23 = u/2
    field = TensorField(chart, "ull", entries)
    source = Space.from_connection(field)
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0))
    delta = scale_field(symmetrize_connection(field)[1], 3.0)
    target = apply_mapping(source, MappingSpec(spec, spec, torsion_delta=delta))
    assert target.torsion(P0)[0, 1, 2] == 4.0 * source.torsion(P0)[0, 1, 2]
    assert target.torsion(P0)[0, 2, 1] == -2.0 * P0[0]


# --- F-planar construction ------------------------------------------------------

def test_fplanar_zero_data_is_identity(example_space, chart):
    fspec = FPlanarSpec(zero_field(chart, "l"), zero_field(chart, "l"), zero_field(chart, "ul"))
    target = fplanar_build(example_space, fspec)
    assert np.array_equal(target.connection(P0), example_space.connection(P0))


def test_fplanar_build_example_entry(example_space, example_fspec):
    target = fplanar_build(example_space, example_fspec)
    assert target.connection(P0)[2, 2, 2] == pytest.approx(1.0 / 3.0 + 6.0 * LN15, abs=1e-12)
    assert target.connection(P0)[2, 2, 2] == pytest.approx(16.5816, abs=1e-4)


def test_fplanar_roundtrip_through_inverse(example_space, example_fspec):
    target = fplanar_build(example_space, example_fspec)
    back = fplanar_build(target, fplanar_inverse(example_fspec))
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
    inverse = fplanar_inverse(example_fspec)
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=6):
        F = example_fspec.F.value(point)
        sigma = example_fspec.sigma.value(point)
        Fb = inverse.F.value(point)
        sigmab = inverse.sigma.value(point)
        lhs = np.einsum("ij,mn,p,q->ijmnpq", Fb, Fb, sigmab, sigmab)
        rhs = np.einsum("ij,mn,p,q->ijmnpq", F, F, sigma, sigma)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


# --- recovery ---------------------------------------------------------------------

def test_fplanar_recover_identity(example_space, chart):
    points = sample_points([[1.0, 2.0]] * 3, 5, seed=7)
    psi, rho = fplanar_recover(
        example_space, example_space, zero_field(chart, "ul"), zero_field(chart, "l"), points
    )
    for point in points:
        assert np.max(np.abs(psi.value(point))) < 1e-14


def test_fplanar_recover_roundtrip(example_space, chart, affinor, sigma_form):
    psi_true = TensorField(chart, "l", ["v", "u", "0"])  # d(uv)
    fspec = FPlanarSpec(psi=psi_true, sigma=sigma_form, F=affinor)
    target = fplanar_build(example_space, fspec)
    points = sample_points([[1.0, 2.0]] * 3, 10, seed=8)
    psi, rho = fplanar_recover(example_space, target, affinor, sigma_form, points)
    for point in points:
        assert np.max(np.abs(psi.value(point) - psi_true.value(point))) < 1e-10


def test_fplanar_recover_rho_value(example_space, affinor, sigma_form):
    rho = fplanar_rho_field(example_space, affinor, sigma_form)
    # (1/4) * [Gamma^a_{3a} + (F sigma_3 + F^a_3 sigma_a) / 2] at (1,2,3)
    expected = (1.0 / 3.0 + 0.5 * (math.sin(1) + math.cos(2) + 3.0) * LN15 + 0.5 * 3.0 * LN15) / 4.0
    assert rho.value(P0)[2] == pytest.approx(expected, abs=1e-14)
    assert rho.value(P0)[2] == pytest.approx(2.258346, abs=1e-6)


def test_fplanar_recover_rejects_unrelated_target(example_space, chart, affinor, sigma_form):
    mapping = random_mapping(chart, np.random.default_rng(9))
    target = apply_mapping(example_space, mapping)
    points = sample_points([[1.0, 2.0]] * 3, 5, seed=10)
    with pytest.raises(ValueError, match="not F-planar-related"):
        fplanar_recover(example_space, target, affinor, sigma_form, points)


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


def test_unknown_invariant_name_rejected(example_space, chart):
    mapping = geodesic_mapping(chart, ["1", "0", "0"])
    target = apply_mapping(example_space, mapping)
    with pytest.raises(ValueError, match="unknown invariants"):
        verify_invariance(example_space, target, mapping, [P0], invariants=["nope"])


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


def test_own_connection_derivative_is_what_makes_basic_weyl_invariant(example_space, chart):
    # the deriv_space switch evaluates the audit alternative: taking the
    # target's covariant derivatives in the source space breaks invariance
    from tensor_invariants.invariants import MODE_DIRECT, basic_weyl

    rng = np.random.default_rng(17)
    mapping = random_mapping(chart, rng)
    target = apply_mapping(example_space, mapping)
    own = basic_weyl(target, mapping.omega_tgt, MODE_DIRECT)
    borrowed = basic_weyl(target, mapping.omega_tgt, MODE_DIRECT, deriv_space=example_space)
    reference = basic_weyl(example_space, mapping.omega_src, MODE_DIRECT)
    worst_own = 0.0
    worst_borrowed = 0.0
    for point in sample_points([[1.0, 2.0]] * 3, 5, seed=18):
        worst_own = max(worst_own, float(np.max(np.abs(own(point) - reference(point)))))
        worst_borrowed = max(
            worst_borrowed, float(np.max(np.abs(borrowed(point) - reference(point))))
        )
    assert worst_own < 1e-12
    assert worst_borrowed > 1e-3
