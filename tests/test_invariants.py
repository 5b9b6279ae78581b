import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import weyl_correlation_residual
from tensor_invariants.expr import Chart
from tensor_invariants.geometry import RICCI_LAST, RICCI_MIDDLE, Space, curvature, thomas, weyl
from tensor_invariants.invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    OmegaSpec,
    SValues,
    basic_thomas,
    basic_weyl,
    calF_jet,
    dee,
    derived_thomas,
    derived_thomas_correlation_residual,
    derived_weyl_chain,
    nu_jet,
    omega,
    omega_jet,
    omega_square_expanded,
    reduced_space,
    zeta,
)
from tensor_invariants.mappings import fplanar_invariants, sample_points
from tensor_invariants.sampling import (
    random_connection_space,
    random_field,
    random_metric_space,
    random_omega_spec,
)
from tensor_invariants.tensor import PointBatch, PointField, TensorField

P0 = (1.0, 2.0, 3.0)
LN15 = math.log(15.0)


def example_fplanar_spec(chart, affinor, sigma_form, rho=None):
    return OmegaSpec(chart, SValues(1.0, 0.5, 0.0), rho=rho, sigma=sigma_form, F=affinor)


# --- calF and nu ---------------------------------------------------------------

def test_nu_jet_is_the_trace_of_calF_jet(chart):
    rng = np.random.default_rng(12)
    for _ in range(5):
        spec = random_omega_spec(chart, rng)
        for point in sample_points([[1.0, 2.0]] * 3, 3, seed=13):
            calF, dcalF = calF_jet(spec.F, spec.sigma, point)
            nu, dnu = nu_jet(spec.F, spec.sigma, point)
            assert np.max(np.abs(nu - np.einsum("aja->j", calF))) < 1e-14
            assert np.max(np.abs(dnu - np.einsum("ajan->jn", dcalF))) < 1e-14


def test_omega_jet_value_matches_omega(chart):
    rng = np.random.default_rng(14)
    spec = random_omega_spec(chart, rng)
    for point in sample_points([[1.0, 2.0]] * 3, 3, seed=15):
        assert np.array_equal(omega_jet(spec, point)[0], omega(spec, point))


def test_zero_coefficient_fields_are_not_evaluated(chart):
    # omega, zeta and D read no field of a term group whose s-value is 0, so
    # the key they are shared under (the ids of the fields that enter) names
    # every field they read
    def untouchable(variance):
        def fn(point):
            raise AssertionError("a field with a zero coefficient was evaluated")

        return PointField(chart, variance, fn)

    rng = np.random.default_rng(19)
    coefficients = random_field(chart, "ull", rng)
    full = random_omega_spec(chart, rng)
    cases = [SValues(0.0, -0.6, 0.8), SValues(0.7, 0.0, 0.8), SValues(0.7, -0.6, 0.0)]
    for s in cases + [SValues(0.0, 0.5, 0.0), SValues(1.0, 0.0, 0.0), SValues(0.0, 0.0, 0.0)]:
        weights = {"rho": s.s1, "F": s.s2, "sigma": s.s2, "phi": s.s3, "sigma2": s.s3}
        zero = {
            name: untouchable(getattr(full, name).variance)
            for name, weight in weights.items()
            if weight == 0.0
        }
        spec, reference = replace(full, s=s, **zero), replace(full, s=s)
        value, grad = omega_jet(spec, P0)
        assert np.array_equal(value, omega(reference, P0))
        assert np.array_equal(grad, omega_jet(reference, P0)[1])
        # a space each, so that nothing is shared between the two sides
        space, other = (Space.from_connection(coefficients) for _ in range(2))
        for build in (zeta, dee):
            assert np.array_equal(build(space, spec)(P0), build(other, reference)(P0))


# --- omega -------------------------------------------------------------------

def test_omega_zero_s(chart):
    spec = OmegaSpec(chart, SValues(0.0, 0.0, 0.0))
    assert np.max(np.abs(omega(spec, P0))) == 0.0


def test_omega_kronecker_bookkeeping(chart):
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0), rho=TensorField(chart, "l", ["1", "0", "0"]))
    w = omega(spec, P0)
    assert w[0, 0, 0] == 2.0
    assert w[0, 0, 1] == 0.0
    assert w[1, 0, 1] == 1.0


def test_omega_example_entry(chart, affinor, sigma_form):
    spec = example_fplanar_spec(chart, affinor, sigma_form)
    w = omega(spec, P0)
    assert w[2, 2, 2] == pytest.approx(3.0 * LN15, abs=1e-12)
    assert w[2, 2, 2] == pytest.approx(8.1242, abs=1e-4)


def test_omega_symmetric_in_lower_pair(chart):
    rng = np.random.default_rng(0)
    for _ in range(5):
        spec = random_omega_spec(chart, rng)
        w = omega(spec, (1.3, 1.6, 1.9))
        assert np.max(np.abs(w - w.transpose(0, 2, 1))) < 1e-15


def test_sigma2_symmetry_validation(chart):
    bad = OmegaSpec(
        chart,
        SValues(0.0, 0.0, 1.0),
        sigma2=TensorField(chart, "ll", [["0", "u", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
    )
    with pytest.raises(ValueError, match="symmetric"):
        bad.validate([P0])


# --- omega-square expansion ----------------------------------------------------

def test_omega_square_expansion_matches_contraction(chart):
    rng = np.random.default_rng(1)
    points = sample_points([[1.0, 2.0]] * 3, 3, seed=2)
    for _ in range(50):
        spec = random_omega_spec(chart, rng)
        for point in points:
            w = omega(spec, point)
            direct = np.einsum("ajm,ian->ijmn", w, w)
            assert np.max(np.abs(direct - omega_square_expanded(spec, point))) < 1e-12


def test_omega_square_rho_only_groups(chart):
    rho = TensorField(chart, "l", ["u", "v*w", "1"])
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0), rho=rho)
    r = rho.value(P0)
    delta = np.eye(3)
    expected = (
        np.einsum("ij,m,n->ijmn", delta, r, r)
        + np.einsum("im,j,n->ijmn", delta, r, r)
        + 2.0 * np.einsum("in,j,m->ijmn", delta, r, r)
    )
    assert np.max(np.abs(omega_square_expanded(spec, P0) - expected)) < 1e-14


def test_omega_square_s3_only_pin(chart):
    spec = OmegaSpec(
        chart,
        SValues(0.0, 0.0, 1.0),
        sigma2=TensorField(chart, "ll", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        phi=TensorField(chart, "u", ["0", "0", "1"]),
    )
    got = omega_square_expanded(spec, P0)
    # sigma_{jm} sigma_{an} phi^a phi^i at (i=3, j=1, m=1, n=3)
    assert got[2, 0, 0, 2] == 1.0


# --- basic invariants ----------------------------------------------------------

def test_basic_thomas_zero_omega_is_connection(example_space, chart):
    spec = OmegaSpec(chart, SValues(0.0, 0.0, 0.0))
    assert np.allclose(basic_thomas(example_space, spec)(P0), example_space.connection(P0))


def test_basic_thomas_example_value(example_space, chart, affinor, sigma_form):
    spec = example_fplanar_spec(chart, affinor, sigma_form)
    got = basic_thomas(example_space, spec)(P0)
    assert got[2, 2, 2] == pytest.approx(1.0 / 3.0 - 3.0 * LN15, abs=1e-12)
    assert got[2, 2, 2] == pytest.approx(-7.7908, abs=1e-4)


def test_zeta_vanishes_without_s1(example_space, chart, affinor, sigma_form):
    spec = OmegaSpec(chart, SValues(0.0, 0.5, 0.3), sigma=sigma_form, F=affinor)
    assert np.max(np.abs(zeta(example_space, spec)(P0))) == 0.0


def test_zeta_flat_space_hand_value(chart):
    # rho = d(uv): zeta_{ij} = d_i d_j(uv) + d_i(uv) d_j(uv); at (1,2,3) the
    # (1,2) entry is 1 + v*u = 3
    flat = Space.flat(chart)
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0), rho=TensorField(chart, "l", ["v", "u", "0"]))
    z = zeta(flat, spec)(P0)
    assert z[0, 1] == pytest.approx(3.0, abs=1e-14)


def test_dee_vanishes_without_s2_s3(example_space, chart):
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0), rho=TensorField(chart, "l", ["u", "v", "w"]))
    assert np.max(np.abs(dee(example_space, spec)(P0))) == 0.0


def test_dee_s3_pin_flat_constant(chart):
    flat = Space.flat(chart)
    spec = OmegaSpec(
        chart,
        SValues(0.0, 0.0, 1.0),
        sigma2=TensorField(chart, "ll", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        phi=TensorField(chart, "u", ["0", "0", "1"]),
    )
    d = dee(flat, spec)(P0)
    # covariant-derivative term drops; remaining entry (i=3,j=1,m=1,n=3) is 1
    assert d[2, 0, 0, 2] == 1.0


def test_dee_fplanar_reduction_keeps_quadratic_group(example_space, chart, affinor, sigma_form):
    # the general D at s=(1,1/2,0) equals the pure-derivative reduction plus
    # the s2^2 quadratic group; the reduction alone drops that group
    spec = example_fplanar_spec(chart, affinor, sigma_form)
    reduced = fplanar_invariants(example_space, affinor, sigma_form)["dee"]
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=5):
        F = affinor.value(point)
        sigma = sigma_form.value(point)
        FTs = F.T @ sigma
        F2 = F @ F
        quadratic = 0.25 * (
            np.einsum("in,m,j->ijmn", F, FTs, sigma)
            + np.einsum("in,j,m->ijmn", F, FTs, sigma)
            + np.einsum("im,j,n->ijmn", F2, sigma, sigma)
        )
        got = dee(example_space, spec)(point)
        assert np.max(np.abs(got - (reduced(point) + quadratic))) < 1e-12
        assert np.max(np.abs(quadratic)) > 1.0  # the dropped group is not small


def test_basic_weyl_zero_omega_is_curvature(example_space, chart):
    spec = OmegaSpec(chart, SValues(0.0, 0.0, 0.0))
    for mode in (MODE_DIRECT, MODE_STRUCTURED):
        got = basic_weyl(example_space, spec, mode)(P0)
        assert np.allclose(got, curvature(example_space)(P0), atol=1e-15)


def test_basic_weyl_direct_matches_structured(chart):
    rng = np.random.default_rng(6)
    points = sample_points([[1.0, 2.0]] * 3, 3, seed=7)
    for _ in range(8):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        for point in points:
            direct = basic_weyl(space, spec, MODE_DIRECT)(point)
            structured = basic_weyl(space, spec, MODE_STRUCTURED)(point)
            assert np.max(np.abs(direct - structured)) < 1e-9


def test_basic_weyl_direct_flat_space_against_finite_differences(chart):
    flat = Space.flat(chart)
    rng = np.random.default_rng(12)
    spec = random_omega_spec(chart, rng)
    point = np.array([1.25, 1.5, 1.75])
    w = omega(spec, point)
    h = 1e-5
    dw = np.zeros((3, 3, 3, 3))
    for n in range(3):
        shift = np.zeros(3)
        shift[n] = h
        dw[:, :, :, n] = (omega(spec, point + shift) - omega(spec, point - shift)) / (2 * h)
    quad = np.einsum("ajm,ian->ijmn", w, w)
    expected = -dw + dw.transpose(0, 1, 3, 2) + quad - quad.transpose(0, 1, 3, 2)
    got = basic_weyl(flat, spec, MODE_DIRECT)(point)
    assert np.max(np.abs(got - expected)) < 1e-6


# --- derived invariants ---------------------------------------------------------

def test_derived_thomas_collapses_to_classical(example_space, chart):
    rng = np.random.default_rng(13)
    spec = OmegaSpec(chart, SValues(1.0, 0.0, 0.0), rho=TensorField(chart, "l", ["u", "1", "v*w"]))
    for point in sample_points([[1.0, 2.0]] * 3, 5, seed=8):
        got = derived_thomas(example_space, spec)(point)
        assert np.max(np.abs(got - thomas(example_space)(point))) < 1e-14


def test_derived_thomas_example_table(example_space, chart, affinor, sigma_form):
    # equals T - calF/2 + (delta-weighted calF traces)/8 for the example spec
    spec = example_fplanar_spec(chart, affinor, sigma_form)
    for point in sample_points([[1.0, 2.0]] * 3, 5, seed=9) + [P0]:
        t = thomas(example_space)(point)
        F = affinor.value(point)
        sigma = sigma_form.value(point)
        calF = np.einsum("ik,j->ijk", F, sigma) + np.einsum("ij,k->ijk", F, sigma)
        trace = np.trace(F) * sigma + F.T @ sigma
        delta = np.eye(3)
        expected = t - 0.5 * calF + (
            np.einsum("ij,k->ijk", delta, trace) + np.einsum("ik,j->ijk", delta, trace)
        ) / 8.0
        got = derived_thomas(example_space, spec)(point)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_calF_spot_values(affinor, sigma_form):
    F = affinor.value(P0)
    sigma = sigma_form.value(P0)
    calF = np.einsum("ik,j->ijk", F, sigma) + np.einsum("ij,k->ijk", F, sigma)
    assert calF[2, 2, 2] == pytest.approx(6.0 * LN15, abs=1e-12)  # 16.2483...
    assert calF[0, 0, 2] == pytest.approx(math.sin(1.0) * LN15, abs=1e-12)  # 2.2788...


def test_derived_thomas_correlation_residual(chart):
    rng = np.random.default_rng(14)
    for _ in range(10):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        residual = derived_thomas_correlation_residual(space, spec)
        for point in sample_points([[1.0, 2.0]] * 3, 2, seed=int(rng.integers(1000))):
            assert np.max(np.abs(residual(point))) < 1e-12


def test_weyl_chain_collapses_without_s2_s3(example_space, chart):
    spec = OmegaSpec(chart, SValues(0.7, 0.0, 0.0), rho=TensorField(chart, "l", ["u", "v", "w"]))
    chain = derived_weyl_chain(example_space, spec)
    rng = np.random.default_rng(15)
    metric_space = random_metric_space(chart, rng)
    chain_curved = derived_weyl_chain(metric_space, spec)
    for point in sample_points([[1.0, 2.0]] * 3, 4, seed=10):
        for ch, space in ((chain, example_space), (chain_curved, metric_space)):
            w = weyl(space)(point)
            for stage in (ch.first_printed, ch.first_corrected, ch.second, ch.final):
                assert np.max(np.abs(stage(point) - w)) < 1e-12


def test_weyl_chain_correlation_residual():
    # final = classical Weyl + D_{j[mn]}, measured against W(L - omega without
    # rho) and the D traces, which the chain's stages never compute
    for n in range(2, 7):
        chart = Chart(tuple(f"x{k}" for k in range(1, n + 1)))
        rng = np.random.default_rng([16, n])
        batch = PointBatch(sample_points([[1.0, 2.0]] * n, 2, seed=n))
        for build in (random_connection_space, random_metric_space):
            space = build(chart, rng)
            spec = random_omega_spec(chart, rng)
            final = derived_weyl_chain(space, spec).final(batch)
            residual = weyl_correlation_residual(space, spec, batch)
            assert np.all(np.abs(residual) <= 1e-12 * np.maximum(1.0, np.abs(final)))
            # the trace terms are far from rounding, so their signs are checked
            w = weyl(reduced_space(space, spec, rho=False))(batch)
            assert np.max(np.abs(final - w)) > 1e-3


def test_weyl_chain_trace_audit_regression(chart):
    # contraction of (first_printed - second) over (i, n) reproduces the
    # D-trace structure 2/(N+1) * D^a_{a[jm]}; frozen as a regression
    rng = np.random.default_rng(17)
    space = random_connection_space(chart, rng)
    spec = random_omega_spec(chart, rng)
    chain = derived_weyl_chain(space, spec)
    d_eval = dee(space, spec)
    for point in sample_points([[1.0, 2.0]] * 3, 3, seed=11):
        diff = chain.first_printed(point) - chain.second(point)
        contracted = np.einsum("ijmi->jm", diff)  # contract i with n
        d = d_eval(point)
        dtrace = np.einsum("aamn->mn", d)
        dtrace_alt = dtrace - dtrace.T
        assert np.max(np.abs(contracted - 2.0 * dtrace_alt / 4.0)) < 1e-12


# --- reduced-connection identities ------------------------------------------------

IDENTITY_S = (SValues(1.0, -0.6, 0.8), SValues(0.7, -0.6, 0.8), SValues(1.0, 0.5, 0.0))


def _identity_cases():
    """A seeded space, omega spec and 3-point batch per N, space kind and s."""
    for n in range(2, 7):
        chart = Chart(tuple(f"x{k}" for k in range(1, n + 1)))
        kinds = (("metric", random_metric_space), ("connection", random_connection_space))
        for k, (kind, build) in enumerate(kinds):
            for index, s in enumerate(IDENTITY_S):
                rng = np.random.default_rng([n, k, index])
                space = build(chart, rng)
                spec = random_omega_spec(chart, rng, s)
                batch = PointBatch(sample_points([[1.0, 2.0]] * n, 3, seed=n))
                s_text = ",".join(f"{x:g}" for x in s.as_tuple())
                yield pytest.param(space, spec, batch, id=f"N{n}-{kind}-s{s_text}")


def _assert_close(got, want, tol=1e-12):
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("space, spec, batch", _identity_cases())
def test_reduced_connection_identities(space, spec, batch):
    direct = basic_weyl(space, spec, MODE_DIRECT)(batch)
    _assert_close(direct, basic_weyl(space, spec, MODE_STRUCTURED)(batch))
    full = reduced_space(space, spec)
    assert np.array_equal(basic_thomas(space, spec)(batch), full.connection(batch))
    _assert_close(derived_thomas_correlation_residual(space, spec)(batch), 0.0)
    # the corrected first chain stage is the projective Weyl tensor of
    # L - omega without rho under the shipped Ricci convention, and so
    # vanishes at N = 2; under the other convention it is not, which is why
    # the stage keeps its own assembly
    no_rho = reduced_space(space, spec, rho=False)
    corrected = derived_weyl_chain(space, spec, RICCI_LAST).first_corrected(batch)
    _assert_close(corrected, weyl(no_rho, RICCI_LAST)(batch))
    if space.dim == 2:
        _assert_close(corrected, 0.0)
    middle = derived_weyl_chain(space, spec, RICCI_MIDDLE).first_corrected(batch)
    assert np.max(np.abs(middle - weyl(no_rho, RICCI_MIDDLE)(batch))) > 1e-3


def test_reduced_spaces_are_shared_by_s_and_fields(chart):
    rng = np.random.default_rng(18)
    space = random_connection_space(chart, rng)
    s = SValues(0.7, -0.6, 0.8)
    spec_a, spec_b = random_omega_spec(chart, rng, s), random_omega_spec(chart, rng, s)
    other_rho = replace(spec_a, rho=spec_b.rho)
    other_s1 = replace(spec_a, s=SValues(1.0, -0.6, 0.8))
    for rho in (True, False):
        a = reduced_space(space, spec_a, rho)
        b = reduced_space(space, spec_b, rho)
        assert b.key != a.key
        # a copy of the spec names the same fields: the copy's space shares
        # the connection in a batch's cache
        copy = reduced_space(space, replace(spec_a), rho)
        assert copy is not a and copy.key == a.key
        batch = PointBatch(P0)
        assert copy.connection(batch) is a.connection(batch)
        # rho and s1 enter L - omega only, not L - omega without rho
        for variant in (other_rho, other_s1):
            assert (reduced_space(space, variant, rho).key == a.key) == (not rho)
        for spec, reduced in ((spec_a, a), (spec_b, b)):
            if not rho:
                spec = replace(spec, s=SValues(0.0, s.s2, s.s3))
            _assert_close(reduced.connection(P0), space.connection(P0) - omega(spec, P0))


# --- symbolic certificates of the array cores ---------------------------------------------


def _symbolic_jet(sp, name: str, shape: tuple, xs, key=lambda index: index):
    """Values and first partials of a generic field of `shape`: one undefined
    function of the coordinates `xs` per entry, entries of equal `key` equal."""
    value = np.empty(shape, dtype=object)
    for index in np.ndindex(shape):
        value[index] = sp.Function(name + "".join(map(str, key(index))))(*xs)
    grad = np.empty(shape + (len(xs),), dtype=object)
    for index in np.ndindex(grad.shape):
        grad[index] = sp.diff(value[index[:-1]], xs[index[-1]])
    return value, grad


def test_basic_weyl_direct_equals_structured_identically_at_n2():
    # the zeta / D regrouping is an identity: at N = 2, with a general
    # symmetric connection, general fields and symbolic s-values, the direct
    # basic Weyl invariant (the curvature of Lambda = L - omega) and the
    # structured assembly agree in every component, run through the cores
    sp = pytest.importorskip("sympy")
    from tensor_invariants.deformation import _calF_arrays, _sphi_arrays
    from tensor_invariants.geometry import curvature_arrays
    from tensor_invariants.invariants import (
        basic_weyl_arrays,
        dee_arrays,
        reduced_arrays,
        zeta_arrays,
    )

    xs = sp.symbols("x y")
    s = sp.symbols("s1 s2 s3")
    conn = _symbolic_jet(sp, "L", (2, 2, 2), xs, key=lambda i: (i[0],) + tuple(sorted(i[1:])))
    rho = _symbolic_jet(sp, "rho", (2,), xs)
    sigma = _symbolic_jet(sp, "sigma", (2,), xs)
    F = _symbolic_jet(sp, "F", (2, 2), xs)
    phi = _symbolic_jet(sp, "phi", (2,), xs)
    sigma2 = _symbolic_jet(sp, "S", (2, 2), xs, key=lambda i: tuple(sorted(i)))
    calF_group = (F[0], sigma[0]) + _calF_arrays(*F, *sigma)
    sphi_group = (sigma2[0], phi[0]) + _sphi_arrays(*sigma2, *phi)

    direct = curvature_arrays(*reduced_arrays(s, conn, calF_group[2:], sphi_group[2:], rho))
    z = zeta_arrays(s, *rho, conn[0], calF_group[:2], sphi_group[:2])
    d = dee_arrays(s, conn[0], (calF_group, sphi_group))
    structured = basic_weyl_arrays(curvature_arrays(*conn), z, d)
    assert direct.shape == structured.shape == (2, 2, 2, 2)
    assert all(sp.expand(gap) == 0 for gap in (direct - structured).ravel())
    assert any(sp.expand(entry) != 0 for entry in z.ravel())  # not a vacuous zero
