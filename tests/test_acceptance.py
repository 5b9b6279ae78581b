"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Criterion 7 checks the F-planar objects that the library promises are
invariant under the worked example mapping: the F-planar Thomas type, the
general basic Weyl invariant at the F-planar split s = (1, 1/2, 0), and the
sign-corrected first-stage derived Weyl invariant.  The two printed Weyl-type
reductions (`fplanar_wbasic`, `fplanar_wderived`) drop sigma-odd trace terms
and are not invariant; the criterion measures and prints them, and requires
the verifier and the paper audit to flag them, so that they can never be
reported as a PASS.  Its exit-code clause checks the CLI's exit code against
the per-point discrepancies in the CLI's own report.
"""

import json
import math

import numpy as np
import pytest

from oracles import eval_jet, evaluate, riemannian_weyl, weyl_correlation_residual
from tensor_invariants.audit import run_paper_audit
from tensor_invariants.cli import main as cli_main
from tensor_invariants.expr import Chart, parse
from tensor_invariants.geometry import (
    Space,
    curvature,
    thomas,
    weyl,
)
from tensor_invariants.invariants import (
    OmegaSpec,
    SValues,
    derived_thomas,
    derived_thomas_correlation_residual,
    derived_weyl_chain,
    omega,
    omega_square_expanded,
)
from tensor_invariants.mappings import (
    FPlanarSpec,
    MappingSpec,
    apply_mapping,
    fplanar_build,
    sample_points,
    verify_invariance,
)
from tensor_invariants.sampling import (
    random_connection_space,
    random_metric_space,
    random_omega_spec,
)
from tensor_invariants.tensor import TensorField, zero_field

LN15 = math.log(15.0)


def report(number: int, passed: bool, description: str, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {verdict}: {description}{suffix}")


@pytest.fixture(scope="module")
def audit_findings(tmp_path_factory):
    return {f.id: f for f in run_paper_audit(seed=0)}


def test_criterion_01_christoffel_reproduction(example_space, audit_findings):
    points = sample_points([[1.0, 2.0]] * 3, 10, seed=21)
    worst = 0.0
    for point in points:
        conn = example_space.connection(point)
        for i in range(3):
            worst = max(worst, abs(conn[i, i, i] - 1.0 / point[i]))
    table = audit_findings["christoffel-example-table"]
    audited = (
        table.verdict == "discrepancy"
        and table.measurement["offdiagonal_computed_max"] < 1e-12
        and table.measurement["offdiagonal_printed_vs_computed_max_gap"] > 0.1
    )
    passed = worst < 1e-12 and audited
    report(1, passed, "diagonal Christoffels 1/u,1/v,1/w; off-diagonal table audited as inconsistent",
           f"max diag residual {worst:.2e}")
    assert passed


def test_criterion_02_thomas_table(example_space):
    points = sample_points([[1.0, 2.0]] * 3, 10, seed=22)
    worst = 0.0
    for point in points:
        t = thomas(example_space)(point)
        conn = example_space.connection(point)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if i == j == k:
                        expected = (2.0 / 4.0) / point[i]  # (N-1)/(N+1) * 1/x_i
                    elif i == j != k:
                        expected = -conn[k, k, k] / 4.0
                    elif i == k != j:
                        expected = -conn[j, j, j] / 4.0
                    else:
                        expected = conn[i, j, k]
                    worst = max(worst, abs(t[i, j, k] - expected))
    t0 = thomas(example_space)((1.0, 2.0, 3.0))
    spot = abs(t0[0, 0, 0] - 0.5) < 1e-12 and abs(t0[0, 0, 1] + 0.125) < 1e-12
    passed = worst < 1e-12 and spot
    report(2, passed, "three-case Thomas table from standard Christoffels", f"max residual {worst:.2e}")
    assert passed


def test_criterion_03_calf_tables(affinor, sigma_form):
    points = sample_points([[1.0, 2.0]] * 3, 10, seed=23)
    worst = 0.0
    for point in points:
        F = affinor.value(point)
        s = sigma_form.value(point)
        calF = np.einsum("ik,j->ijk", F, s) + np.einsum("ij,k->ijk", F, s)
        table = np.zeros((3, 3, 3))
        for i in range(3):
            table[i, 2, i] += F[i, i] * s[2]
            table[i, i, 2] += F[i, i] * s[2]
        table[2, 2, 2] = 2.0 * F[2, 2] * s[2]
        worst = max(worst, float(np.max(np.abs(calF - table))))
        trace = np.trace(F) * s + F.T @ s
        closed = np.array([np.trace(F) * s[j] + F[j, j] * s[j] for j in range(3)])
        worst = max(worst, float(np.max(np.abs(trace - closed))))
    F0 = affinor.value((1.0, 2.0, 3.0))
    s0 = sigma_form.value((1.0, 2.0, 3.0))
    calF0 = np.einsum("ik,j->ijk", F0, s0) + np.einsum("ij,k->ijk", F0, s0)
    spot = (
        abs(calF0[2, 2, 2] - 6.0 * LN15) < 1e-12
        and abs(calF0[0, 0, 2] - math.sin(1.0) * LN15) < 1e-12
    )
    passed = worst < 1e-12 and spot
    report(3, passed, "calF table and trace, spot values 6*ln15 and sin(1)*ln15",
           f"max residual {worst:.2e}")
    assert passed


def test_criterion_04_omega_square_audit(chart):
    rng = np.random.default_rng(24)
    points = sample_points([[1.0, 2.0]] * 3, 2, seed=25)
    worst = 0.0
    for _ in range(50):
        spec = random_omega_spec(chart, rng)
        for point in points:
            w = omega(spec, point)
            direct = np.einsum("ajm,ian->ijmn", w, w)
            worst = max(worst, float(np.max(np.abs(direct - omega_square_expanded(spec, point)))))
    passed = worst < 1e-12
    report(4, passed, "omega-square expansion equals direct contraction on 50 random bundles",
           f"max residual {worst:.2e}")
    assert passed


def test_criterion_05_collapse_tests(chart, example_space, sphere_space):
    rng = np.random.default_rng(26)
    points = sample_points([[1.0, 2.0]] * 3, 5, seed=27)
    worst = 0.0
    spec_geo = OmegaSpec(chart, SValues(1.0, 0.0, 0.0), rho=TensorField(chart, "l", ["u", "v*w", "1"]))
    for point in points:
        worst = max(worst, float(np.max(np.abs(
            derived_thomas(example_space, spec_geo)(point) - thomas(example_space)(point)))))
    spec_chain = OmegaSpec(chart, SValues(0.6, 0.0, 0.0), rho=TensorField(chart, "l", ["v", "u", "w"]))
    metric_space = random_metric_space(chart, rng)
    chain = derived_weyl_chain(metric_space, spec_chain)
    for point in points:
        w = weyl(metric_space)(point)
        for stage in (chain.first_printed, chain.first_corrected, chain.second, chain.final):
            worst = max(worst, float(np.max(np.abs(stage(point) - w))))
        worst = max(worst, float(np.max(np.abs(w - riemannian_weyl(metric_space)(point)))))
    sphere_points = sample_points([[0.5, 2.5], [0.2, 6.0]], 5, seed=28)
    for point in sphere_points:
        worst = max(worst, float(np.max(np.abs(
            weyl(sphere_space)(point) - riemannian_weyl(sphere_space)(point)))))
    passed = worst < 1e-12
    report(5, passed, "derived objects collapse to classical Thomas/Weyl; Riemannian Weyl reduction",
           f"max residual {worst:.2e}")
    assert passed


def test_criterion_06_geodesic_anchor(example_space, chart):
    psi = TensorField(chart, "l", ["1", "2*v", "0"])  # d(u + v^2)
    s = SValues(1.0, 0.0, 0.0)
    mapping = MappingSpec(OmegaSpec(chart, s), OmegaSpec(chart, s, rho=psi))
    target = apply_mapping(example_space, mapping)
    points = sample_points([[1.0, 2.0]] * 3, 20, seed=29)
    rep = verify_invariance(example_space, target, mapping, points,
                            invariants=["classical_thomas", "classical_weyl"], tol=1e-9)
    passed = rep.passed
    detail = ", ".join(f"{r.name} {r.max_discrepancy:.2e}" for r in rep.rows)
    report(6, passed, "classical Thomas and Weyl invariant under a constructed geodesic mapping", detail)
    assert passed


def test_criterion_07_fplanar_invariance(example_space, chart, affinor, sigma_form,
                                         audit_findings, tmp_path):
    tol = 1e-8
    fspec = FPlanarSpec(psi=zero_field(chart, "l"), sigma=sigma_form, F=affinor)
    target = fplanar_build(example_space, fspec)
    points = sample_points([[1.0, 2.0]] * 3, 20, seed=30)
    rep = verify_invariance(example_space, target, fspec, points, tol=tol)

    def worst(row):
        # np.max propagates NaN, unlike the row's own max_discrepancy
        return float(np.max([d for _, d in row.discrepancies]))

    # Objects that hold: the Thomas type, the general basic Weyl invariant at
    # the F-planar split (both assembly modes), the corrected first stage.
    held = {name: worst(rep.row(name))
            for name in ("fplanar_thomas", "basic_weyl_direct",
                         "basic_weyl_structured", "weyl_first_corrected")}
    # The printed Weyl-type reductions drop sigma-odd trace terms: they are
    # measured, and the verifier and the audit must flag them, never PASS.
    printed = {name: worst(rep.row(name)) for name in ("fplanar_wbasic", "fplanar_wderived")}
    flagged = (
        not any(rep.row(name).passed for name in printed)
        and audit_findings["fplanar-invariance-readings"].verdict == "discrepancy"
        and audit_findings["fplanar-wbasic-reduction"].verdict == "discrepancy"
    )

    # Exit-code clause: the CLI runs every invariant of fplanar-demo, several
    # of which fail on their own merits (the mapping is not geodesic), so its
    # exit code is checked against its own per-point discrepancies.
    cli_exit = cli_main(["verify", "--config", "fplanar-demo", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "report.json").read_text())
    cli_rows = {row["name"]: row for row in payload["invariants"]}
    exceeds = any(
        not math.isfinite(p["discrepancy"]) or p["discrepancy"] > payload["tol"]
        for row in payload["invariants"] for p in row["points"]
    )
    exit_ok = cli_exit == (3 if exceeds else 0)
    flagged = flagged and all(cli_rows[name]["passed"] is False for name in printed)

    held_ok = all(d < tol for d in held.values())
    passed = held_ok and flagged and exit_ok
    detail = (
        ", ".join(f"{k} {v:.2e}" for k, v in held.items())
        + "; printed (flagged) " + ", ".join(f"{k} {v:.2e}" for k, v in printed.items())
        + f"; verify exit {cli_exit}"
    )
    report(7, passed, "specialized F-planar invariants agree across the example mapping", detail)
    assert passed, f"held {held_ok}, printed flagged {flagged}, exit code consistent {exit_ok}: {detail}"


def test_criterion_08_correlation_identities(chart):
    rng = np.random.default_rng(31)
    worst = 0.0
    for draw in range(20):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        point = tuple(rng.uniform(1.0, 2.0, 3))
        worst = max(worst, float(np.max(np.abs(
            derived_thomas_correlation_residual(space, spec)(point)))))
        worst = max(worst, float(np.max(np.abs(weyl_correlation_residual(space, spec, point)))))
    passed = worst < 1e-12
    report(8, passed, "Thomas and Weyl correlation identities", f"max residual {worst:.2e}")
    assert passed


def test_criterion_09_property_suite(chart, example_space, sphere_space):
    rng = np.random.default_rng(32)
    worst_antisym = 0.0
    worst_bianchi = 0.0
    largest_curvature = 0.0
    for _ in range(3):
        space = random_metric_space(chart, rng)
        for point in sample_points([[1.0, 2.0]] * 3, 4, seed=33):
            riemann = curvature(space)(point)
            largest_curvature = max(largest_curvature, float(np.max(np.abs(riemann))))
            worst_antisym = max(worst_antisym, float(np.max(np.abs(
                riemann + riemann.transpose(0, 1, 3, 2)))))
            cyclic = riemann + riemann.transpose(0, 2, 3, 1) + riemann.transpose(0, 3, 1, 2)
            worst_bianchi = max(worst_bianchi, float(np.max(np.abs(cyclic))))
    assert largest_curvature > 1e-3  # fixtures are genuinely curved
    flat = Space.flat(chart)
    p0 = (1.0, 2.0, 3.0)
    flat_exact = (
        float(np.max(np.abs(curvature(flat)(p0)))) == 0.0
        and float(np.max(np.abs(thomas(flat)(p0)))) == 0.0
        and float(np.max(np.abs(weyl(flat)(p0)))) == 0.0
    )
    # jet-vs-FD on the expression corpus (first partials, relative)
    corpus = ["u^2", "1/u", "ln(1+u^2+v^2+w^2)", "sin(u)*cos(v)", "sqrt(1+u^2)", "exp(0.3*u)"]
    worst_fd = 0.0
    h = 1e-4
    for text in corpus:
        node = parse(text, chart)
        for point in sample_points([[1.0, 2.0]] * 3, 3, seed=34):
            jet = eval_jet(node, point, order=1)
            for i in range(3):
                shift = np.zeros(3)
                shift[i] = h
                fd = (evaluate(node, np.array(point) + shift) - evaluate(node, np.array(point) - shift)) / (2 * h)
                denom = max(abs(fd), 1e-3)
                worst_fd = max(worst_fd, abs(jet.grad[i] - fd) / denom)
    worst_sphere = max(
        float(np.max(np.abs(weyl(sphere_space)(point))))
        for point in sample_points([[0.5, 2.5], [0.2, 6.0]], 6, seed=35)
    )
    passed = (
        worst_antisym < 1e-12
        and worst_bianchi < 1e-9
        and flat_exact
        and worst_fd < 1e-5
        and worst_sphere < 1e-9
    )
    report(9, passed, "curvature antisymmetry, Bianchi, flat vanishing, jets-vs-FD, sphere Weyl",
           f"antisym {worst_antisym:.1e}, bianchi {worst_bianchi:.1e}, fd {worst_fd:.1e}, sphere {worst_sphere:.1e}")
    assert passed


def test_criterion_10_audit_honesty(audit_findings, tmp_path):
    exit_code = cli_main(["audit-paper", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "audit-findings.json").read_text())
    ids = {f["id"]: f for f in payload}
    has_christoffel = (
        "christoffel-example-table" in ids
        and ids["christoffel-example-table"]["verdict"] == "discrepancy"
    )
    has_modes = (
        "basic-weyl-direct-vs-structured" in ids
        and "max_residual" in ids["basic-weyl-direct-vs-structured"]["measurement"]
    )
    has_theorem2 = (
        "theorem2-general-omega" in ids
        and "weyl_final" in ids["theorem2-general-omega"]["measurement"]
    )
    passed = exit_code == 0 and has_christoffel and has_modes and has_theorem2
    report(10, passed, "audit-paper completes and enumerates the required findings",
           f"{len(payload)} findings")
    assert passed
