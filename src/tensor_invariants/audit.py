"""Numeric audit of the worked 3-dimensional example and the derivations
behind the invariant family.

Each finding states one printed claim (a table entry, a reduction step, an
invariance assertion), measures it against this implementation, and records a
verdict: ``confirmed`` (agreement to rounding), ``discrepancy`` (the printed
claim fails numerically; the measurement quantifies by how much), or
``info``.  Findings are reported whether the residuals are zero or not.

A sweep over sample points evaluates its objects once on the points as one
batch (``tensor.PointBatch``) and takes the maximum over it.  A finding over
many random draws of spaces makes one batch per draw, so its cache holds one
draw; the omega-square finding, whose draws carry no space, reads each
draw's field values on a batch of its own and then evaluates all its draws
as one stack, with a leading draw axis before the point axis.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .configs import builtin_config
from .expr import parse
from .geometry import RICCI_LAST, _alt, curvature, delta_bracket, ricci, weyl
from .invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    SValues,
    basic_weyl,
    calF_jet,
    dee,
    derived_thomas,
    derived_thomas_correlation_residual,
    derived_weyl_chain,
    nu_jet,
    omega_arrays,
    omega_square_arrays,
    reduced_space,
    zeta,
)
from .jets import compile_program, run_program
from .mappings import (
    apply_mapping,
    fplanar_as_omega,
    fplanar_build,
    fplanar_invariants,
    sample_points,
    verify_invariance,
)
from .sampling import random_connection_space, random_mapping, random_omega_spec
from .tensor import PointBatch, delta_product, scale_field

__all__ = ["Finding", "run_paper_audit", "findings_to_json"]


@dataclass
class Finding:
    id: str
    claim: str
    measurement: dict
    verdict: str  # confirmed | discrepancy | info

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "measurement": self.measurement,
            "verdict": self.verdict,
        }


def findings_to_json(findings: list[Finding]) -> str:
    return json.dumps([f.to_dict() for f in findings], indent=2)


def _largest(array) -> float:
    """Largest absolute entry."""
    return float(np.max(np.abs(array)))


def _christoffel_table_finding(space, chart, points) -> Finding:
    # printed off-diagonal entries for g = diag(u^2, v^2, w^2): Gamma^1_22 = v/u^2 etc.
    printed_offdiag = {
        (0, 1, 1): "v/u^2",
        (0, 2, 2): "w/u^2",
        (1, 0, 0): "u/v^2",
        (1, 2, 2): "w/v^2",
        (2, 0, 0): "u/w^2",
        (2, 1, 1): "v/w^2",
    }
    batch = PointBatch(points)
    conn = space.connection(batch)
    diag = np.arange(3)
    diag_residual = _largest(conn[:, diag, diag, diag] - 1.0 / batch.array)
    computed = conn[(slice(None),) + tuple(zip(*printed_offdiag))]  # (P, entries)
    program = compile_program(*(parse(text, chart) for text in printed_offdiag.values()))
    printed = run_program(program, batch.array, 0)  # (entries, P)
    return Finding(
        id="christoffel-example-table",
        claim=(
            "Christoffel table for g = diag(u^2, v^2, w^2): diagonal entries "
            "1/u, 1/v, 1/w plus nonzero off-diagonal entries such as v/u^2"
        ),
        measurement={
            "diagonal_max_residual": diag_residual,
            "offdiagonal_computed_max": _largest(computed),
            "offdiagonal_printed_vs_computed_max_gap": _largest(printed.T - computed),
            "note": (
                "the standard Christoffel formula yields 0 for every printed "
                "off-diagonal entry; only the diagonal 1/u, 1/v, 1/w survive"
            ),
        },
        verdict="discrepancy",
    )


def _curvature_flat_finding(space, points) -> Finding:
    batch = PointBatch(points)
    worst = _largest(curvature(space)(batch))
    ric_worst = _largest(ricci(space)(batch)[0])
    return Finding(
        id="example-curvature-cases",
        claim=(
            "case analysis of nonzero curvature components for the example "
            "metric (built on the printed off-diagonal Christoffel entries)"
        ),
        measurement={
            "max_abs_curvature": worst,
            "max_abs_ricci": ric_worst,
            "note": (
                "with the standard symbols the example metric is flat, so the "
                "printed nonzero curvature cases cannot arise"
            ),
        },
        verdict="discrepancy",
    )


def _calf_table_finding(chart, affinor, sigma, points) -> Finding:
    batch = PointBatch(points)
    F = affinor.value(batch)
    s = sigma.value(batch)
    calF = calF_jet(affinor, sigma, batch)[0]
    sigma3 = s[:, 2]
    table = np.zeros(calF.shape)
    for i in range(3):
        table[:, i, 2, i] = F[:, i, i] * sigma3
        table[:, i, i, 2] = F[:, i, i] * sigma3
    table[:, 2, 2, 2] = 2.0 * F[:, 2, 2] * sigma3
    worst_table = _largest(calF - table)
    trace = nu_jet(affinor, sigma, batch)[0]
    tr = F[:, 0, 0] + F[:, 1, 1] + F[:, 2, 2]
    closed = np.stack([tr * s[:, j] + F[:, j, j] * s[:, j] for j in range(3)], axis=1)
    worst_trace = _largest(trace - closed)
    spot = {
        "calF_3_33_at_(1,2,3)": 2.0 * 3.0 * math.log(15.0),
        "calF_1_13_at_(1,2,3)": math.sin(1.0) * math.log(15.0),
    }
    return Finding(
        id="fcal-tables",
        claim="piecewise table for calF^i_{jk} and its trace calF^a_{ja}",
        measurement={
            "table_max_residual": worst_table,
            "trace_max_residual": worst_trace,
            "spot_values": spot,
        },
        verdict="confirmed",
    )


def _omega_square_finding(chart, rng, points) -> Finding:
    # each draw's values are read on its own batch, which dies with its spec;
    # then omega, the direct contraction and the expansion run once over the
    # (draws, points) leading axes, each draw's residual the bits of its own
    s_values, values = [], []
    for _ in range(50):
        spec = random_omega_spec(chart, rng)
        s_values.append(spec.s.as_tuple())
        values.append(spec.values(PointBatch(points[:3])))
    s = tuple(np.array(s_values).T[:, :, None])  # each s-value (draws, 1)
    fields = [np.stack(draws) for draws in zip(*values)]
    w = omega_arrays(s, *fields)
    direct = np.einsum("...ajm,...ian->...ijmn", w, w)
    worst = _largest(direct - omega_square_arrays(s, *fields))
    return Finding(
        id="omega-square-expansion",
        claim="term-by-term expansion of omega^a_{jm} omega^i_{an}",
        measurement={"max_residual_50_specs": worst},
        verdict="confirmed",
    )


def _weyl_modes_finding(chart, rng, points) -> Finding:
    worst = 0.0
    for _ in range(10):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        batch = PointBatch(points[:3])
        direct = basic_weyl(space, spec, MODE_DIRECT)(batch)
        structured = basic_weyl(space, spec, MODE_STRUCTURED)(batch)
        worst = max(worst, _largest(direct - structured))
    return Finding(
        id="basic-weyl-direct-vs-structured",
        claim="the zeta/D regrouping of the basic Weyl invariant equals the direct substitution",
        measurement={"max_residual": worst},
        verdict="confirmed",
    )


def _weyl_correlation_residual(space, spec, point) -> np.ndarray:
    """The chain's ``final`` minus W(Lambda') + d^i_j A_mn / (N+1)
    - (d^i_m B_jn - d^i_n B_jm) / (N^2-1) (Lambda' = L - omega without rho,
    A_mn = D^a_{amn} - D^a_{anm}, B_jm = (N+1) (D^a_{jma} - D^a_{jam}) + A_jm),
    which vanishes under the shipped Ricci convention."""
    final = derived_weyl_chain(space, spec, RICCI_LAST).final(point)
    d = dee(space, spec)(point)  # the D the chain read, from the batch's cache
    trace = _alt(np.einsum("...aamn->...mn", d))
    mix = np.einsum("...ajma->...jm", d) - np.einsum("...ajam->...jm", d)
    n = space.dim
    out = final - weyl(reduced_space(space, spec, rho=False), RICCI_LAST)(point)
    out -= delta_product("ij,mn->ijmn", trace) / (n + 1)
    return out + delta_bracket((n + 1) * mix + trace) / (n * n - 1)


def _correlation_finding(chart, rng, points) -> Finding:
    worst_t = 0.0
    worst_w = 0.0
    for _ in range(10):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        batch = PointBatch(points[:2])
        residual = derived_thomas_correlation_residual(space, spec)(batch)
        worst_t = max(worst_t, _largest(residual))
        worst_w = max(worst_w, _largest(_weyl_correlation_residual(space, spec, batch)))
    return Finding(
        id="correlation-identities",
        claim="derived invariants relate to the classical Thomas parameter and Weyl tensor by the printed correlation identities",
        measurement={"thomas_max_residual": worst_t, "weyl_max_residual": worst_w},
        verdict="confirmed",
    )


def _derived_thomas_general_s_finding(chart, rng, points) -> Finding:
    space = random_connection_space(chart, rng)
    s = SValues(0.7, -0.4, 0.9)  # s1 outside {0, 1}
    mapping = random_mapping(chart, rng, s)
    target = apply_mapping(space, mapping)
    # the variant whose delta-trace correction carries 1/(N+1) for s1/(N+1):
    # s1 enters the derived Thomas invariant only through that coefficient
    unit_s = dataclasses.replace(s, s1=1.0)
    unit_src = dataclasses.replace(mapping.omega_src, s=unit_s)
    unit_tgt = dataclasses.replace(mapping.omega_tgt, s=unit_s)
    evaluators = {
        "printed": (
            derived_thomas(space, mapping.omega_src),
            derived_thomas(target, mapping.omega_tgt),
        ),
        "unit": (derived_thomas(space, unit_src), derived_thomas(target, unit_tgt)),
    }
    batch = PointBatch(points[:5])
    worst = {
        key: _largest(eval_src(batch) - eval_tgt(batch))
        for key, (eval_src, eval_tgt) in evaluators.items()
    }
    return Finding(
        id="derived-thomas-s1-coefficient",
        claim="the derived Thomas invariant (outer trace coefficient s1/(N+1)) is invariant for arbitrary s",
        measurement={
            "s": list(s.as_tuple()),
            "printed_form_max_discrepancy": worst["printed"],
            "unit_coefficient_variant_max_discrepancy": worst["unit"],
            "note": (
                "as printed the object is invariant only for s1 in {0, 1} "
                "(all uses in the source have s1 = 1); replacing the outer "
                "coefficient s1/(N+1) by 1/(N+1) restores invariance for all s"
            ),
        },
        verdict="discrepancy",
    )


def _theorem2_general_finding(chart, rng, points, convention) -> Finding:
    space = random_connection_space(chart, rng)
    mapping = random_mapping(chart, rng, SValues(1.0, -0.6, 0.8))
    target = apply_mapping(space, mapping)
    report = verify_invariance(
        space, target, mapping, points[:6], tol=1e-10, convention=convention
    )
    chain_names = (
        "basic_thomas",
        "basic_weyl_direct",
        "weyl_first_printed",
        "weyl_first_corrected",
        "weyl_second",
        "weyl_final",
    )
    measurement = {name: report.row(name).max_discrepancy for name in chain_names}
    measurement["note"] = (
        "the final derived Weyl object drops D-trace terms that are not "
        "themselves invariant; only the sign-corrected first stage of the "
        "chain survives a general omega pair"
    )
    return Finding(
        id="theorem2-general-omega",
        claim="the derived Weyl invariant (final form) is invariant for fully general omega pairs",
        measurement=measurement,
        verdict="discrepancy",
    )


def _weyl_first_sign_finding(chart, rng, points) -> Finding:
    space = random_connection_space(chart, rng)
    spec = random_omega_spec(chart, rng, SValues(1.0, 0.5, -0.7))
    chain = derived_weyl_chain(space, spec)
    batch = PointBatch(points[:4])
    gap = _largest(chain.first_printed(batch) - chain.first_corrected(batch))
    return Finding(
        id="weyl-first-stage-trace-sign",
        claim="sign of the delta-weighted D^a_{a[..]} trace terms in the first chained Weyl invariant",
        measurement={
            "printed_vs_corrected_max_gap": gap,
            "note": (
                "re-deriving the (i, n) contraction flips the sign of the "
                "D^a_{a[..]} terms; the corrected form is exactly invariant "
                "(see theorem2-general-omega measurements)"
            ),
        },
        verdict="discrepancy",
    )


def _fplanar_readings_finding(example_space, fspec, points, convention) -> Finding:
    target = fplanar_build(example_space, fspec)
    src_set = fplanar_invariants(example_space, fspec.F, fspec.sigma, convention)
    tgt_sets = {
        label: fplanar_invariants(target, fspec.F, scale_field(fspec.sigma, scale), convention)
        for label, scale in (("-sigma", -1.0), ("+sigma", 1.0), ("3sigma", 3.0))
    }
    keys = ("thomas", "wbasic", "wderived")
    # one batch, so the readings share the spaces' results in its cache
    batch = PointBatch(points[:6])
    readings = {
        f"target_sigma={label}": {
            key: _largest(src_set[key](batch) - tgt_set[key](batch)) for key in keys
        }
        for label, tgt_set in tgt_sets.items()
    }
    return Finding(
        id="fplanar-invariance-readings",
        claim=(
            "the three specialized F-planar objects (Thomas type, basic Weyl "
            "type, derived Weyl type) are invariant under the worked example mapping"
        ),
        measurement={
            "discrepancies": readings,
            "note": (
                "the Thomas-type object is invariant once the target sigma-field "
                "is tripled (forced by the deformation equation); the two "
                "Weyl-type printed objects fail under every sigma reading "
                "because the dropped trace terms are sigma-odd"
            ),
        },
        verdict="discrepancy",
    )


def _fplanar_reduction_findings(example_space, fspec, points) -> list[Finding]:
    mapping = fplanar_as_omega(example_space, fspec)
    spec = mapping.omega_src
    printed = fplanar_invariants(example_space, fspec.F, fspec.sigma)
    gen_zeta = zeta(example_space, spec)
    gen_dee = dee(example_space, spec)
    gen_weyl = basic_weyl(example_space, spec, MODE_STRUCTURED)
    batch = PointBatch(points[:6])
    zeta_gap = _largest(printed["zeta"](batch) - gen_zeta(batch))
    dee_gap = _largest(printed["dee"](batch) - gen_dee(batch))
    wbasic_gap = _largest(printed["wbasic"](batch) - gen_weyl(batch))
    return [
        Finding(
            id="fplanar-zeta-reduction",
            claim="the printed F-planar zeta expansion equals the general zeta with the trace-gauge rho",
            measurement={
                "max_gap": zeta_gap,
                "note": (
                    "the printed expansion carries 1/(2(N+1)) on the "
                    "trace-times-nu cross terms where the rho product yields "
                    "1/(2(N+1)^2), and drops sigma-squared groups"
                ),
            },
            verdict="discrepancy",
        ),
        Finding(
            id="fplanar-dee-reduction",
            claim="for the F-planar case D reduces to the pure covariant-derivative term",
            measurement={
                "max_gap": dee_gap,
                "note": (
                    "the reduction drops the s2^2 quadratic group, which is "
                    "not invariant across the omega pair realizing the mapping"
                ),
            },
            verdict="discrepancy",
        ),
        Finding(
            id="fplanar-wbasic-reduction",
            claim="the printed specialized basic Weyl object equals the general structured assembly",
            measurement={"max_gap": wbasic_gap},
            verdict="discrepancy",
        ),
    ]


def _index_typo_finding() -> Finding:
    return Finding(
        id="trace-equation-index-reading",
        claim="the rho-difference and psi trace equations as printed",
        measurement={
            "note": (
                "both equations carry free indices (k, respectively i and k) "
                "inside j-indexed equations; they are implemented with the "
                "trace reading F^a_j sigma_a + F^a_a sigma_j, which "
                "reproduces the worked example and closes the round trips"
            )
        },
        verdict="info",
    )


def run_paper_audit(seed: int = 0, convention: str = RICCI_LAST) -> list[Finding]:
    """Run every audit check; returns the findings in report order."""
    rng = np.random.default_rng(seed)
    job = builtin_config("example-r3")
    chart = job.chart
    example_space = job.build_space()
    fspec = job.mapping()
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=seed + 1)

    findings = [
        _christoffel_table_finding(example_space, chart, points),
        _curvature_flat_finding(example_space, points),
        _calf_table_finding(chart, fspec.F, fspec.sigma, points),
        _omega_square_finding(chart, rng, points),
        _weyl_modes_finding(chart, rng, points),
        _correlation_finding(chart, rng, points),
        _derived_thomas_general_s_finding(chart, rng, points),
        _theorem2_general_finding(chart, rng, points, convention),
        _weyl_first_sign_finding(chart, rng, points),
        _fplanar_readings_finding(example_space, fspec, points, convention),
    ]
    findings.extend(_fplanar_reduction_findings(example_space, fspec, points))
    findings.append(_index_typo_finding())
    return findings
