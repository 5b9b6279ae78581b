"""Construct mapped spaces and verify invariance numerically.

A mapping is specified by an omega pair (source and target OmegaSpec sharing
the same s-values); the target connection is Lsym + (omega_bar - omega), plus
an optional torsion difference.  F-planar mappings get dedicated builders:

    Lbar^i_{jk} = L^i_{jk} + d^i_k psi_j + d^i_j psi_k + F^i_k sigma_j + F^i_j sigma_k.

The omega pair used by the verifier for an F-planar mapping is the unique
s = (1, 1/2, 0) split compatible with the deformation equation when the
source carries the mapping's own sigma:

    source: rho_j = (L^a_{ja} + (F sigma_j + F^a_j sigma_a) / 2) / (N + 1),
            sigma-field = sigma;
    target: rho_bar = rho + psi, sigma-field = 3 sigma.

The tripled target sigma is forced by (omega_bar - omega) having to equal the
deformation; with the target carrying -sigma instead, no s = (1, 1/2, 0)
split exists because the delta-psi and F-sigma blocks are linearly
independent.  The -sigma relation remains the defining data of the inverse
mapping (see :func:`fplanar_inverse`), and the audit report measures both
readings.

Verification is pointwise-numeric at seeded pseudorandom points inside a box
that avoids coordinate singularities; jet-exact derivatives make random-point
sampling a sound falsifier of the field identities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Chart
from .geometry import (
    RICCI_LAST,
    Space,
    covariant_derivative_arrays,
    curvature_arrays,
    ricci_arrays,
    thomas,
    weyl,
    weyl_arrays,
)
from .invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    OmegaSpec,
    SValues,
    basic_thomas,
    basic_weyl,
    calF_jet,
    derived_thomas,
    derived_weyl_chain,
    nu_jet,
    omega_jet,
)
from .tensor import LastPointMemo, PointField, add_fields, scale_field

__all__ = [
    "MappingSpec",
    "FPlanarSpec",
    "apply_mapping",
    "fplanar_build",
    "fplanar_inverse",
    "fplanar_as_omega",
    "fplanar_rho_field",
    "fplanar_recover",
    "fplanar_invariants",
    "InvarianceReport",
    "verify_invariance",
    "sample_points",
    "GENERAL_INVARIANTS",
    "FPLANAR_INVARIANTS",
]

GENERAL_INVARIANTS = (
    "classical_thomas",
    "classical_weyl",
    "basic_thomas",
    "basic_weyl_direct",
    "basic_weyl_structured",
    "derived_thomas",
    "weyl_first_printed",
    "weyl_first_corrected",
    "weyl_second",
    "weyl_final",
)

FPLANAR_INVARIANTS = (
    "fplanar_thomas",
    "fplanar_wbasic",
    "fplanar_wderived",
)


@dataclass
class MappingSpec:
    """Omega pair of a geometric mapping; both specs share the s-values."""

    omega_src: OmegaSpec
    omega_tgt: OmegaSpec
    torsion_delta: object = None

    def __post_init__(self):
        if self.omega_src.s != self.omega_tgt.s:
            raise ValueError("source and target omega must share s1, s2, s3")

    def swapped(self) -> "MappingSpec":
        delta = None
        if self.torsion_delta is not None:
            delta = scale_field(self.torsion_delta, -1.0)
        return MappingSpec(self.omega_tgt, self.omega_src, delta)


@dataclass
class FPlanarSpec:
    """Defining 1-forms and affinor of an F-planar mapping."""

    psi: object
    sigma: object
    F: object


def _deformation_field(mapping: MappingSpec) -> PointField:
    chart = mapping.omega_src.chart

    def fn(point):
        w_src, dw_src = omega_jet(mapping.omega_src, point)
        w_tgt, dw_tgt = omega_jet(mapping.omega_tgt, point)
        return w_tgt - w_src, dw_tgt - dw_src

    return PointField(chart, "ull", fn)


def apply_mapping(source: Space, mapping: MappingSpec) -> Space:
    """Target space with Lbar = L + (omega_bar - omega) (+ torsion delta)."""
    if mapping.omega_src.chart != source.chart:
        raise ValueError("mapping fields live on a different chart than the space")
    return source.deformed(_deformation_field(mapping), mapping.torsion_delta)


def _fplanar_deformation(f: FPlanarSpec, chart: Chart) -> PointField:
    n = chart.dim

    def fn(point):
        psi, dpsi = f.psi.jet(point)
        calF, dcalF = calF_jet(f.F, f.sigma, point)
        delta = np.eye(n)
        value = np.einsum("ik,j->ijk", delta, psi) + np.einsum("ij,k->ijk", delta, psi)
        grad = np.einsum("ik,jn->ijkn", delta, dpsi) + np.einsum("ij,kn->ijkn", delta, dpsi)
        return value + calF, grad + dcalF

    return PointField(chart, "ull", fn)


def fplanar_build(source: Space, f: FPlanarSpec) -> Space:
    """Target space of the F-planar mapping with the given defining data."""
    return source.deformed(_fplanar_deformation(f, source.chart))


def fplanar_inverse(f: FPlanarSpec) -> FPlanarSpec:
    """Defining data of the inverse mapping: (F, -sigma, -psi)."""
    return FPlanarSpec(
        psi=scale_field(f.psi, -1.0),
        sigma=scale_field(f.sigma, -1.0),
        F=f.F,
    )


def fplanar_rho_field(space: Space, F, sigma, sign: float = 1.0) -> PointField:
    """rho_j = (L^a_{ja} + sign * (F sigma_j + F^a_j sigma_a) / 2) / (N + 1)."""
    chart = space.chart
    n = chart.dim

    def fn(point):
        conn, dconn = space.connection_jet(point)
        trace = np.einsum("aja->j", conn)
        dtrace = np.einsum("ajan->jn", dconn)
        nu, dnu = nu_jet(F, sigma, point)
        value = (trace + 0.5 * sign * nu) / (n + 1)
        grad = (dtrace + 0.5 * sign * dnu) / (n + 1)
        return value, grad

    return PointField(chart, "l", fn)


def fplanar_as_omega(source: Space, f: FPlanarSpec) -> MappingSpec:
    """The s = (1, 1/2, 0) omega pair realizing the F-planar deformation."""
    chart = source.chart
    s = SValues(1.0, 0.5, 0.0)
    rho = fplanar_rho_field(source, f.F, f.sigma)
    rho_bar = add_fields(rho, f.psi)
    spec_src = OmegaSpec(chart, s, rho=rho, sigma=f.sigma, F=f.F)
    spec_tgt = OmegaSpec(chart, s, rho=rho_bar, sigma=scale_field(f.sigma, 3.0), F=f.F)
    return MappingSpec(spec_src, spec_tgt)


def fplanar_recover(source: Space, target: Space, F, sigma, points, tol: float = 1e-8):
    """Recover the psi 1-form (and the trace-gauge rho) from two spaces.

    psi_j = (Lbar^a_{ja} - L^a_{ja} - F sigma_j - F^a_j sigma_a) / (N + 1),
    obtained from the trace of the defining equation with the inverse data
    (F, -sigma) on the barred side.  Raises if the recovered psi fails to
    reproduce the target connection within `tol` (not F-planar-related).
    """
    chart = source.chart
    n = chart.dim

    def psi_fn(point):
        conn_s, dconn_s = source.connection_jet(point)
        conn_t, dconn_t = target.connection_jet(point)
        nu, dnu = nu_jet(F, sigma, point)
        value = (np.einsum("aja->j", conn_t) - np.einsum("aja->j", conn_s) - nu) / (n + 1)
        grad = (np.einsum("ajan->jn", dconn_t) - np.einsum("ajan->jn", dconn_s) - dnu) / (
            n + 1
        )
        return value, grad

    psi = PointField(chart, "l", psi_fn)
    rho = fplanar_rho_field(source, F, sigma)
    rebuilt = fplanar_build(source, FPlanarSpec(psi=psi, sigma=sigma, F=F))
    worst = 0.0
    for point in points:
        residual = np.max(np.abs(rebuilt.connection(point) - target.connection(point)))
        worst = max(worst, residual)
    if worst > tol:
        raise ValueError(
            f"target is not F-planar-related to source with the given F, sigma "
            f"(max connection residual {worst:.3e})"
        )
    return psi, rho


# ---------------------------------------------------------------------------
# specialized F-planar invariant assemblies (printed single-mapping formulas)
# ---------------------------------------------------------------------------

def _fplanar_pieces(space: Space, F, sigma, point):
    conn, dconn = space.connection_jet(point)
    calF, dcalF = calF_jet(F, sigma, point)
    nu, dnu = nu_jet(F, sigma, point)
    return conn, dconn, F.jet(point)[0], sigma.jet(point)[0], calF, dcalF, nu, dnu


def fplanar_invariants(space: Space, F, sigma, convention: str = RICCI_LAST):
    """Per-space evaluators for the specialized F-planar assemblies.

    Returns a dict with keys 'thomas', 'zeta', 'dee', 'wbasic', 'wderived'.
    These follow the printed reductions; for the verifier, each space is
    evaluated with its own sigma-field from the omega split.
    """
    n = space.dim
    delta = np.eye(n)
    # shared by the evaluators below, so each point assembles them once
    pieces = LastPointMemo(lambda point: _fplanar_pieces(space, F, sigma, point))

    def thomas_eval(point) -> np.ndarray:
        conn, _, _, _, calF, _, nu, _ = pieces(point)
        trace = np.einsum("aja->j", conn)
        reduced = trace - 0.5 * nu
        out = conn - 0.5 * calF
        out -= (
            np.einsum("ij,k->ijk", delta, reduced) + np.einsum("ik,j->ijk", delta, reduced)
        ) / (n + 1)
        return out

    def dee_eval(point) -> np.ndarray:
        conn, _, _, _, calF, dcalF, _, _ = pieces(point)
        return -0.5 * covariant_derivative_arrays(calF, dcalF, "ull", conn)

    def zeta_eval(point) -> np.ndarray:
        conn, dconn, Fv, sv, _, _, nu, dnu = pieces(point)
        trace = np.einsum("aja->j", conn)
        dtrace = np.einsum("ajan->jn", dconn)
        trace_cov = covariant_derivative_arrays(trace, dtrace, "l", conn)
        nu_cov = covariant_derivative_arrays(nu, dnu, "l", conn)
        FTA = Fv.T @ trace  # L^b_{ab} F^a_i
        out = trace_cov / (n + 1)
        out += np.outer(trace, trace) / ((n + 1) * (n + 1))
        out += (np.outer(FTA, sv) + np.outer(sv, FTA)) / (2 * (n + 1))
        out += (nu_cov + np.outer(trace, nu) + np.outer(nu, trace)) / (2 * (n + 1))
        return out

    def wbasic_eval(point) -> np.ndarray:
        conn, dconn, _, _, calF, dcalF, _, _ = pieces(point)
        riemann = curvature_arrays(conn, dconn)
        ric = ricci_arrays(riemann, convention)
        calF_cov = covariant_derivative_arrays(calF, dcalF, "ull", conn)
        z = zeta_eval(point)
        out = riemann + np.einsum("ij,mn->ijmn", delta, ric - ric.T) / (n + 1)
        out -= 0.5 * (calF_cov - calF_cov.transpose(0, 1, 3, 2))
        out -= np.einsum("im,jn->ijmn", delta, z) - np.einsum("in,jm->ijmn", delta, z)
        return out

    def wderived_eval(point) -> np.ndarray:
        conn, dconn, _, _, calF, dcalF, _, _ = pieces(point)
        riemann = curvature_arrays(conn, dconn)
        w = weyl_arrays(riemann, ricci_arrays(riemann, convention))
        calF_cov = covariant_derivative_arrays(calF, dcalF, "ull", conn)
        return w - 0.5 * (calF_cov - calF_cov.transpose(0, 1, 3, 2))

    return {
        "thomas": thomas_eval,
        "zeta": zeta_eval,
        "dee": dee_eval,
        "wbasic": wbasic_eval,
        "wderived": wderived_eval,
    }


# ---------------------------------------------------------------------------
# invariance verification
# ---------------------------------------------------------------------------

@dataclass
class InvarianceRow:
    name: str
    discrepancies: list[tuple[tuple, float]]
    tol: float

    @property
    def max_discrepancy(self) -> float:
        """Largest per-point discrepancy; NaN if any point gave NaN (np.max
        propagates it, where the builtin max drops it after the first item)."""
        if not self.discrepancies:
            return 0.0
        return float(np.max([d for _, d in self.discrepancies]))

    @property
    def finite(self) -> bool:
        return math.isfinite(self.max_discrepancy)

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tol  # False for NaN and inf


@dataclass
class InvarianceReport:
    rows: list[InvarianceRow] = field(default_factory=list)
    tol: float = 1e-8

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def row(self, name: str) -> InvarianceRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "invariants": [_row_dict(row) for row in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        width = max((len(row.name) for row in self.rows), default=10)
        lines = [f"{'invariant'.ljust(width)}  {'max disc':>12}  verdict"]
        for row in self.rows:
            verdict = "PASS" if row.passed else "FAIL"
            worst = f"{row.max_discrepancy:>12.3e}" if row.finite else f"{'non-finite':>12}"
            lines.append(f"{row.name.ljust(width)}  {worst}  {verdict}")
        lines.append(f"tolerance {self.tol:g}; overall {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _row_dict(row: InvarianceRow) -> dict:
    out = {"name": row.name, "max_discrepancy": row.max_discrepancy, "passed": row.passed}
    if not row.finite:
        out["non_finite"] = True
    out["points"] = [
        {"point": list(point), "discrepancy": disc} for point, disc in row.discrepancies
    ]
    return out


def sample_points(box, count: int, seed: int) -> list[tuple]:
    """Seeded uniform points inside the per-coordinate box [[lo, hi], ...]."""
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    return [tuple(lo + rng.random(len(box)) * (hi - lo)) for _ in range(count)]


def _evaluator_pairs(source, target, mapping, convention):
    """name -> (eval in source, eval in target) for every known invariant."""
    pairs: dict[str, tuple] = {}
    pairs["classical_thomas"] = (thomas(source), thomas(target))
    pairs["classical_weyl"] = (weyl(source, convention), weyl(target, convention))
    if mapping is not None:
        w_src, w_tgt = mapping.omega_src, mapping.omega_tgt
        pairs["basic_thomas"] = (basic_thomas(source, w_src), basic_thomas(target, w_tgt))
        pairs["basic_weyl_direct"] = (
            basic_weyl(source, w_src, MODE_DIRECT),
            basic_weyl(target, w_tgt, MODE_DIRECT),
        )
        pairs["basic_weyl_structured"] = (
            basic_weyl(source, w_src, MODE_STRUCTURED),
            basic_weyl(target, w_tgt, MODE_STRUCTURED),
        )
        pairs["derived_thomas"] = (
            derived_thomas(source, w_src),
            derived_thomas(target, w_tgt),
        )
        chain_src = derived_weyl_chain(source, w_src, convention)
        chain_tgt = derived_weyl_chain(target, w_tgt, convention)
        pairs["weyl_first_printed"] = (chain_src.first_printed, chain_tgt.first_printed)
        pairs["weyl_first_corrected"] = (chain_src.first_corrected, chain_tgt.first_corrected)
        pairs["weyl_second"] = (chain_src.second, chain_tgt.second)
        pairs["weyl_final"] = (chain_src.final, chain_tgt.final)
    return pairs


def _fplanar_pairs(source, target, mapping: MappingSpec, convention):
    src_set = fplanar_invariants(
        source, mapping.omega_src.F, mapping.omega_src.sigma, convention
    )
    tgt_set = fplanar_invariants(
        target, mapping.omega_tgt.F, mapping.omega_tgt.sigma, convention
    )
    return {
        "fplanar_thomas": (src_set["thomas"], tgt_set["thomas"]),
        "fplanar_wbasic": (src_set["wbasic"], tgt_set["wbasic"]),
        "fplanar_wderived": (src_set["wderived"], tgt_set["wderived"]),
    }


def verify_invariance(
    source: Space,
    target: Space,
    mapping,
    points,
    invariants=None,
    tol: float = 1e-8,
    convention: str = RICCI_LAST,
) -> InvarianceReport:
    """Evaluate each requested invariant in both spaces and report the
    per-point maximum absolute discrepancy.

    `mapping` is a MappingSpec, an FPlanarSpec, or None (classical set only).
    """
    fplanar_extra = {}
    if isinstance(mapping, FPlanarSpec):
        mspec = fplanar_as_omega(source, mapping)
        fplanar_extra = _fplanar_pairs(source, target, mspec, convention)
    else:
        mspec = mapping
    pairs = _evaluator_pairs(source, target, mspec, convention)
    pairs.update(fplanar_extra)
    if invariants is None:
        names = list(pairs)
    else:
        unknown = [name for name in invariants if name not in pairs]
        if unknown:
            raise ValueError(f"unknown invariants: {unknown}")
        names = list(invariants)

    # point-major: every requested invariant at one point before the next
    # point, so the last-point memos of fields, spaces and evaluators hit
    evaluators = [pairs[name] for name in names]
    per_row: list[list] = [[] for _ in names]
    for point in points:
        key = tuple(point)
        for (eval_src, eval_tgt), rows in zip(evaluators, per_row):
            disc = float(np.max(np.abs(eval_src(point) - eval_tgt(point))))
            rows.append((key, disc))
    return InvarianceReport(
        [InvarianceRow(name, rows, tol) for name, rows in zip(names, per_row)], tol
    )
