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
mapping, (F, -sigma, -psi), and the audit report measures both readings.
The F-planar Thomas object is the Thomas parameter of the reduced
connection L - calF/2 (``invariants.reduced_space`` at this split); the
printed Weyl-type reductions are assembled from their formulas.

Verification is pointwise-numeric at seeded pseudorandom points inside a box
that avoids coordinate singularities; jet-exact derivatives make random-point
sampling a sound falsifier of the field identities.  The verifier evaluates
the points in blocks (``tensor.PointBatch``) whose size follows from a byte
budget, and each point's discrepancy is bit-identical to its evaluation
alone.  Each block is cut from one batch of all the points, its run, so an
expression field jets a span of several blocks in one pass
(``tensor.TensorField``); what the rows share lives in the block's cache.  A
block that raises, in its own rows or in a later block of a field's span, is
redone one point at a time, each point one batch for every row, so the error
is the one its first failing point raises alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .expr import ExprError
from .geometry import (
    RICCI_LAST,
    SingularMetricError,
    Space,
    _alt,
    covariant_derivative_arrays,
    curvature,
    delta_bracket,
    ricci,
    thomas,
    weyl,
)
from .invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    OmegaSpec,
    SValues,
    _delta_pair_jet,
    basic_thomas,
    basic_weyl,
    calF_jet,
    derived_thomas,
    derived_weyl_chain,
    nu_jet,
    omega_jet,
    reduced_space,
)
from .tensor import (
    PointBatch,
    PointField,
    add_fields,
    batch_shape,
    contract,
    delta_product,
    memo,
    scale_field,
)

__all__ = [
    "MappingSpec",
    "FPlanarSpec",
    "apply_mapping",
    "fplanar_build",
    "fplanar_as_omega",
    "fplanar_rho_field",
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


def fplanar_build(source: Space, f: FPlanarSpec) -> Space:
    """Target space of the F-planar mapping with the given defining data."""

    def fn(point):
        psi_pair, dpsi_pair = _delta_pair_jet(f.psi, point)
        calF, dcalF = calF_jet(f.F, f.sigma, point)
        return psi_pair + calF, dpsi_pair + dcalF

    return source.deformed(PointField(source.chart, "ull", fn))


def fplanar_rho_field(space: Space, F, sigma, sign: float = 1.0) -> PointField:
    """rho_j = (L^a_{ja} + sign * (F sigma_j + F^a_j sigma_a) / 2) / (N + 1), once per batch."""
    chart = space.chart
    n = chart.dim

    def fn(point):
        conn, dconn = space.connection_jet(point)
        trace = np.einsum("...aja->...j", conn)
        dtrace = np.einsum("...ajan->...jn", dconn)
        nu, dnu = nu_jet(F, sigma, point)
        value = (trace + 0.5 * sign * nu) / (n + 1)
        grad = (dtrace + 0.5 * sign * dnu) / (n + 1)
        return value, grad

    return PointField(chart, "l", partial(memo, key=fn, fn=fn))


def fplanar_as_omega(source: Space, f: FPlanarSpec) -> MappingSpec:
    """The s = (1, 1/2, 0) omega pair realizing the F-planar deformation."""
    chart = source.chart
    s = SValues(1.0, 0.5, 0.0)
    rho = fplanar_rho_field(source, f.F, f.sigma)
    rho_bar = add_fields(rho, f.psi)
    spec_src = OmegaSpec(chart, s, rho=rho, sigma=f.sigma, F=f.F)
    spec_tgt = OmegaSpec(chart, s, rho=rho_bar, sigma=scale_field(f.sigma, 3.0), F=f.F)
    return MappingSpec(spec_src, spec_tgt)


# ---------------------------------------------------------------------------
# specialized F-planar invariant assemblies (printed single-mapping formulas)
# ---------------------------------------------------------------------------

def _fplanar_pieces(space: Space, F, sigma, point):
    conn, dconn = space.connection_jet(point)
    calF, dcalF = calF_jet(F, sigma, point)
    calF_cov = covariant_derivative_arrays(calF, dcalF, "ull", conn)
    nu, dnu = nu_jet(F, sigma, point)
    return conn, dconn, F.jet(point)[0], sigma.jet(point)[0], calF_cov, nu, dnu


def fplanar_invariants(space: Space, F, sigma, convention: str = RICCI_LAST):
    """Per-space evaluators for the specialized F-planar assemblies.

    Returns a dict with keys 'thomas', 'zeta', 'dee', 'wbasic', 'wderived'.
    'thomas' is the Thomas parameter of L - calF/2, the others follow the
    printed reductions; for the verifier, each space is evaluated with its
    own sigma-field from the omega split.  The curvature, Ricci and Weyl
    tensors are the space's shared evaluators.
    """
    n = space.dim
    riemann, ric, classical = curvature(space), ricci(space, convention), weyl(space, convention)
    # shared by the evaluators below, so each batch assembles them once
    pieces_at = partial(_fplanar_pieces, space, F, sigma)
    pieces = partial(memo, key=pieces_at, fn=pieces_at)

    def dee_eval(point) -> np.ndarray:
        return -0.5 * pieces(point)[4]

    def zeta_eval(point) -> np.ndarray:
        conn, dconn, Fv, sv, _, nu, dnu = pieces(point)
        trace = np.einsum("...aja->...j", conn)
        dtrace = np.einsum("...ajan->...jn", dconn)
        trace_cov = covariant_derivative_arrays(trace, dtrace, "l", conn)
        nu_cov = covariant_derivative_arrays(nu, dnu, "l", conn)
        FTA = contract("ai,a->i", Fv, trace)  # L^b_{ab} F^a_i
        out = trace_cov / (n + 1)
        out += contract("i,j->ij", trace, trace) / ((n + 1) * (n + 1))
        out += (contract("i,j->ij", FTA, sv) + contract("i,j->ij", sv, FTA)) / (2 * (n + 1))
        out += (
            nu_cov + contract("i,j->ij", trace, nu) + contract("i,j->ij", nu, trace)
        ) / (2 * (n + 1))
        return out

    def wbasic_eval(point) -> np.ndarray:
        out = riemann(point) + delta_product("ij,mn->ijmn", ric(point)[1]) / (n + 1)
        out -= 0.5 * _alt(pieces(point)[4])
        out -= delta_bracket(zeta_eval(point))
        return out

    def wderived_eval(point) -> np.ndarray:
        return classical(point) - 0.5 * _alt(pieces(point)[4])

    split = OmegaSpec(space.chart, SValues(1.0, 0.5, 0.0), sigma=sigma, F=F)
    return {
        "thomas": thomas(reduced_space(space, split, rho=False)),
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

    @cached_property
    def max_discrepancy(self) -> float:
        """Largest per-point discrepancy, computed once per row; NaN if any
        point gave NaN (np.max propagates it, where the builtin max drops it
        after the first item)."""
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
        """The text of ``json.dumps(self.to_dict(), indent=2)``, written
        directly: ``indent`` selects json's pure-Python encoder, which costs
        more than the verdict on a report of a few thousand points.  The rows
        of a verify report share their point tuples, so each point's text is
        formatted once; it is keyed by identity, since equal points may print
        differently (0.0 and -0.0, 1 and 1.0)."""
        point_text: dict = {}
        rows = []
        for row in self.rows:
            head = [
                f'      "name": {json.dumps(row.name)}',
                f'      "max_discrepancy": {_json_number(row.max_discrepancy)}',
                f'      "passed": {_json_number(row.passed)}',
            ]
            if not row.finite:
                head.append('      "non_finite": true')
            entries = []
            for point, disc in row.discrepancies:
                text = point_text.get(id(point))
                if text is None:
                    text = point_text[id(point)] = _json_list(point, " " * 10)
                entries.append(
                    f'        {{\n          "point": {text},\n'
                    f'          "discrepancy": {_json_number(disc)}\n        }}'
                )
            head.append('      "points": ' + _json_block(entries, "      "))
            rows.append("    {\n" + ",\n".join(head) + "\n    }")
        return (
            f'{{\n  "tol": {_json_number(self.tol)},\n  "passed": {_json_number(self.passed)},\n'
            f'  "invariants": {_json_block(rows, "  ")}\n}}'
        )

    def to_text(self) -> str:
        width = max((len(row.name) for row in self.rows), default=10)
        lines = [f"{'invariant'.ljust(width)}  {'max disc':>12}  verdict"]
        for row in self.rows:
            verdict = "PASS" if row.passed else "FAIL"
            worst = f"{row.max_discrepancy:>12.3e}" if row.finite else f"{'non-finite':>12}"
            lines.append(f"{row.name.ljust(width)}  {worst}  {verdict}")
        lines.append(f"tolerance {self.tol:g}; overall {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _json_number(x) -> str:
    """`x` as json writes it: a float by ``float.__repr__`` (a float
    subclass such as np.float64 too), NaN and the infinities by name."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    return json.dumps(x)


def _json_block(items: list, indent: str) -> str:
    """A JSON list of already indented item texts, closed at `indent`."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_list(values, indent: str) -> str:
    """A JSON list of numbers whose bracket opens at `indent`."""
    return _json_block([indent + "  " + _json_number(x) for x in values], indent)


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

        def both(build, *args):
            return build(source, mapping.omega_src, *args), build(target, mapping.omega_tgt, *args)

        pairs["basic_thomas"] = both(basic_thomas)
        pairs["basic_weyl_direct"] = both(basic_weyl, MODE_DIRECT)
        pairs["basic_weyl_structured"] = both(basic_weyl, MODE_STRUCTURED)
        pairs["derived_thomas"] = both(derived_thomas)
        chain_src, chain_tgt = both(derived_weyl_chain, convention)
        pairs["weyl_first_printed"] = (chain_src.first_printed, chain_tgt.first_printed)
        pairs["weyl_first_corrected"] = (chain_src.first_corrected, chain_tgt.first_corrected)
        pairs["weyl_second"] = (chain_src.second, chain_tgt.second)
        pairs["weyl_final"] = (chain_src.final, chain_tgt.final)
    return pairs


def _fplanar_pairs(source, target, mapping: MappingSpec, convention):
    src_set, tgt_set = (
        fplanar_invariants(space, spec.F, spec.sigma, convention)
        for space, spec in ((source, mapping.omega_src), (target, mapping.omega_tgt))
    )
    return {
        f"fplanar_{key}": (src_set[key], tgt_set[key]) for key in ("thomas", "wbasic", "wderived")
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
    `points` must hold at least one point, each of ``source.dim`` finite
    coordinates; a ValueError names the first that does not.
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

    # block-major: every requested invariant on one block of points before
    # the next block, each result the rows share kept in the block's cache
    evaluators = [pairs[name] for name in names]
    per_row: list[list] = [[] for _ in names]
    points = _checked_points(points, source.dim)
    size = block_size(source.dim)
    for batch in PointBatch(points).blocks(size):
        block = points[batch.start : batch.start + size]
        try:
            discs = [_discrepancies(pair, batch) for pair in evaluators]
        except (ExprError, SingularMetricError):
            # one point at a time, so the error is the one the first failing
            # point raises on its own; each point is one batch for every row
            discs = [[] for _ in evaluators]
            for alone in map(PointBatch, block):
                for pair, found in zip(evaluators, discs):
                    found.extend(_discrepancies(pair, alone))
        for rows, found in zip(per_row, discs):
            rows.extend(zip(block, found))
    return InvarianceReport(
        [InvarianceRow(name, rows, tol) for name, rows in zip(names, per_row)], tol
    )


# bytes that one block may give an array of N^4 doubles (a curvature-sized
# array); the many such arrays alive at once during a block make up the
# extra memory verify holds
BLOCK_BYTES = 64 * 1024


def block_size(dim: int) -> int:
    """Points per verify block at chart dimension `dim`."""
    return max(1, BLOCK_BYTES // (8 * dim**4))


def _checked_points(points, dim: int) -> list[tuple]:
    """The points as tuples; a ValueError naming the first that does not
    have `dim` finite coordinates, or when there is none (an empty report
    would pass every row)."""
    if len(points) == 0:
        raise ValueError("verify needs at least one point")
    out = []
    for point in points:
        point = tuple(point)
        try:
            good = len(point) == dim and all(math.isfinite(x) for x in point)
        except TypeError:
            good = False
        if not good:
            raise ValueError(f"point {point!r} does not have {dim} finite coordinates")
        out.append(point)
    return out


def _discrepancies(pair, point) -> list[float]:
    """Per-point maximum absolute difference of the two evaluators at a
    point or batch."""
    eval_src, eval_tgt = pair
    gap = np.abs(eval_src(point) - eval_tgt(point))
    if batch_shape(point):
        return np.max(gap.reshape(len(point.array), -1), axis=1).tolist()
    return [float(np.max(gap))]
