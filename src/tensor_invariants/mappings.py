"""Construct mapped spaces and verify invariance numerically.

A mapping is specified by an omega pair (source and target OmegaSpec sharing
the same s-values); the target connection is Lsym + (omega_bar - omega).
F-planar mappings get dedicated builders:

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

Each verify row is declared once, in :data:`ROWS`, in report order: the
mapping it needs and the builder of its evaluator on one side from the space,
that side's omega spec and the Ricci convention.  Verify builds only the rows
it is asked for; what rows share is kept in a batch's cache under a key that
names it, so a row built alone computes nothing twice.

Verification is pointwise-numeric at seeded pseudorandom points inside a box
that avoids coordinate singularities; jet-exact derivatives make random-point
sampling a sound falsifier of the field identities.  The verifier and the
table commands walk their points through one loop, :func:`evaluate_points`,
over the blocks of one batch of all the points (``tensor.PointBatch``, which
sizes its blocks and an expression field's spans), and each point's result
is bit-identical to its evaluation alone; what the evaluators share lives in
the block's cache.  A block that raises, in its own rows or in a later
block of a field's span, is redone one point at a time from its first row,
each point one batch for every evaluator, only to find the first point that
raises alone: that error is the one raised, the same as ``--point`` gives.
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
    _batch,
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
    "UnknownInvariantError",
    "ROWS",
    "apply_mapping",
    "fplanar_build",
    "fplanar_as_omega",
    "fplanar_rho_field",
    "fplanar_invariants",
    "InvarianceReport",
    "verify_invariance",
    "evaluate_points",
    "sample_points",
]


class UnknownInvariantError(ValueError):
    """An invariant name that verify does not know for its mapping."""


@dataclass
class MappingSpec:
    """Omega pair of a geometric mapping; both specs share the s-values."""

    omega_src: OmegaSpec
    omega_tgt: OmegaSpec

    def __post_init__(self):
        if self.omega_src.s != self.omega_tgt.s:
            raise ValueError("source and target omega must share s1, s2, s3")


@dataclass
class FPlanarSpec:
    """Defining 1-forms and affinor of an F-planar mapping."""

    psi: object
    sigma: object
    F: object


_OMEGA = (MappingSpec, FPlanarSpec)  # the mappings that give an omega pair
FPLANAR_S = SValues(1.0, 0.5, 0.0)  # the s-values of the F-planar split


def _same_chart(source: Space, *fields) -> None:
    if any(field.chart != source.chart for field in fields):
        raise ValueError("mapping fields live on a different chart than the space")


def apply_mapping(source: Space, mapping: MappingSpec) -> Space:
    """Target space with Lbar = L + (omega_bar - omega)."""
    _same_chart(source, mapping.omega_src, mapping.omega_tgt)

    def delta(point):
        w_src, dw_src = omega_jet(mapping.omega_src, point)
        w_tgt, dw_tgt = omega_jet(mapping.omega_tgt, point)
        return w_tgt - w_src, dw_tgt - dw_src

    return source.deformed(delta)


def fplanar_build(source: Space, f: FPlanarSpec) -> Space:
    """Target space of the F-planar mapping with the given defining data."""
    _same_chart(source, f.psi, f.sigma, f.F)

    def delta(point):
        psi_pair, dpsi_pair = _delta_pair_jet(*f.psi.jet(point))
        calF, dcalF = calF_jet(f.F, f.sigma, point)
        return psi_pair + calF, dpsi_pair + dcalF

    return source.deformed(delta)


def fplanar_rho_field(space: Space, F, sigma) -> PointField:
    """rho_j = (L^a_{ja} + (F sigma_j + F^a_j sigma_a) / 2) / (N + 1), once per batch."""
    chart = space.chart
    n = chart.dim

    def fn(point):
        conn, dconn = space.connection_jet(point)
        trace = np.einsum("...aja->...j", conn)
        dtrace = np.einsum("...ajan->...jn", dconn)
        nu, dnu = nu_jet(F, sigma, point)
        value = (trace + 0.5 * nu) / (n + 1)
        grad = (dtrace + 0.5 * dnu) / (n + 1)
        return value, grad

    return PointField(chart, "l", partial(memo, key=("fplanar rho", space.key, F, sigma), fn=fn))


def fplanar_as_omega(source: Space, f: FPlanarSpec) -> MappingSpec:
    """The s = (1, 1/2, 0) omega pair realizing the F-planar deformation."""
    _same_chart(source, f.psi, f.sigma, f.F)
    chart = source.chart
    rho = fplanar_rho_field(source, f.F, f.sigma)
    rho_bar = add_fields(rho, f.psi)
    spec_src = OmegaSpec(chart, FPLANAR_S, rho=rho, sigma=f.sigma, F=f.F)
    spec_tgt = OmegaSpec(chart, FPLANAR_S, rho=rho_bar, sigma=scale_field(f.sigma, 3.0), F=f.F)
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
    pieces = partial(memo, key=("fplanar pieces", space.key, F, sigma), fn=pieces_at)

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
        point = _batch(point)  # one batch, so the parts share its cache
        out = riemann(point) + delta_product("ij,mn->ijmn", ric(point)[1]) / (n + 1)
        out -= 0.5 * _alt(pieces(point)[4])
        out -= delta_bracket(zeta_eval(point))
        return out

    def wderived_eval(point) -> np.ndarray:
        point = _batch(point)
        return classical(point) - 0.5 * _alt(pieces(point)[4])

    split = OmegaSpec(space.chart, FPLANAR_S, sigma=sigma, F=F)
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
        """The text of ``json.dumps(self.to_dict(), indent=2)``: the pieces
        of :meth:`json_pieces` joined."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The text of :meth:`to_json` in pieces, one per row, written
        directly: ``indent`` selects json's pure-Python encoder, which costs
        more than the verdict on a report of a few thousand points.  A writer
        that takes the pieces in turn holds one row's text at a time.  The
        rows of a verify report share their point tuples, so each point's text
        is formatted once; it is keyed by identity, since equal points may
        print differently (0.0 and -0.0, 1 and 1.0).  The report's
        discrepancies repeat too (rows that agree, zeros), so each distinct
        one is formatted once per report (:func:`_distinct_texts`), keyed by
        its 64-bit pattern: 0.0 and -0.0 are equal and hash alike, so a key
        by value would print one as the other."""
        head = f'{{\n  "tol": {_json_number(self.tol)},\n  "passed": {_json_number(self.passed)},\n'
        if not self.rows:
            yield head + '  "invariants": []\n}'
            return
        yield head + '  "invariants": [\n'
        point_text: dict = {}
        texts, index = _distinct_texts([d for row in self.rows for _, d in row.discrepancies])
        disc_text = map(texts.__getitem__, index)
        for k, row in enumerate(self.rows):
            fields = [f'      "{key}": {_json_number(x)}' for key, x in _row_head(row).items()]
            entries = []
            for (point, _), disc in zip(row.discrepancies, disc_text):  # this row's texts
                text = point_text.get(id(point))
                if text is None:
                    text = point_text[id(point)] = (
                        f'        {{\n          "point": {_json_list(point, " " * 10)},\n'
                        '          "discrepancy": '
                    )
                entries.append(text + disc + "\n        }")
            fields.append('      "points": ' + _json_block(entries, "      "))
            yield (",\n" if k else "") + "    {\n" + ",\n".join(fields) + "\n    }"
        yield "\n  ]\n}"

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


def _distinct_texts(values: list) -> tuple[list[str], list[int]]:
    """The texts of `values` as :func:`_json_number` writes them, one per
    distinct 64-bit pattern, and for each value the index of its text.  If
    one is not a float (an int in a row a caller built prints 0, not 0.0),
    every value gets a text of its own."""
    if not all(issubclass(kind, float) for kind in set(map(type, values))):
        return list(map(_json_number, values)), list(range(len(values)))
    bits, inverse = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    # float.__repr__ is _json_number's text of a finite float
    fmt = float.__repr__ if np.isfinite(distinct).all() else _json_number
    return list(map(fmt, distinct.tolist())), inverse.tolist()


def _json_block(items: list, indent: str) -> str:
    """A JSON list of already indented item texts, closed at `indent`."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_list(values, indent: str) -> str:
    """A JSON list of numbers whose bracket opens at `indent`."""
    return _json_block([indent + "  " + _json_number(x) for x in values], indent)


def _row_head(row: InvarianceRow) -> dict:
    """A report row's fields before its points: its name, worst discrepancy
    and verdict, and ``non_finite`` if a discrepancy is not finite."""
    head = {"name": row.name, "max_discrepancy": row.max_discrepancy, "passed": row.passed}
    if not row.finite:
        head["non_finite"] = True
    return head


def _row_dict(row: InvarianceRow) -> dict:
    out = _row_head(row)
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


def _chain_stage(stage: str):
    return lambda space, spec, conv: getattr(derived_weyl_chain(space, spec, conv), stage)


def _fplanar_row(key: str):
    return lambda space, spec, conv: fplanar_invariants(space, spec.F, spec.sigma, conv)[key]


# name -> (the mapping the row needs: any, an omega pair or F-planar, or
# F-planar; its builder), in report order.  A builder looks its functions
# up when called, so that it calls a module binding a caller has wrapped.
ROWS = {
    "classical_thomas": (object, lambda space, spec, conv: thomas(space)),
    "classical_weyl": (object, lambda space, spec, conv: weyl(space, conv)),
    "basic_thomas": (_OMEGA, lambda space, spec, conv: basic_thomas(space, spec)),
    "basic_weyl_direct": (_OMEGA, lambda space, spec, conv: basic_weyl(space, spec, MODE_DIRECT)),
    "basic_weyl_structured": (
        _OMEGA,
        lambda space, spec, conv: basic_weyl(space, spec, MODE_STRUCTURED),
    ),
    "derived_thomas": (_OMEGA, lambda space, spec, conv: derived_thomas(space, spec)),
    "weyl_first_printed": (_OMEGA, _chain_stage("first_printed")),
    "weyl_first_corrected": (_OMEGA, _chain_stage("first_corrected")),
    "weyl_second": (_OMEGA, _chain_stage("second")),
    "weyl_final": (_OMEGA, _chain_stage("final")),
    "fplanar_thomas": (FPlanarSpec, _fplanar_row("thomas")),
    "fplanar_wbasic": (FPlanarSpec, _fplanar_row("wbasic")),
    "fplanar_wderived": (FPlanarSpec, _fplanar_row("wderived")),
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

    `mapping` is a MappingSpec, an FPlanarSpec, or None; by default every
    row of :data:`ROWS` that it allows is reported.
    `points` must hold at least one point, each of ``source.dim`` finite
    coordinates, and `invariants` at least one known name; a ValueError
    names the first point that does not, an unknown name, and a tolerance
    that is not a finite, non-negative number.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite non-negative number, not {tol!r}")
    tol += 0.0  # -0.0 becomes 0.0, as in configs.tolerance
    known = [name for name, (needs, _) in ROWS.items() if isinstance(mapping, needs)]
    if isinstance(mapping, FPlanarSpec):
        mapping = fplanar_as_omega(source, mapping)
    names = list(known if invariants is None else invariants)
    unknown = [name for name in names if name not in known]
    if unknown:
        raise UnknownInvariantError(f"unknown invariants: {unknown}")
    if not names:
        raise ValueError("verify needs at least one invariant")  # no rows would PASS

    points = _checked_points(points, source.dim)
    specs = (None, None) if mapping is None else (mapping.omega_src, mapping.omega_tgt)
    sides = list(zip((source, target), specs))
    pairs = [[ROWS[name][1](space, spec, convention) for space, spec in sides] for name in names]
    found = evaluate_points([partial(_discrepancies, pair) for pair in pairs], points)
    rows = [list(zip(points, discs.tolist())) for discs in found]
    return InvarianceReport([InvarianceRow(name, r, tol) for name, r in zip(names, rows)], tol)


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


def evaluate_points(evaluators, points) -> list[np.ndarray]:
    """Each evaluator's results at `points` (a list of tuples), one array
    per evaluator whose leading axis runs over the points.  An evaluator maps
    a ``PointBatch`` to such an array (with no point axis for a batch made
    from one point).  The blocks and the point-by-point redo are those of
    the module docstring."""
    parts = [[] for _ in evaluators]
    for batch in PointBatch(points).blocks():
        try:
            for results, evaluate in zip(parts, evaluators):
                results.append(evaluate(batch))
        except (ExprError, SingularMetricError):
            for point in points[batch.start :]:
                alone = PointBatch(point)
                for evaluate in evaluators:
                    evaluate(alone)
            raise
    return [np.concatenate(results) for results in parts]


def _discrepancies(pair, point) -> np.ndarray:
    """Per-point maximum absolute difference of the two evaluators at a
    point or batch."""
    eval_src, eval_tgt = pair
    gap = np.abs(eval_src(point) - eval_tgt(point))
    return np.max(gap.reshape(batch_shape(point) + (-1,)), axis=-1)
