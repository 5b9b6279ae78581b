"""Affine connection spaces and the classical projective machinery.

A :class:`Space` is a chart together with connection coefficients
``L^i_{jk}``.  Non-symmetric coefficients are accepted but immediately split
into the symmetric part (used by everything downstream) and the torsion
(stored, unused by the invariant computations).  Spaces may come from an
explicit connection, from a metric (Levi-Civita), or from deforming another
space (geometric mappings).

Index layout for connection arrays: ``L[i, j, k]`` is ``L^i_{jk}`` and
``dL[i, j, k, n]`` is the partial ``L^i_{jk,n}``; the derivative axis is
always last.  The covariant derivative follows

    a^i_{j|k} = a^i_{j,k} + L^i_{ak} a^a_j - L^a_{jk} a^i_a,

extended to arbitrary rank with one +L term per upper slot and one -L term
per lower slot.

The curvature of the symmetric part is

    R^i_{jmn} = L^i_{jm,n} - L^i_{jn,m} + L^a_{jm} L^i_{an} - L^a_{jn} L^i_{am},

antisymmetric in (m, n).  Two Ricci contractions are supported: LAST
(``R_jm = R^a_{jma}``, the default) and MIDDLE (``R_jm = R^a_{jam}``).  The
shipped default is the one under which the geodesic-mapping invariance of the
projective Weyl tensor verifies numerically.
"""

from __future__ import annotations

import numpy as np

from .expr import Chart
from .tensor import LastPointMemo, PointField, TensorField, add_fields, zero_field

__all__ = [
    "SingularMetricError",
    "Space",
    "christoffel",
    "symmetrize_connection",
    "cov_deriv",
    "covariant_derivative_arrays",
    "curvature",
    "ricci",
    "thomas",
    "weyl",
    "riemannian_weyl",
    "RICCI_LAST",
    "RICCI_MIDDLE",
]

RICCI_LAST = "last"
RICCI_MIDDLE = "middle"

# largest accepted condition number of the metric; relative, so a rescaled
# metric is accepted or rejected alike
_COND_MAX = 1e12

_LETTERS = "abcdefgh"


class SingularMetricError(Exception):
    def __init__(self, point, cond):
        super().__init__(
            f"metric is singular at {tuple(point)} (condition number {cond:.3e})"
        )


class _MetricConnection:
    """Christoffel symbols of the second kind, assembled pointwise.

    The inverse metric is computed numerically per point (LU with partial
    pivoting via numpy.linalg); entries stay symbolic, jets are taken only
    at requested points.
    """

    def __init__(self, metric: TensorField):
        self.metric = metric

    def jets(self, point):
        g, dg, d2g = self.metric.jet2(point)
        try:
            ginv = np.linalg.inv(g)
            # 1-norm condition number, from the inverse needed anyway
            cond = np.linalg.norm(g, 1) * np.linalg.norm(ginv, 1)
        except np.linalg.LinAlgError:
            cond = np.inf
        if not cond <= _COND_MAX:
            raise SingularMetricError(point, cond)
        # dginv[a,b,n] = -ginv dg ginv
        dginv = -np.einsum("ac,cdn,db->abn", ginv, dg, ginv)
        # bracket[l,j,k] = dg[l,k,j] + dg[l,j,k] - dg[j,k,l]
        bracket = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
        gamma = 0.5 * np.einsum("il,ljk->ijk", ginv, bracket)
        dbracket = d2g.transpose(0, 2, 1, 3) + d2g - d2g.transpose(2, 0, 1, 3)
        dgamma = 0.5 * (
            np.einsum("iln,ljk->ijkn", dginv, bracket)
            + np.einsum("il,ljkn->ijkn", ginv, dbracket)
        )
        return gamma, dgamma


class _SumConnection:
    """A base space's (memoised) connection plus a symmetric deformation field."""

    def __init__(self, base: "Space", deformation):
        self.base = base
        self.deformation = deformation

    def jets(self, point):
        base, dbase = self.base.connection_jet(point)
        delta, ddelta = self.deformation.jet(point)
        return base + delta, dbase + ddelta


class Space:
    """Chart plus connection; immutable, with the connection jet of the last
    point remembered.

    `provider` maps a point to the symmetric coefficients and their first
    partials there.
    """

    def __init__(self, chart: Chart, provider, torsion=None, origin: str = "given-connection"):
        self.chart = chart
        self.origin = origin
        self._torsion = torsion
        self._connection_jet = LastPointMemo(provider)

    @property
    def _cache(self) -> dict:
        """Point -> (coefficients, partials); holds the last point only."""
        return self._connection_jet.cache

    @classmethod
    def from_metric(cls, metric: TensorField) -> "Space":
        n = metric.chart.dim
        for j in range(n):
            for k in range(j + 1, n):
                if metric.entry(j, k) != metric.entry(k, j):
                    raise ValueError(f"metric entries ({j + 1},{k + 1}) and ({k + 1},{j + 1}) differ")
        return cls(metric.chart, _MetricConnection(metric).jets, origin="from-metric")

    @classmethod
    def from_connection(cls, coefficients) -> "Space":
        sym_field, torsion_field = symmetrize_connection(coefficients)
        return cls(
            coefficients.chart,
            sym_field.jet,
            torsion=torsion_field,
            origin="given-connection",
        )

    @classmethod
    def flat(cls, chart: Chart) -> "Space":
        return cls.from_connection(zero_field(chart, "ull"))

    @property
    def dim(self) -> int:
        return self.chart.dim

    def connection_jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric coefficients and their first partials at a point
        (read-only arrays)."""
        return self._connection_jet(point)

    def connection(self, point) -> np.ndarray:
        return self.connection_jet(point)[0]

    def torsion(self, point) -> np.ndarray:
        n = self.dim
        if self._torsion is None:
            return np.zeros((n, n, n))
        return self._torsion.value(point)

    def deformed(self, deformation, torsion_delta=None, origin: str = "mapped") -> "Space":
        """New space with coefficients L + deformation (deformation symmetric)."""
        torsion = self._torsion
        if torsion_delta is not None:
            torsion = torsion_delta if torsion is None else add_fields(torsion, torsion_delta)
        return Space(self.chart, _SumConnection(self, deformation).jets, torsion, origin)


def christoffel(metric: TensorField) -> Space:
    """Space carrying the Levi-Civita connection of a symmetric metric."""
    return Space.from_metric(metric)


def symmetrize_connection(coefficients) -> tuple[PointField, PointField]:
    """Split (1,2) coefficients into symmetric part and torsion.

    Lsym^i_{jk} = (L^i_{jk} + L^i_{kj}) / 2,  torsion = (L - L^T) / 2;
    their sum reconstructs the input exactly.
    """
    chart = coefficients.chart

    def sym_fn(point):
        value, grad = coefficients.jet(point)
        return (
            0.5 * (value + value.transpose(0, 2, 1)),
            0.5 * (grad + grad.transpose(0, 2, 1, 3)),
        )

    def torsion_fn(point):
        value, grad = coefficients.jet(point)
        return (
            0.5 * (value - value.transpose(0, 2, 1)),
            0.5 * (grad - grad.transpose(0, 2, 1, 3)),
        )

    return PointField(chart, "ull", sym_fn), PointField(chart, "ull", torsion_fn)


def covariant_derivative_arrays(
    value: np.ndarray, grad: np.ndarray, variance: str, conn: np.ndarray
) -> np.ndarray:
    """t_{...|n} from entry values, entry partials and connection values."""
    rank = value.ndim
    letters = _LETTERS[:rank]
    out = grad.copy()
    for slot, flag in enumerate(variance):
        inner = letters[:slot] + "z" + letters[slot + 1 :]
        if flag == "u":
            out += np.einsum(f"{letters[slot]}zn,{inner}->{letters}n", conn, value)
        else:
            out -= np.einsum(f"z{letters[slot]}n,{inner}->{letters}n", conn, value)
    return out


def cov_deriv(field, space: Space):
    """Evaluator for the covariant derivative of a tensor field (rank + 1).

    The new covariant slot is the last index of the returned array.
    """
    if field.chart is not space.chart and field.chart != space.chart:
        raise ValueError("field and space charts differ")
    variance = field.variance

    def evaluate(point) -> np.ndarray:
        value, grad = field.jet(point)
        return covariant_derivative_arrays(value, grad, variance, space.connection(point))

    return evaluate


def curvature_arrays(conn: np.ndarray, dconn: np.ndarray) -> np.ndarray:
    quad = np.einsum("ajm,ian->ijmn", conn, conn)
    return dconn - dconn.transpose(0, 1, 3, 2) + quad - quad.transpose(0, 1, 3, 2)


def curvature(space: Space):
    """Evaluator for R^i_{jmn} of the symmetrized connection."""

    def evaluate(point) -> np.ndarray:
        conn, dconn = space.connection_jet(point)
        return curvature_arrays(conn, dconn)

    return evaluate


def ricci_arrays(riemann: np.ndarray, convention: str = RICCI_LAST) -> np.ndarray:
    if convention == RICCI_LAST:
        return np.einsum("ajma->jm", riemann)
    if convention == RICCI_MIDDLE:
        return np.einsum("ajam->jm", riemann)
    raise ValueError(f"unknown Ricci convention {convention!r}")


def ricci(space: Space, convention: str = RICCI_LAST):
    """Evaluator returning (Ricci, antisymmetric part R_[mn])."""
    riemann = curvature(space)

    def evaluate(point):
        ric = ricci_arrays(riemann(point), convention)
        return ric, ric - ric.T

    return evaluate


def thomas_arrays(conn: np.ndarray) -> np.ndarray:
    n = conn.shape[0]
    trace = np.einsum("aja->j", conn)
    delta = np.eye(n)
    correction = np.einsum("ik,j->ijk", delta, trace) + np.einsum("ij,k->ijk", delta, trace)
    return conn - correction / (n + 1)


def thomas(space: Space):
    """Evaluator for the generalized Thomas projective parameter T^i_{jk}."""

    def evaluate(point) -> np.ndarray:
        return thomas_arrays(space.connection(point))

    return evaluate


def weyl_arrays(riemann: np.ndarray, ric: np.ndarray) -> np.ndarray:
    n = riemann.shape[0]
    delta = np.eye(n)
    ric_alt = ric - ric.T
    out = riemann + np.einsum("ij,mn->ijmn", delta, ric_alt) / (n + 1)
    bracket_a = np.einsum("im,jn->ijmn", delta, ric) - np.einsum("in,jm->ijmn", delta, ric)
    bracket_b = np.einsum("im,nj->ijmn", delta, ric) - np.einsum("in,mj->ijmn", delta, ric)
    return out + (n * bracket_a + bracket_b) / (n * n - 1)


def weyl(space: Space, convention: str = RICCI_LAST):
    """Evaluator for the projective Weyl tensor W^i_{jmn}."""
    riemann = curvature(space)

    def evaluate(point) -> np.ndarray:
        r = riemann(point)
        return weyl_arrays(r, ricci_arrays(r, convention))

    return evaluate


def riemannian_weyl(space: Space, convention: str = RICCI_LAST):
    """Weyl assembly specialized to symmetric Ricci (Riemannian reduction)."""
    riemann = curvature(space)

    def evaluate(point) -> np.ndarray:
        r = riemann(point)
        ric = ricci_arrays(r, convention)
        n = r.shape[0]
        delta = np.eye(n)
        bracket = np.einsum("im,jn->ijmn", delta, ric) - np.einsum("in,jm->ijmn", delta, ric)
        return r + bracket / (n - 1)

    return evaluate
