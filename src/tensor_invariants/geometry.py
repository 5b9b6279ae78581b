"""Affine connection spaces and the classical projective machinery.

A :class:`Space` is a chart together with symmetric connection
coefficients ``L^i_{jk}``: non-symmetric coefficients are accepted and
symmetrized.  Spaces may come from an explicit connection, from a metric
(Levi-Civita), or from deforming another space (geometric mappings).

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

Every evaluator and array kernel takes one point or a ``tensor.PointBatch``
and then carries a leading batch axis (``L[..., i, j, k]``), with each
point's result bit-identical to its evaluation alone (see ``tensor``); the
delta products of the Thomas and Weyl assemblies are ``tensor.delta_product``
diagonal writes, not products with the identity.  A space's connection jet
and the evaluators ``curvature``, ``ricci``, ``weyl`` and ``thomas`` keep
their results in the batch's cache (``tensor.memo``) under the kind and the
space's ``key``, so every reader of a batch computes each object once.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .expr import Chart
from .tensor import (
    PointField,
    TensorField,
    batch_shape,
    contract,
    delta_product,
    memo,
    zero_field,
)

__all__ = [
    "SingularMetricError",
    "Space",
    "christoffel",
    "symmetrize_connection",
    "covariant_derivative_arrays",
    "curvature",
    "ricci",
    "thomas",
    "weyl",
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


def _inverse(g: np.ndarray):
    """Inverse and 1-norm condition number of a metric, or of each metric in
    a stack (inf where one is singular; the inverse is then None)."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        if g.ndim == 2:
            return None, np.inf
        return None, np.array([_inverse(matrix)[1] for matrix in g])
    # the condition number comes from the inverse needed anyway
    cond = np.linalg.norm(g, 1, axis=(-2, -1)) * np.linalg.norm(ginv, 1, axis=(-2, -1))
    return ginv, cond


class _MetricConnection:
    """Christoffel symbols of the second kind, assembled at a point or a
    batch of points.

    The inverse metric is computed numerically (LU with partial pivoting via
    numpy.linalg, one matrix at a time in a batch); entries stay symbolic,
    jets are taken only at requested points.
    """

    def __init__(self, metric: TensorField):
        self.metric = metric

    def jets(self, point):
        g, dg, d2g = self.metric.jet2(point)
        ginv, cond = _inverse(g)
        singular = np.logical_not(cond <= _COND_MAX)  # NaN is singular too
        if np.any(singular):
            if not batch_shape(point):
                raise SingularMetricError(point, cond)
            first = int(np.argmax(singular))
            raise SingularMetricError(point.array[first].tolist(), cond[first])
        # dginv[a,b,n] = -ginv dg ginv
        dginv = -contract("adn,db->abn", contract("ac,cdn->adn", ginv, dg), ginv)
        # bracket[l,j,k] = dg[l,k,j] + dg[l,j,k] - dg[j,k,l]
        bracket = np.swapaxes(dg, -2, -1) + dg - np.moveaxis(dg, -1, -3)
        gamma = 0.5 * contract("il,ljk->ijk", ginv, bracket)
        dbracket = np.swapaxes(d2g, -3, -2) + d2g - np.moveaxis(d2g, -2, -4)
        dgamma = 0.5 * (
            contract("iln,ljk->ijkn", dginv, bracket) + contract("il,ljkn->ijkn", ginv, dbracket)
        )
        return gamma, dgamma


class Space:
    """Chart plus connection; immutable.

    `provider` maps a ``tensor.PointBatch`` to the symmetric coefficients and
    their first partials there.  What is computed from the space is cached
    per batch under ``key``: an object of its own, or the key a reduced space
    of ``invariants`` is given, so that equal reduced spaces share it.  A
    space made from connection coefficients keeps them as ``coefficients``
    (else None), so that a reader can run them with other fields
    (``tensor.run_fields``).
    """

    def __init__(self, chart: Chart, provider, coefficients=None):
        self.chart = chart
        self._provider = provider
        self.coefficients = coefficients
        self.key = object()

    @classmethod
    def from_metric(cls, metric: TensorField) -> "Space":
        n = metric.chart.dim
        for j in range(n):
            for k in range(j + 1, n):
                if metric.entry(j, k) != metric.entry(k, j):
                    raise ValueError(f"metric entries ({j + 1},{k + 1}) and ({k + 1},{j + 1}) differ")
        return cls(metric.chart, _MetricConnection(metric).jets)

    @classmethod
    def from_connection(cls, coefficients) -> "Space":
        symmetric = symmetrize_connection(coefficients)
        return cls(coefficients.chart, symmetric.jet, coefficients)

    @classmethod
    def flat(cls, chart: Chart) -> "Space":
        return cls.from_connection(zero_field(chart, "ull"))

    @property
    def dim(self) -> int:
        return self.chart.dim

    def connection_jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric coefficients and their first partials at a point
        (read-only arrays, computed once per batch)."""
        return memo(point, ("connection", self.key), self._provider)

    def connection(self, point) -> np.ndarray:
        return self.connection_jet(point)[0]

    def deformed(self, delta) -> "Space":
        """New space with coefficients L + delta: `delta` maps a batch to
        the symmetric deformation's values and first partials, each added
        to this space's (cached) connection jet, base first."""

        def provider(point):
            base, dbase = self.connection_jet(point)
            value, grad = delta(point)
            return base + value, dbase + grad

        return Space(self.chart, provider)


def christoffel(metric: TensorField) -> Space:
    """Space carrying the Levi-Civita connection of a symmetric metric."""
    return Space.from_metric(metric)


def symmetrize_connection(coefficients) -> PointField:
    """The symmetric part of (1,2) coefficients,
    Lsym^i_{jk} = (L^i_{jk} + L^i_{kj}) / 2."""
    chart = coefficients.chart

    def sym_fn(point):
        value, grad = coefficients.jet(point)
        return (
            0.5 * (value + np.swapaxes(value, -2, -1)),
            0.5 * (grad + np.swapaxes(grad, -3, -2)),
        )

    return PointField(chart, "ull", sym_fn)


def covariant_derivative_arrays(
    value: np.ndarray, grad: np.ndarray, variance: str, conn: np.ndarray
) -> np.ndarray:
    """t_{...|n} from entry values, entry partials and connection values
    (one slot per variance flag after any batch axes)."""
    letters = _LETTERS[: len(variance)]
    out = grad.copy()
    for slot, flag in enumerate(variance):
        inner = letters[:slot] + "z" + letters[slot + 1 :]
        if flag == "u":
            out += contract(f"{letters[slot]}zn,{inner}->{letters}n", conn, value)
        else:
            out -= contract(f"z{letters[slot]}n,{inner}->{letters}n", conn, value)
    return out


def _alt(t: np.ndarray) -> np.ndarray:
    """t minus t with its last two slots swapped."""
    return t - np.swapaxes(t, -1, -2)


def curvature_arrays(conn: np.ndarray, dconn: np.ndarray) -> np.ndarray:
    quad = contract("ajm,ian->ijmn", conn, conn)
    return _alt(dconn) + _alt(quad)


def curvature(space: Space):
    """The space's evaluator for R^i_{jmn} of the symmetrized connection."""

    def evaluate(point) -> np.ndarray:
        conn, dconn = space.connection_jet(point)
        return curvature_arrays(conn, dconn)

    return partial(memo, key=("curvature", space.key), fn=evaluate)


def ricci_arrays(riemann: np.ndarray, convention: str = RICCI_LAST) -> np.ndarray:
    if convention == RICCI_LAST:
        return np.einsum("...ajma->...jm", riemann)
    if convention == RICCI_MIDDLE:
        return np.einsum("...ajam->...jm", riemann)
    raise ValueError(f"unknown Ricci convention {convention!r}")


def ricci(space: Space, convention: str = RICCI_LAST):
    """The space's evaluator returning (Ricci, antisymmetric part R_[mn])."""
    riemann = curvature(space)

    def evaluate(point):
        ric = ricci_arrays(riemann(point), convention)
        return ric, _alt(ric)

    return partial(memo, key=("ricci", convention, space.key), fn=evaluate)


def thomas_arrays(conn: np.ndarray) -> np.ndarray:
    n = conn.shape[-1]
    trace = np.einsum("...aja->...j", conn)
    correction = delta_product("ik,j->ijk", trace) + delta_product("ij,k->ijk", trace)
    return conn - correction / (n + 1)


def thomas(space: Space):
    """The space's evaluator for the generalized Thomas projective parameter T^i_{jk}."""

    def evaluate(point) -> np.ndarray:
        return thomas_arrays(space.connection(point))

    return partial(memo, key=("thomas", space.key), fn=evaluate)


def delta_bracket(t: np.ndarray) -> np.ndarray:
    """delta^i_m t_jn - delta^i_n t_jm, for a 2-tensor t (batch axes first)."""
    return delta_product("im,jn->ijmn", t) - delta_product("in,jm->ijmn", t)


def weyl_arrays(riemann: np.ndarray, ric: np.ndarray) -> np.ndarray:
    n = riemann.shape[-1]
    out = riemann + delta_product("ij,mn->ijmn", _alt(ric)) / (n + 1)
    bracket_a = delta_bracket(ric)
    bracket_b = delta_bracket(np.swapaxes(ric, -1, -2))
    return out + (n * bracket_a + bracket_b) / (n * n - 1)


def weyl(space: Space, convention: str = RICCI_LAST):
    """The space's evaluator for the projective Weyl tensor W^i_{jmn}."""
    riemann, ric = curvature(space), ricci(space, convention)

    def evaluate(point) -> np.ndarray:
        return weyl_arrays(riemann(point), ric(point)[0])

    return partial(memo, key=("weyl", convention, space.key), fn=evaluate)
