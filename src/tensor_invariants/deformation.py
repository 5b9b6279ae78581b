"""The deformation object of a geometric mapping,

    omega^i_{jk} = s1 (d^i_j rho_k + d^i_k rho_j)
                 + s2 (F^i_j sigma_k + F^i_k sigma_j)
                 + s3 sigma_{jk} phi^i,

bundled as an :class:`OmegaSpec` (the s-values and the fields rho, sigma,
F, phi and sigma_{jk}), with omega, its jet, the jets of its term groups
(calF = F^i_j sigma_k + F^i_k sigma_j, and sigma_{jk} phi^i) and the printed
expansion of omega^a_{jm} omega^i_{an}, which the paper audit compares with
the direct contraction.  ``invariants`` builds the invariants on it.

Every evaluator takes one point or a ``tensor.PointBatch`` (see ``tensor``)
and keeps what depends on its spec: the branches that leave a term group
with a zero s-value unread, and the batch cache (``tensor.memo``), keyed by
the fields that enter.  Its arithmetic is an array core (``*_arrays``) over
field values and jets with any leading axes.  A core's s-value is a float,
or an array over a leading draw axis with unit axes for the other leading
axes (``(D, 1)`` for leading axes ``(D, P)``; see :func:`_lift`), so that D
specs, their arrays stacked, are evaluated in one call, each draw's entries
the bits of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Chart
from .tensor import _batch, batch_shape, contract, delta_product, memo, zero_field

__all__ = [
    "SValues",
    "OmegaSpec",
    "calF_jet",
    "nu_jet",
    "omega",
    "omega_arrays",
    "omega_jet",
    "omega_jet_arrays",
    "omega_square_expanded",
    "omega_square_arrays",
]

_FIELDS = {"rho": "l", "sigma": "l", "F": "ul", "phi": "u", "sigma2": "ll"}  # name: variance


@dataclass(frozen=True)
class SValues:
    s1: float
    s2: float
    s3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass
class OmegaSpec:
    """Fields parameterizing omega: 1-forms rho, sigma; affinor F; vector phi;
    symmetric covariant tensor sigma2."""

    chart: Chart
    s: SValues
    rho: object = None
    sigma: object = None
    F: object = None
    phi: object = None
    sigma2: object = None

    def __post_init__(self):
        for name, variance in _FIELDS.items():
            if getattr(self, name) is None:
                setattr(self, name, zero_field(self.chart, variance))

    def validate(self, points) -> None:
        """Check sigma2 symmetry at sample points, to 1e-12 of its largest
        entry there, so a rescaled sigma2 is accepted or rejected alike."""
        for point in points:
            s2 = self.sigma2.value(point)
            skew = np.max(np.abs(s2 - s2.T))
            if skew > 1e-12 * np.max(np.abs(s2)):
                raise ValueError(
                    f"sigma2 is not symmetric at {tuple(point)} (max skew {skew:.3e})"
                )

    @property
    def fields(self) -> tuple:
        """rho, sigma, F, phi and sigma2."""
        return tuple(getattr(self, name) for name in _FIELDS)

    def values(self, point):
        """The values of rho, sigma, F, phi and sigma2 at a point."""
        return tuple(field.value(point) for field in self.fields)


def _pair(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A^i_j v_k + A^i_k v_j; calF is _pair(F, sigma)."""
    half = contract("ij,k->ijk", A, v)
    return half + np.swapaxes(half, -1, -2)


def _delta_pair(v: np.ndarray) -> np.ndarray:
    """d^i_j v_k + d^i_k v_j."""
    half = delta_product("ij,k->ijk", v)
    return half + np.swapaxes(half, -1, -2)


def _nu(F: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """nu_j = calF^a_{ja} = tr(F) sigma_j + F^a_j sigma_a."""
    return contract(",j->j", contract("aa->", F), sigma) + contract("aj,a->j", F, sigma)


def _delta_pair_jet(value, grad):
    """d^i_j v_k + d^i_k v_j with its first partials, from a 1-form's values
    and partials."""
    return (
        _delta_pair(value),
        delta_product("ij,kn->ijkn", grad) + delta_product("ik,jn->ijkn", grad),
    )


def _calF_arrays(F, dF, sigma, dsigma):
    """calF^i_{jk} = F^i_j sigma_k + F^i_k sigma_j with its first partials,
    from the values and partials of F and sigma."""
    half = contract("ijn,k->ijkn", dF, sigma) + contract("ij,kn->ijkn", F, dsigma)
    return _pair(F, sigma), half + np.swapaxes(half, -3, -2)


def calF_jet(F, sigma, point) -> tuple[np.ndarray, np.ndarray]:
    """calF^i_{jk} = F^i_j sigma_k + F^i_k sigma_j with its first partials,
    from an affinor field and a 1-form field; once per batch."""
    def build(batch):
        return _calF_arrays(*F.jet(batch), *sigma.jet(batch))

    return memo(point, ("calF", F, sigma), build)


def nu_jet(F, sigma, point) -> tuple[np.ndarray, np.ndarray]:
    """The trace nu_j = calF^a_{ja} with its first partials, built directly
    rather than from the full calF jet."""
    Fv, dF = F.jet(point)
    sv, ds = sigma.jet(point)
    grad = (
        contract("aan,j->jn", dF, sv)
        + contract(",jn->jn", contract("aa->", Fv), ds)
        + contract("ajn,a->jn", dF, sv)
        + contract("aj,an->jn", Fv, ds)
    )
    return _nu(Fv, sv), grad


def _sphi_arrays(sigma2, dsigma2, phi, dphi):
    """sigma_{jk} phi^i with its first partials, from the values and partials
    of sigma_{jk} and phi."""
    grad = contract("jkn,i->ijkn", dsigma2, phi) + contract("jk,in->ijkn", sigma2, dphi)
    return contract("jk,i->ijk", sigma2, phi), grad


def _sphi_jet(sigma2, phi, point) -> tuple[np.ndarray, np.ndarray]:
    """sigma_{jk} phi^i with its first partials; once per batch."""
    def build(batch):
        return _sphi_arrays(*sigma2.jet(batch), *phi.jet(batch))

    return memo(point, ("sigma2 phi", sigma2, phi), build)


def _lift(s: tuple, rank: int) -> tuple:
    """The s-values as they scale a term of `rank` index slots: a float as it
    is, an array with `rank` unit axes appended."""
    return tuple(x.reshape(x.shape + (1,) * rank) if isinstance(x, np.ndarray) else x for x in s)


def omega(spec: OmegaSpec, point) -> np.ndarray:
    """omega^i_{jk}; symmetric in (j, k) by construction."""
    return omega_arrays(spec.s.as_tuple(), *spec.values(_batch(point)))


def omega_arrays(s: tuple, rho, sigma, F, phi, sigma2) -> np.ndarray:
    """omega^i_{jk} from the s-values (s1, s2, s3) and the values of rho,
    sigma, F, phi and sigma_{jk}, over any leading axes.

    Each s-value is a float, or an array over a leading draw axis, with unit
    axes for the other leading axes (``(D, 1)`` for leading axes ``(D, P)``),
    so that the values of D omega specs, stacked, are evaluated in one call,
    each draw's entries the same bits as its own call.
    """
    s1, s2, s3 = _lift(s, 3)
    out = s1 * _delta_pair(rho)
    out += s2 * _pair(F, sigma)
    out += s3 * contract("jk,i->ijk", sigma2, phi)
    return out


def omega_jet(spec: OmegaSpec, point) -> tuple[np.ndarray, np.ndarray]:
    """omega with its first partials, from the term groups whose s-value is
    nonzero: the fields of the other groups are not evaluated."""
    s1, s2, s3 = s = spec.s.as_tuple()

    def terms():  # each formed when the sum reaches it, the rho pair freed after
        yield _delta_pair_jet(*spec.rho.jet(point)) if s1 != 0.0 else None
        yield calF_jet(spec.F, spec.sigma, point) if s2 != 0.0 else None
        yield _sphi_jet(spec.sigma2, spec.phi, point) if s3 != 0.0 else None

    return omega_jet_arrays(s, terms(), batch_shape(point) + (spec.chart.dim,) * 3)


def omega_jet_arrays(s: tuple, terms, shape: tuple, dtype=float) -> tuple:
    """omega of `shape` and `dtype` with its first partials, from the
    s-values and the jets (values, partials) of its three term groups in
    turn: d^i_j rho_k + d^i_k rho_j, calF and sigma_{jk} phi^i.  A group
    given as None is left out.  The sum starts from zeros and adds one group
    at a time, taking each from `terms` when it reaches it."""
    value = np.zeros(shape, dtype)
    grad = np.zeros(shape + shape[-1:], dtype)
    for weight, grad_weight, term in zip(_lift(s, 3), _lift(s, 4), terms):
        if term is not None:
            value += weight * term[0]
            grad += grad_weight * term[1]
    return value, grad


def omega_square_expanded(spec: OmegaSpec, point) -> np.ndarray:
    """The expanded form of omega^a_{jm} omega^i_{an}, term group by term group.

    Audits the printed expansion against the direct contraction; the two must
    agree to rounding.
    """
    return omega_square_arrays(spec.s.as_tuple(), *spec.values(_batch(point)))


def omega_square_arrays(s: tuple, rho, sigma, F, phi, sigma2) -> np.ndarray:
    """:func:`omega_square_expanded` from the s-values and the field values,
    stacked like :func:`omega_arrays`."""
    s1, s2, s3 = _lift(s, 4)
    n1, n2, n3 = _lift(s, 2)  # the s-values that scale coeff_n
    F2 = contract("ia,aj->ij", F, F)
    FTr = contract("aj,a->j", F, rho)  # F^a_j rho_a
    FTs = contract("aj,a->j", F, sigma)  # F^a_j sigma_a
    Sp = contract("ja,a->j", sigma2, phi)  # sigma_{ja} phi^a
    FS = contract("am,an->mn", F, sigma2)  # F^a_m sigma_{an}
    rho_phi = contract("a,a->", rho, phi)
    sigma_phi = contract("a,a->", sigma, phi)
    Fphi = contract("ia,a->i", F, phi)

    rho2 = contract("j,m->jm", rho, rho)
    out = s1 * s1 * delta_product("ij,mn->ijmn", rho2)
    out += s1 * s1 * delta_product("im,jn->ijmn", rho2)
    coeff_n = 2.0 * n1 * n1 * rho2
    coeff_n += n1 * n2 * (contract("m,j->jm", FTr, sigma) + contract("j,m->jm", FTr, sigma))
    coeff_n += n1 * n3 * contract("jm,->jm", sigma2, rho_phi)
    out += delta_product("in,jm->ijmn", coeff_n)
    out += _group(
        s2 * s2, ("in,m,j in,j,m", F, FTs, sigma), ("im,j,n ij,m,n", F2, sigma, sigma)
    )
    out += _group(s3 * s3, ("jm,n,i", sigma2, Sp, phi))
    out += _group(s1 * s2, ("in,j,m in,m,j im,j,n im,n,j ij,m,n ij,n,m", F, rho, sigma))
    out += _group(s1 * s3, ("mn,j,i jn,m,i jm,n,i", sigma2, rho, phi))
    out += _group(
        s2 * s3,
        ("j,mn,i m,jn,i", sigma, FS, phi),
        (",in,jm", sigma_phi, F, sigma2),
        ("i,n,jm", Fphi, sigma, sigma2),
    )
    return out


def _group(weight, *parts):
    """weight (t_1 + t_2 ...) for a term group of rank-4 products: each
    part is the input specs of its terms (``"in,m,j im,j,n"``, output
    ``ijmn``) and their operands.  The sum is formed in place, term by term
    in order, then scaled, so that one term is alive beside it at a time."""
    out = None
    for specs, *operands in parts:
        for spec in specs.split():
            term = contract(spec + "->ijmn", *operands)
            if out is None:
                out = term
            else:
                out += term
    out *= weight
    return out
