"""The omega-parameterized family of mapping invariants.

The deformation object

    omega^i_{jk} = s1 (d^i_j rho_k + d^i_k rho_j)
                 + s2 (F^i_j sigma_k + F^i_k sigma_j)
                 + s3 sigma_{jk} phi^i

is bundled as an :class:`OmegaSpec`.  From it the module assembles the basic
invariants of Thomas and Weyl type, the zeta and D building blocks, the
derived (trace-reduced) invariants, and the correlation identities tying the
derived objects back to the classical Thomas parameter and Weyl tensor.

Several of these are classical objects of a reduced connection
(:func:`reduced_space`).  The basic Thomas invariant is Lambda = L - omega
itself and the direct basic Weyl invariant is its curvature: Lambda is the
same in both spaces of a mapping.  The derived Thomas invariant is built
from the Thomas parameter of Lambda' = L - s2 calF - s3 sigma_{jk} phi^i
(omega without its rho term), which changes projectively across a mapping
(T. Y. Thomas, PNAS 11, 1925; H. Weyl, Gottinger Nachrichten 1921).  The
zeta / D regrouping and the printed chain stages are assembled from their
formulas: they are the claims under audit.  Every covariant derivative
inside a space's invariant uses that space's own symmetric connection.
Zeta, D, the reduced spaces and the calF and sigma_{jk} phi^i jets keep
their results in the batch's cache (``tensor.memo``) under keys that name
the fields that enter, so each is computed once per batch by any reader.

The derived Weyl chain ships two versions of its first stage: the formula as
conventionally printed (``first_printed``) and a re-derived variant
(``first_corrected``) whose D-trace terms enter with the opposite sign.  The
two differ by 2/(N^2-1) times delta-weighted traces D^a_{a[..]}; the
invariance verifier and the audit report measure which of the two is actually
invariant under general mappings.  The paper audit checks ``final``
against W(Lambda') and the D traces.

Every builder and evaluator takes one point or a ``tensor.PointBatch`` and
then gives arrays with a leading batch axis, each point's entries
bit-identical to its evaluation alone (see ``tensor``).  An evaluator that
reads several cached parts makes a plain point one batch first, so that its
parts share that batch's cache.  omega and its printed square expansion also
have array cores (``omega_arrays``, ``omega_square_arrays``) that take the
field values, so that the values of many omega specs, stacked on a leading
draw axis, are evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .expr import Chart
from .geometry import (
    RICCI_LAST,
    Space,
    _alt,
    covariant_derivative_arrays,
    curvature,
    delta_bracket,
    thomas,
    thomas_arrays,
    weyl,
)
from .tensor import (
    PointField,
    _batch,
    batch_shape,
    contract,
    delta_product,
    memo,
    zero_field,
)

__all__ = [
    "SValues",
    "OmegaSpec",
    "calF_jet",
    "nu_jet",
    "omega",
    "omega_arrays",
    "omega_jet",
    "omega_square_expanded",
    "omega_square_arrays",
    "reduced_space",
    "basic_thomas",
    "zeta",
    "dee",
    "basic_weyl",
    "derived_thomas",
    "derived_thomas_correlation_residual",
    "WeylChain",
    "derived_weyl_chain",
    "MODE_DIRECT",
    "MODE_STRUCTURED",
]

MODE_DIRECT = "direct"
MODE_STRUCTURED = "structured"


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
        if self.rho is None:
            self.rho = zero_field(self.chart, "l")
        if self.sigma is None:
            self.sigma = zero_field(self.chart, "l")
        if self.F is None:
            self.F = zero_field(self.chart, "ul")
        if self.phi is None:
            self.phi = zero_field(self.chart, "u")
        if self.sigma2 is None:
            self.sigma2 = zero_field(self.chart, "ll")

    def validate(self, points, tol: float = 1e-12) -> None:
        """Check sigma2 symmetry at sample points."""
        for point in points:
            s2 = self.sigma2.value(point)
            skew = np.max(np.abs(s2 - s2.T))
            if skew > tol:
                raise ValueError(
                    f"sigma2 is not symmetric at {tuple(point)} (max skew {skew:.3e})"
                )

    def values(self, point):
        return (
            self.rho.value(point),
            self.sigma.value(point),
            self.F.value(point),
            self.phi.value(point),
            self.sigma2.value(point),
        )


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


def _delta_pair_jet(v, point) -> tuple[np.ndarray, np.ndarray]:
    """d^i_j v_k + d^i_k v_j with its first partials, from a 1-form field."""
    value, grad = v.jet(point)
    return (
        _delta_pair(value),
        delta_product("ij,kn->ijkn", grad) + delta_product("ik,jn->ijkn", grad),
    )


def calF_jet(F, sigma, point) -> tuple[np.ndarray, np.ndarray]:
    """calF^i_{jk} = F^i_j sigma_k + F^i_k sigma_j with its first partials,
    from an affinor field and a 1-form field; once per batch."""

    def build(point):
        Fv, dF = F.jet(point)
        sv, ds = sigma.jet(point)
        half = contract("ijn,k->ijkn", dF, sv) + contract("ij,kn->ijkn", Fv, ds)
        return _pair(Fv, sv), half + np.swapaxes(half, -3, -2)

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


def _sphi_jet(sigma2, phi, point) -> tuple[np.ndarray, np.ndarray]:
    """sigma_{jk} phi^i with its first partials; once per batch."""

    def build(point):
        (p, dp), (s, ds) = phi.jet(point), sigma2.jet(point)
        grad = contract("jkn,i->ijkn", ds, p) + contract("jk,in->ijkn", s, dp)
        return contract("jk,i->ijk", s, p), grad

    return memo(point, ("sigma2 phi", sigma2, phi), build)


def _lift(s: tuple, rank: int) -> tuple:
    """The s-values as they scale a term of `rank` index slots: a float as it
    is, an array with `rank` unit axes appended."""
    return tuple(x if np.ndim(x) == 0 else x.reshape(x.shape + (1,) * rank) for x in s)


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
    s1, s2, s3 = spec.s.as_tuple()
    n = spec.chart.dim
    value = np.zeros(batch_shape(point) + (n,) * 3)
    grad = np.zeros(value.shape + (n,))
    if s1 != 0.0:
        rho_pair, drho_pair = _delta_pair_jet(spec.rho, point)
        value += s1 * rho_pair
        grad += s1 * drho_pair
    if s2 != 0.0:
        calF, dcalF = calF_jet(spec.F, spec.sigma, point)
        value += s2 * calF
        grad += s2 * dcalF
    if s3 != 0.0:
        sphi, dsphi = _sphi_jet(spec.sigma2, spec.phi, point)
        value += s3 * sphi
        grad += s3 * dsphi
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
    out += s2 * s2 * (
        contract("in,m,j->ijmn", F, FTs, sigma)
        + contract("in,j,m->ijmn", F, FTs, sigma)
        + contract("im,j,n->ijmn", F2, sigma, sigma)
        + contract("ij,m,n->ijmn", F2, sigma, sigma)
    )
    out += s3 * s3 * contract("jm,n,i->ijmn", sigma2, Sp, phi)
    out += s1 * s2 * (
        contract("in,j,m->ijmn", F, rho, sigma)
        + contract("in,m,j->ijmn", F, rho, sigma)
        + contract("im,j,n->ijmn", F, rho, sigma)
        + contract("im,n,j->ijmn", F, rho, sigma)
        + contract("ij,m,n->ijmn", F, rho, sigma)
        + contract("ij,n,m->ijmn", F, rho, sigma)
    )
    out += s1 * s3 * (
        contract("mn,j,i->ijmn", sigma2, rho, phi)
        + contract("jn,m,i->ijmn", sigma2, rho, phi)
        + contract("jm,n,i->ijmn", sigma2, rho, phi)
    )
    out += s2 * s3 * (
        contract("j,mn,i->ijmn", sigma, FS, phi)
        + contract("m,jn,i->ijmn", sigma, FS, phi)
        + contract(",in,jm->ijmn", sigma_phi, F, sigma2)
        + contract("i,n,jm->ijmn", Fphi, sigma, sigma2)
    )
    return out


def _key(kind: str, space: Space, spec: OmegaSpec, rho: bool) -> tuple:
    """The cache key of a `kind` built on `space` from `spec`'s omega (without
    its rho term if not `rho`): the space, the s-values and the fields that
    enter, as objects, so that copies built by different readers share it."""
    s1, s2, s3 = spec.s.as_tuple()
    s1 = s1 if rho else 0.0
    weights = (s1, s2, s2, s3, s3)
    fields = (spec.rho, spec.F, spec.sigma, spec.phi, spec.sigma2)
    key = (kind, space.key, rho, s1, s2, s3)
    return key + tuple(f if w else None for w, f in zip(weights, fields))


def reduced_space(space: Space, spec: OmegaSpec, rho: bool = True) -> Space:
    """The space of the reduced connection Lambda = L - omega, or with
    ``rho=False`` of Lambda' = L - s2 calF - s3 sigma_{jk} phi^i.

    Lambda is Lambda' deformed by -s1 (d^i_j rho_k + d^i_k rho_j).  Across a
    mapping with this omega pair Lambda is unchanged and Lambda' changes
    projectively, by s1 (d^i_j (rhobar - rho)_k + d^i_k (rhobar - rho)_j).
    Each call builds a new space, keyed by its base space, s-values and
    fields, so equal reduced spaces share their results in a batch.
    """
    if rho:
        base = reduced_space(space, spec, rho=False)

        def fn(point):
            return tuple(-spec.s.s1 * x for x in _delta_pair_jet(spec.rho, point))

    else:
        base, part = space, replace(spec, s=replace(spec.s, s1=0.0))

        def fn(point):
            return tuple(-x for x in omega_jet(part, point))

    reduced = base.deformed(PointField(spec.chart, "ull", fn))
    reduced.key = _key("reduced", space, spec, rho)
    return reduced


def basic_thomas(space: Space, spec: OmegaSpec):
    """Basic invariant of the Thomas type: Lambda = Lsym - omega."""
    return reduced_space(space, spec).connection


def zeta(space: Space, spec: OmegaSpec):
    """zeta_{ij} = s1 rho_{i|j} + s1^2 rho_i rho_j
    + s1 s2 (F^a_i sigma_j + F^a_j sigma_i) rho_a + s1 s3 sigma_{ij} rho_a phi^a;
    keyed like Lambda, whose omega it reads."""

    def evaluate(point) -> np.ndarray:
        s1, s2, s3 = spec.s.as_tuple()
        if s1 == 0.0:
            return np.zeros(batch_shape(point) + (spec.chart.dim,) * 2)
        rho, drho = spec.rho.jet(point)
        conn = space.connection(point)
        rho_cov = covariant_derivative_arrays(rho, drho, "l", conn)
        out = s1 * rho_cov + s1 * s1 * contract("i,j->ij", rho, rho)
        if s2 != 0.0:
            sigma = spec.sigma.value(point)
            FTr = contract("ai,a->i", spec.F.value(point), rho)
            out += s1 * s2 * (contract("i,j->ij", FTr, sigma) + contract("i,j->ij", sigma, FTr))
        if s3 != 0.0:
            rho_phi = contract("a,a->", rho, spec.phi.value(point))
            out += s1 * s3 * contract("ij,->ij", spec.sigma2.value(point), rho_phi)
        return out

    return partial(memo, key=_key("zeta", space, spec, True), fn=evaluate)


def dee(space: Space, spec: OmegaSpec):
    """The four-group D^{(s2).(s3).i}_{jmn} building block; keyed like
    Lambda', whose omega it reads."""

    def evaluate(point) -> np.ndarray:
        s1, s2, s3 = spec.s.as_tuple()
        n = spec.chart.dim
        out = np.zeros(batch_shape(point) + (n,) * 4)
        if s2 == 0.0 and s3 == 0.0:
            return out
        conn = space.connection(point)
        if s2 != 0.0:
            sigma = spec.sigma.value(point)
            F = spec.F.value(point)
            FTs = contract("aj,a->j", F, sigma)
            F2 = contract("ia,aj->ij", F, F)
            out += s2 * s2 * (
                contract("in,m,j->ijmn", F, FTs, sigma)
                + contract("in,j,m->ijmn", F, FTs, sigma)
                + contract("im,j,n->ijmn", F2, sigma, sigma)
            )
            calF, dcalF = calF_jet(spec.F, spec.sigma, point)
            out -= s2 * covariant_derivative_arrays(calF, dcalF, "ull", conn)
        if s3 != 0.0:
            phi = spec.phi.value(point)
            sigma2 = spec.sigma2.value(point)
            Sp = contract("ja,a->j", sigma2, phi)
            out += s3 * s3 * contract("jm,n,i->ijmn", sigma2, Sp, phi)
            sphi, dsphi = _sphi_jet(spec.sigma2, spec.phi, point)
            out -= s3 * covariant_derivative_arrays(sphi, dsphi, "ull", conn)
        if s2 != 0.0 and s3 != 0.0:
            FS = contract("am,an->mn", F, sigma2)
            Fphi = contract("ia,a->i", F, phi)
            out += s2 * s3 * (
                contract("j,mn,i->ijmn", sigma, FS, phi)
                + contract("m,jn,i->ijmn", sigma, FS, phi)
                - contract(",im,jn->ijmn", contract("a,a->", sigma, phi), F, sigma2)
                - contract("i,m,jn->ijmn", Fphi, sigma, sigma2)
            )
        return out

    return partial(memo, key=_key("dee", space, spec, False), fn=evaluate)


def basic_weyl(space: Space, spec: OmegaSpec, mode: str = MODE_DIRECT):
    """Basic invariant of the Weyl type, in either assembly.

    DIRECT is the curvature of Lambda = L - omega, which equals
        R - omega_{jm|n} + omega_{jn|m} + omega^a_{jm} omega^i_{an} - (m<->n).
    STRUCTURED uses the zeta / D regrouping:
        R - d^i_j zeta_[mn] - d^i_m zeta_{jn} + d^i_n zeta_{jm} + D_{j[mn]}.
    Both are exposed so the regrouping itself can be audited numerically.
    """
    if mode not in (MODE_DIRECT, MODE_STRUCTURED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_DIRECT:
        return curvature(reduced_space(space, spec))
    riemann = curvature(space)
    zeta_eval = zeta(space, spec)
    dee_eval = dee(space, spec)

    def evaluate(point) -> np.ndarray:
        point = _batch(point)  # one batch, so the parts share its cache
        r = riemann(point)
        z = zeta_eval(point)
        out = r - delta_product("ij,mn->ijmn", _alt(z))
        out -= delta_bracket(z)
        return out + _alt(dee_eval(point))

    return evaluate


def derived_thomas(space: Space, spec: OmegaSpec):
    """Derived associated invariant of the Thomas type (rho eliminated).

    Lambda' minus s1 times its Thomas correction, so s1 enters only through
    the coefficient s1/(N+1) of the delta-trace term.  With s = (1, 0, 0)
    this is the classical Thomas projective parameter.
    """
    reduced = reduced_space(space, spec, rho=False)
    reduced_thomas = thomas(reduced)
    s1 = spec.s.s1

    def evaluate(point) -> np.ndarray:
        point = _batch(point)
        conn = reduced.connection(point)
        return conn - s1 * (conn - reduced_thomas(point))

    return evaluate


def derived_thomas_correlation_residual(space: Space, spec: OmegaSpec):
    """Residual of the correlation between the derived invariant and the
    classical Thomas parameter; vanishes identically."""
    derived = derived_thomas(space, spec)

    def evaluate(point) -> np.ndarray:
        point = _batch(point)
        s1, s2, s3 = spec.s.as_tuple()
        n = spec.chart.dim
        conn = space.connection(point)
        t_classical = thomas_arrays(conn)
        sigma = spec.sigma.value(point)
        F = spec.F.value(point)
        phi = spec.phi.value(point)
        sigma2 = spec.sigma2.value(point)
        # s2 nu_k + s3 sigma_{ka} phi^a
        bterm = s2 * _nu(F, sigma) + s3 * contract("ka,a->k", sigma2, phi)
        rhs = s1 * t_classical + (1.0 - s1) * conn
        rhs -= s2 * _pair(F, sigma)
        rhs -= s3 * contract("jk,i->ijk", sigma2, phi)
        rhs += (s1 / (n + 1)) * _delta_pair(bterm)
        return derived(point) - rhs

    return evaluate


@dataclass
class WeylChain:
    """Evaluators for the derived Weyl invariants.

    ``first_printed`` follows the printed first-stage formula;
    ``first_corrected`` flips the sign of its D^a_{a[..]} trace terms per an
    independent re-derivation.  ``second`` and ``final`` are the successive
    trace-dropped stages; ``final`` is the classical Weyl tensor plus
    D_{j[mn]}.
    """

    first_printed: object
    first_corrected: object
    second: object
    final: object


def derived_weyl_chain(space: Space, spec: OmegaSpec, convention: str = RICCI_LAST) -> WeylChain:
    classical_eval = weyl(space, convention)
    dee_eval = dee(space, spec)

    def pieces_at(point):
        d = dee_eval(point)
        # D^a_{a[mn]} and D^a_{j[ma]}
        dtrace_alt = _alt(np.einsum("...aamn->...mn", d))
        dmix = np.einsum("...ajma->...jm", d) - np.einsum("...ajam->...jm", d)
        return classical_eval(point), _alt(d), dtrace_alt, dmix

    # shared by the four stages, so each batch assembles them once
    pieces = partial(memo, key=pieces_at, fn=pieces_at)

    def first(point, trace_sign: float) -> np.ndarray:
        classical, d_alt, dtrace_alt, dmix = pieces(point)
        n = classical.shape[-1]
        out = classical + d_alt
        out -= delta_product("ij,mn->ijmn", dtrace_alt) / (n + 1)
        bracket_m = (n + 1) * dmix + trace_sign * dtrace_alt
        return out + delta_bracket(bracket_m) / (n * n - 1)

    def first_printed(point) -> np.ndarray:
        return first(point, trace_sign=-1.0)

    def first_corrected(point) -> np.ndarray:
        return first(point, trace_sign=+1.0)

    def second(point) -> np.ndarray:
        classical, d_alt, _, dmix = pieces(point)
        return classical + d_alt + delta_bracket(dmix) / (classical.shape[-1] - 1)

    def final(point) -> np.ndarray:
        classical, d_alt, _, _ = pieces(point)
        return classical + d_alt

    return WeylChain(first_printed, first_corrected, second, final)
