"""The omega-parameterized family of mapping invariants.

The deformation object

    omega^i_{jk} = s1 (d^i_j rho_k + d^i_k rho_j)
                 + s2 (F^i_j sigma_k + F^i_k sigma_j)
                 + s3 sigma_{jk} phi^i

is bundled as an :class:`OmegaSpec`.  From it the module assembles the basic
invariants of Thomas and Weyl type, the zeta and D building blocks, the
derived (trace-reduced) invariants, and the correlation identities tying the
derived objects back to the classical Thomas parameter and Weyl tensor.

Every covariant derivative inside a space's invariant uses that space's own
symmetric connection; pass ``deriv_space`` to evaluate the audit alternative
(derivatives taken in another space).

The derived Weyl chain ships two versions of its first stage: the formula as
conventionally printed (``first_printed``) and a re-derived variant
(``first_corrected``) whose D-trace terms enter with the opposite sign.  The
two differ by 2/(N^2-1) times delta-weighted traces D^a_{a[..]}; the
invariance verifier and the audit report measure which of the two is actually
invariant under general mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Chart
from .geometry import (
    RICCI_LAST,
    Space,
    covariant_derivative_arrays,
    curvature_arrays,
    ricci_arrays,
    thomas_arrays,
    weyl_arrays,
)
from .tensor import LastPointMemo, zero_field

__all__ = [
    "SValues",
    "OmegaSpec",
    "calF_jet",
    "nu_jet",
    "omega",
    "omega_jet",
    "omega_square_expanded",
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

    def jets(self, point):
        return (
            self.rho.jet(point),
            self.sigma.jet(point),
            self.F.jet(point),
            self.phi.jet(point),
            self.sigma2.jet(point),
        )


def _pair(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A^i_j v_k + A^i_k v_j; calF is _pair(F, sigma)."""
    half = np.einsum("ij,k->ijk", A, v)
    return half + half.transpose(0, 2, 1)


def _nu(F: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """nu_j = calF^a_{ja} = tr(F) sigma_j + F^a_j sigma_a."""
    return np.trace(F) * sigma + F.T @ sigma


def calF_jet(F, sigma, point) -> tuple[np.ndarray, np.ndarray]:
    """calF^i_{jk} = F^i_j sigma_k + F^i_k sigma_j with its first partials,
    from an affinor field and a 1-form field."""
    Fv, dF = F.jet(point)
    sv, ds = sigma.jet(point)
    half = np.einsum("ijn,k->ijkn", dF, sv) + np.einsum("ij,kn->ijkn", Fv, ds)
    return _pair(Fv, sv), half + half.transpose(0, 2, 1, 3)


def nu_jet(F, sigma, point) -> tuple[np.ndarray, np.ndarray]:
    """The trace nu_j = calF^a_{ja} with its first partials, built directly
    rather than from the full calF jet."""
    Fv, dF = F.jet(point)
    sv, ds = sigma.jet(point)
    grad = (
        np.einsum("aan,j->jn", dF, sv)
        + np.trace(Fv) * ds
        + np.einsum("ajn,a->jn", dF, sv)
        + np.einsum("aj,an->jn", Fv, ds)
    )
    return _nu(Fv, sv), grad


def _omega_value(s: SValues, rho, calF, phi, sigma2) -> np.ndarray:
    s1, s2, s3 = s.as_tuple()
    out = s1 * _pair(np.eye(len(rho)), rho)
    out += s2 * calF
    out += s3 * np.einsum("jk,i->ijk", sigma2, phi)
    return out


def omega(spec: OmegaSpec, point) -> np.ndarray:
    """omega^i_{jk}; symmetric in (j, k) by construction."""
    rho, sigma, F, phi, sigma2 = spec.values(point)
    return _omega_value(spec.s, rho, _pair(F, sigma), phi, sigma2)


def omega_jet(spec: OmegaSpec, point) -> tuple[np.ndarray, np.ndarray]:
    s1, s2, s3 = spec.s.as_tuple()
    rho, drho = spec.rho.jet(point)
    phi, dphi = spec.phi.jet(point)
    sigma2, dsigma2 = spec.sigma2.jet(point)
    calF, dcalF = calF_jet(spec.F, spec.sigma, point)
    delta = np.eye(spec.chart.dim)
    value = _omega_value(spec.s, rho, calF, phi, sigma2)
    grad = s1 * (np.einsum("ij,kn->ijkn", delta, drho) + np.einsum("ik,jn->ijkn", delta, drho))
    grad += s2 * dcalF
    grad += s3 * (
        np.einsum("jkn,i->ijkn", dsigma2, phi) + np.einsum("jk,in->ijkn", sigma2, dphi)
    )
    return value, grad


def omega_square_expanded(spec: OmegaSpec, point) -> np.ndarray:
    """The expanded form of omega^a_{jm} omega^i_{an}, term group by term group.

    Audits the printed expansion against the direct contraction; the two must
    agree to rounding.
    """
    s1, s2, s3 = spec.s.as_tuple()
    rho, sigma, F, phi, sigma2 = spec.values(point)
    n = spec.chart.dim
    delta = np.eye(n)
    F2 = F @ F
    FTr = F.T @ rho  # F^a_j rho_a
    FTs = F.T @ sigma  # F^a_j sigma_a
    Sp = sigma2 @ phi  # sigma_{ja} phi^a
    FS = np.einsum("am,an->mn", F, sigma2)  # F^a_m sigma_{an}
    rho_phi = float(rho @ phi)
    sigma_phi = float(sigma @ phi)
    Fphi = F @ phi

    out = s1 * s1 * np.einsum("ij,m,n->ijmn", delta, rho, rho)
    out += s1 * s1 * np.einsum("im,j,n->ijmn", delta, rho, rho)
    coeff_n = 2.0 * s1 * s1 * np.einsum("j,m->jm", rho, rho)
    coeff_n += s1 * s2 * (np.einsum("m,j->jm", FTr, sigma) + np.einsum("j,m->jm", FTr, sigma))
    coeff_n += s1 * s3 * sigma2 * rho_phi
    out += np.einsum("in,jm->ijmn", delta, coeff_n)
    out += s2 * s2 * (
        np.einsum("in,m,j->ijmn", F, FTs, sigma)
        + np.einsum("in,j,m->ijmn", F, FTs, sigma)
        + np.einsum("im,j,n->ijmn", F2, sigma, sigma)
        + np.einsum("ij,m,n->ijmn", F2, sigma, sigma)
    )
    out += s3 * s3 * np.einsum("jm,n,i->ijmn", sigma2, Sp, phi)
    out += s1 * s2 * (
        np.einsum("in,j,m->ijmn", F, rho, sigma)
        + np.einsum("in,m,j->ijmn", F, rho, sigma)
        + np.einsum("im,j,n->ijmn", F, rho, sigma)
        + np.einsum("im,n,j->ijmn", F, rho, sigma)
        + np.einsum("ij,m,n->ijmn", F, rho, sigma)
        + np.einsum("ij,n,m->ijmn", F, rho, sigma)
    )
    out += s1 * s3 * (
        np.einsum("mn,j,i->ijmn", sigma2, rho, phi)
        + np.einsum("jn,m,i->ijmn", sigma2, rho, phi)
        + np.einsum("jm,n,i->ijmn", sigma2, rho, phi)
    )
    out += s2 * s3 * (
        np.einsum("j,mn,i->ijmn", sigma, FS, phi)
        + np.einsum("m,jn,i->ijmn", sigma, FS, phi)
        + sigma_phi * np.einsum("in,jm->ijmn", F, sigma2)
        + np.einsum("i,n,jm->ijmn", Fphi, sigma, sigma2)
    )
    return out


def basic_thomas(space: Space, spec: OmegaSpec):
    """Basic invariant of the Thomas type: Lsym - omega."""

    def evaluate(point) -> np.ndarray:
        return space.connection(point) - omega(spec, point)

    return evaluate


def zeta(space: Space, spec: OmegaSpec, deriv_space: Space | None = None):
    """zeta_{ij} = s1 rho_{i|j} + s1^2 rho_i rho_j
    + s1 s2 (F^a_i sigma_j + F^a_j sigma_i) rho_a + s1 s3 sigma_{ij} rho_a phi^a."""
    conn_space = deriv_space or space

    def evaluate(point) -> np.ndarray:
        s1, s2, s3 = spec.s.as_tuple()
        if s1 == 0.0:
            return np.zeros((spec.chart.dim,) * 2)
        rho, drho = spec.rho.jet(point)
        sigma = spec.sigma.value(point)
        F = spec.F.value(point)
        phi = spec.phi.value(point)
        sigma2 = spec.sigma2.value(point)
        conn = conn_space.connection(point)
        rho_cov = covariant_derivative_arrays(rho, drho, "l", conn)
        FTr = F.T @ rho
        out = s1 * rho_cov + s1 * s1 * np.outer(rho, rho)
        out += s1 * s2 * (np.outer(FTr, sigma) + np.outer(sigma, FTr))
        out += s1 * s3 * sigma2 * float(rho @ phi)
        return out

    return LastPointMemo(evaluate)


def dee(space: Space, spec: OmegaSpec, deriv_space: Space | None = None):
    """The four-group D^{(s2).(s3).i}_{jmn} building block."""
    conn_space = deriv_space or space

    def evaluate(point) -> np.ndarray:
        s1, s2, s3 = spec.s.as_tuple()
        n = spec.chart.dim
        if s2 == 0.0 and s3 == 0.0:
            return np.zeros((n,) * 4)
        sigma = spec.sigma.value(point)
        F = spec.F.value(point)
        conn = conn_space.connection(point)
        out = np.zeros((n,) * 4)
        if s2 != 0.0:
            FTs = F.T @ sigma
            F2 = F @ F
            out += s2 * s2 * (
                np.einsum("in,m,j->ijmn", F, FTs, sigma)
                + np.einsum("in,j,m->ijmn", F, FTs, sigma)
                + np.einsum("im,j,n->ijmn", F2, sigma, sigma)
            )
            calF, dcalF = calF_jet(spec.F, spec.sigma, point)
            out -= s2 * covariant_derivative_arrays(calF, dcalF, "ull", conn)
        if s3 != 0.0:
            phi, dphi = spec.phi.jet(point)
            sigma2, dsigma2 = spec.sigma2.jet(point)
            Sp = sigma2 @ phi
            out += s3 * s3 * np.einsum("jm,n,i->ijmn", sigma2, Sp, phi)
            sphi = np.einsum("jm,i->ijm", sigma2, phi)
            dsphi = np.einsum("jmn,i->ijmn", dsigma2, phi) + np.einsum(
                "jm,in->ijmn", sigma2, dphi
            )
            out -= s3 * covariant_derivative_arrays(sphi, dsphi, "ull", conn)
        if s2 != 0.0 and s3 != 0.0:
            phi = spec.phi.value(point)
            sigma2 = spec.sigma2.value(point)
            FS = np.einsum("am,an->mn", F, sigma2)
            sigma_phi = float(sigma @ phi)
            Fphi = F @ phi
            out += s2 * s3 * (
                np.einsum("j,mn,i->ijmn", sigma, FS, phi)
                + np.einsum("m,jn,i->ijmn", sigma, FS, phi)
                - sigma_phi * np.einsum("im,jn->ijmn", F, sigma2)
                - np.einsum("i,m,jn->ijmn", Fphi, sigma, sigma2)
            )
        return out

    return LastPointMemo(evaluate)


def basic_weyl(
    space: Space,
    spec: OmegaSpec,
    mode: str = MODE_DIRECT,
    deriv_space: Space | None = None,
):
    """Basic invariant of the Weyl type, in either assembly.

    DIRECT substitutes omega as a whole:
        R - omega_{jm|n} + omega_{jn|m} + omega^a_{jm} omega^i_{an} - (m<->n).
    STRUCTURED uses the zeta / D regrouping:
        R - d^i_j zeta_[mn] - d^i_m zeta_{jn} + d^i_n zeta_{jm} + D_{j[mn]}.
    Both are exposed so the regrouping itself can be audited numerically.
    """
    if mode not in (MODE_DIRECT, MODE_STRUCTURED):
        raise ValueError(f"unknown mode {mode!r}")
    conn_space = deriv_space or space
    zeta_eval = zeta(space, spec, deriv_space)
    dee_eval = dee(space, spec, deriv_space)

    def evaluate(point) -> np.ndarray:
        conn, dconn = space.connection_jet(point)
        riemann = curvature_arrays(conn, dconn)
        n = conn.shape[0]
        delta = np.eye(n)
        if mode == MODE_DIRECT:
            w, dw = omega_jet(spec, point)
            w_cov = covariant_derivative_arrays(w, dw, "ull", conn_space.connection(point))
            quad = np.einsum("ajm,ian->ijmn", w, w)
            out = riemann - w_cov + w_cov.transpose(0, 1, 3, 2)
            return out + quad - quad.transpose(0, 1, 3, 2)
        z = zeta_eval(point)
        d = dee_eval(point)
        out = riemann - np.einsum("ij,mn->ijmn", delta, z - z.T)
        out -= np.einsum("im,jn->ijmn", delta, z)
        out += np.einsum("in,jm->ijmn", delta, z)
        return out + d - d.transpose(0, 1, 3, 2)

    return evaluate


def _thomas_trace_term(spec: OmegaSpec, point) -> np.ndarray:
    """s2 nu_k + s3 sigma_{ka} phi^a."""
    _, s2, s3 = spec.s.as_tuple()
    nu = _nu(spec.F.value(point), spec.sigma.value(point))
    return s2 * nu + s3 * (spec.sigma2.value(point) @ spec.phi.value(point))


def derived_thomas(space: Space, spec: OmegaSpec):
    """Derived associated invariant of the Thomas type (rho eliminated).

    With s = (1, 0, 0) this reduces exactly to the classical Thomas
    projective parameter.  s1 enters only through the coefficient s1/(N+1)
    of the delta-trace correction.
    """

    def evaluate(point) -> np.ndarray:
        s1, s2, s3 = spec.s.as_tuple()
        n = spec.chart.dim
        conn = space.connection(point)
        trace = np.einsum("aja->j", conn)
        reduced = trace - _thomas_trace_term(spec, point)
        sigma = spec.sigma.value(point)
        F = spec.F.value(point)
        phi = spec.phi.value(point)
        sigma2 = spec.sigma2.value(point)
        out = conn - (s1 / (n + 1)) * _pair(np.eye(n), reduced)
        out -= s2 * _pair(F, sigma)
        out -= s3 * np.einsum("jk,i->ijk", sigma2, phi)
        return out

    return evaluate


def derived_thomas_correlation_residual(space: Space, spec: OmegaSpec):
    """Residual of the correlation between the derived invariant and the
    classical Thomas parameter; vanishes identically."""
    derived = derived_thomas(space, spec)

    def evaluate(point) -> np.ndarray:
        s1, s2, s3 = spec.s.as_tuple()
        n = spec.chart.dim
        conn = space.connection(point)
        t_classical = thomas_arrays(conn)
        sigma = spec.sigma.value(point)
        F = spec.F.value(point)
        phi = spec.phi.value(point)
        sigma2 = spec.sigma2.value(point)
        bterm = _thomas_trace_term(spec, point)
        rhs = s1 * t_classical + (1.0 - s1) * conn
        rhs -= s2 * _pair(F, sigma)
        rhs -= s3 * np.einsum("jk,i->ijk", sigma2, phi)
        rhs += (s1 / (n + 1)) * _pair(np.eye(n), bterm)
        return derived(point) - rhs

    return evaluate


@dataclass
class WeylChain:
    """Evaluators for the derived Weyl invariants.

    ``first_printed`` follows the printed first-stage formula;
    ``first_corrected`` flips the sign of its D^a_{a[..]} trace terms per an
    independent re-derivation.  ``second`` and ``final`` are the successive
    trace-dropped stages; ``correlation_residual`` measures final minus
    (classical Weyl + D_{j[mn]}), an identity.
    """

    first_printed: object
    first_corrected: object
    second: object
    final: object
    correlation_residual: object


def derived_weyl_chain(
    space: Space,
    spec: OmegaSpec,
    convention: str = RICCI_LAST,
    deriv_space: Space | None = None,
) -> WeylChain:
    dee_eval = dee(space, spec, deriv_space)

    def pieces_at(point):
        conn, dconn = space.connection_jet(point)
        riemann = curvature_arrays(conn, dconn)
        ric = ricci_arrays(riemann, convention)
        classical = weyl_arrays(riemann, ric)
        d = dee_eval(point)
        d_alt = d - d.transpose(0, 1, 3, 2)
        # D^a_{a[mn]} and D^a_{j[ma]}
        dtrace = np.einsum("aamn->mn", d)
        dtrace_alt = dtrace - dtrace.T
        dmix = np.einsum("ajma->jm", d) - np.einsum("ajam->jm", d)
        return classical, d_alt, dtrace_alt, dmix

    # shared by the four stages, so each point assembles them once
    pieces = LastPointMemo(pieces_at)

    def first(point, trace_sign: float) -> np.ndarray:
        classical, d_alt, dtrace_alt, dmix = pieces(point)
        n = classical.shape[0]
        delta = np.eye(n)
        out = classical + d_alt
        out -= np.einsum("ij,mn->ijmn", delta, dtrace_alt) / (n + 1)
        bracket_m = (n + 1) * dmix + trace_sign * dtrace_alt
        out += np.einsum("im,jn->ijmn", delta, bracket_m) / (n * n - 1)
        out -= np.einsum("in,jm->ijmn", delta, bracket_m) / (n * n - 1)
        return out

    def first_printed(point) -> np.ndarray:
        return first(point, trace_sign=-1.0)

    def first_corrected(point) -> np.ndarray:
        return first(point, trace_sign=+1.0)

    def second(point) -> np.ndarray:
        classical, d_alt, _, dmix = pieces(point)
        n = classical.shape[0]
        delta = np.eye(n)
        out = classical + d_alt
        out += (
            np.einsum("im,jn->ijmn", delta, dmix) - np.einsum("in,jm->ijmn", delta, dmix)
        ) / (n - 1)
        return out

    def final(point) -> np.ndarray:
        classical, d_alt, _, _ = pieces(point)
        return classical + d_alt

    def correlation_residual(point) -> np.ndarray:
        conn, dconn = space.connection_jet(point)
        riemann = curvature_arrays(conn, dconn)
        classical = weyl_arrays(riemann, ricci_arrays(riemann, convention))
        d = dee_eval(point)
        return final(point) - (classical + d - d.transpose(0, 1, 3, 2))

    return WeylChain(first_printed, first_corrected, second, final, correlation_residual)
