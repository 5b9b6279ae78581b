"""The omega-parameterized family of mapping invariants.

From the deformation object omega of an :class:`OmegaSpec` (see
``deformation``, whose names this module also exports) the module
assembles the basic invariants of Thomas and Weyl type, the zeta and D
building blocks, the derived (trace-reduced) invariants, and the
correlation identities tying the derived objects back to the classical
Thomas parameter and Weyl tensor.

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

The derived Weyl chain ships two versions of its first stage: the formula as
conventionally printed (``first_printed``) and a re-derived variant
(``first_corrected``) whose D-trace terms enter with the opposite sign.  The
two differ by 2/(N^2-1) times delta-weighted traces D^a_{a[..]}; the
invariance verifier and the audit report measure which of the two is actually
invariant under general mappings.  The paper audit checks ``final``
against W(Lambda') and the D traces.

Every evaluator takes one point or a ``tensor.PointBatch`` and then gives
arrays with a leading batch axis, each point's entries bit-identical to its
evaluation alone (see ``tensor``).  An evaluator that reads several cached
parts makes a plain point one batch first, so that its parts share that
batch's cache.  Zeta, D, the structured basic Weyl invariant, the derived
Thomas invariant and its correlation residual are thin evaluators over
array cores (``zeta_arrays``, ``dee_arrays``, ``basic_weyl_arrays``,
``derived_thomas_arrays``, ``derived_thomas_correlation_arrays``), as omega
is in ``deformation``: the evaluator reads the batch, keeps the cache key
(the reduced space's key plus the kind, so each is computed once per batch
by any reader) and the branches that leave a term group with a zero s-value
unread, and the core does the arithmetic, with s-values stacked as
``deformation`` describes.  So the audit evaluates many random draws of
spaces and specs as one stack, each draw's entries the bits of its own
evaluators: :func:`stack_draws` reads the draws in groups, each group's
fields one program run on one batch, and stacks what the cores read,
:func:`reduced_arrays` sums the reduced connections as the reduced spaces
do, and :func:`weyl_correlation_arrays` is the core of the Weyl correlation
identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .deformation import (
    OmegaSpec,
    SValues,
    _calF_arrays,
    _delta_pair,
    _delta_pair_jet,
    _lift,
    _nu,
    _pair,
    _sphi_arrays,
    _sphi_jet,
    calF_jet,
    nu_jet,
    omega,
    omega_arrays,
    omega_jet,
    omega_jet_arrays,
    omega_square_arrays,
    omega_square_expanded,
)
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
    _batch,
    batch_shape,
    contract,
    delta_product,
    memo,
    run_grouped,
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
    "reduced_arrays",
    "stack_draws",
    "basic_thomas",
    "zeta",
    "zeta_arrays",
    "dee",
    "dee_arrays",
    "basic_weyl",
    "basic_weyl_arrays",
    "derived_thomas",
    "derived_thomas_arrays",
    "derived_thomas_correlation_residual",
    "derived_thomas_correlation_arrays",
    "weyl_correlation_arrays",
    "WeylChain",
    "derived_weyl_chain",
    "MODE_DIRECT",
    "MODE_STRUCTURED",
]

MODE_DIRECT = "direct"
MODE_STRUCTURED = "structured"


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
    fields, so equal reduced spaces share their results in a batch.  At a
    zero s1, Lambda is Lambda' and reads no rho.
    """
    rho = rho and spec.s.s1 != 0.0
    if rho:
        base = reduced_space(space, spec, rho=False)

        def delta(point):
            return tuple(-spec.s.s1 * x for x in _delta_pair_jet(*spec.rho.jet(point)))

    else:
        base, part = space, replace(spec, s=replace(spec.s, s1=0.0))

        def delta(point):
            return tuple(-x for x in omega_jet(part, point))

    reduced = base.deformed(delta)
    reduced.key = _key("reduced", space, spec, rho)
    return reduced


def stack_draws(draws, points, rho: bool = True) -> tuple:
    """What the array cores read of the (space, spec) `draws`, stacked on a
    leading draw axis: the s-values, each with a unit axis per batch axis;
    the jets (values, partials) of the connection and, if `rho`, of rho
    (else None); and D's term groups (:func:`dee_arrays`), the values of F
    and sigma with the calF jet, and of sigma_{jk} and phi with the
    sigma_{jk} phi^i jet.  The draws are read in groups on batches of
    `points` (one point or a list), each group's expression fields (the
    connections' coefficients too) run as one program within
    ``tensor.GROUP_ENTRIES`` entries (:func:`tensor.run_grouped`); taken
    from an iterator, a group's draws and batch die once it is read."""

    def fields(spec):
        return (spec.F, spec.sigma, spec.sigma2, spec.phi) + ((spec.rho,) if rho else ())

    s_values, jets = [], []
    grouped = run_grouped(draws, lambda draw: (draw[0].coefficients,) + fields(draw[1]), points, 1)
    for (space, spec), batch in grouped:
        s_values.append(spec.s.as_tuple())
        jets.append([space.connection_jet(batch)] + [f.jet(batch) for f in fields(spec)])
    lead = (len(s_values),) + (1,) * (np.ndim(points) - 1)
    s = tuple(np.reshape(column, lead) for column in zip(*s_values))
    conn, F, sigma, sigma2, phi, *rho_jet = (
        tuple(np.stack(channel) for channel in zip(*field)) for field in zip(*jets)
    )
    calF_group = (F[0], sigma[0]) + _calF_arrays(*F, *sigma)
    sphi_group = (sigma2[0], phi[0]) + _sphi_arrays(*sigma2, *phi)
    return s, conn, rho_jet[0] if rho else None, calF_group, sphi_group


def reduced_arrays(s, conn_jet, calF_jet, sphi_jet, rho_jet=None) -> tuple:
    """The connection jet of :func:`reduced_space` from stacked arrays:
    Lambda' = L + (-omega') from the jets of L, calF and sigma_{jk} phi^i;
    given the rho jet too, Lambda = Lambda' + (-s1 (d^i_j rho_k + d^i_k
    rho_j)).  These are the deformed spaces' sums in their order (x - y is
    x + (-y) in IEEE arithmetic), so each draw keeps its bits."""
    conn = conn_jet[0]
    omega_part = omega_jet_arrays(s, (None, calF_jet, sphi_jet), conn.shape, conn.dtype)
    out = tuple(x - y for x, y in zip(conn_jet, omega_part))
    if rho_jet is None:
        return out
    weights = _lift(s[:1], 3) + _lift(s[:1], 4)
    return tuple(x - w * y for x, w, y in zip(out, weights, _delta_pair_jet(*rho_jet)))


def basic_thomas(space: Space, spec: OmegaSpec):
    """Basic invariant of the Thomas type: Lambda = Lsym - omega."""
    return reduced_space(space, spec).connection


def _groups(spec: OmegaSpec, point, jets: bool):
    """Yields the s2 and the s3 term group that the zeta and D cores read,
    each read when it is asked for, None where the s-value is zero: the
    values of F and sigma, and of sigma_{jk} and phi, each followed by the
    jet of calF, respectively sigma_{jk} phi^i, if `jets`."""
    for s, a, b, jet in (
        (spec.s.s2, spec.F, spec.sigma, calF_jet),
        (spec.s.s3, spec.sigma2, spec.phi, _sphi_jet),
    ):
        if s == 0.0:
            yield None
        else:
            yield (a.value(point), b.value(point)) + (jet(a, b, point) if jets else ())


def zeta(space: Space, spec: OmegaSpec):
    """zeta_{ij} = s1 rho_{i|j} + s1^2 rho_i rho_j
    + s1 s2 (F^a_i sigma_j + F^a_j sigma_i) rho_a + s1 s3 sigma_{ij} rho_a phi^a;
    keyed like Lambda, whose omega it reads."""

    def evaluate(point) -> np.ndarray:
        if spec.s.s1 == 0.0:
            return np.zeros(batch_shape(point) + (spec.chart.dim,) * 2)
        rho, drho = spec.rho.jet(point)
        conn = space.connection(point)
        return zeta_arrays(spec.s.as_tuple(), rho, drho, conn, *_groups(spec, point, False))

    return partial(memo, key=_key("zeta", space, spec, True), fn=evaluate)


def zeta_arrays(s: tuple, rho, drho, conn, F_sigma=None, sigma2_phi=None) -> np.ndarray:
    """zeta from the s-values (stacked as in :func:`omega_arrays`), the values
    and partials of rho, the connection values, the values (F, sigma) of the
    s2 group and (sigma_{jk}, phi) of the s3 group; a group given as None is
    left out."""
    s1, s2, s3 = _lift(s, 2)
    rho_cov = covariant_derivative_arrays(rho, drho, "l", conn)
    out = s1 * rho_cov + s1 * s1 * contract("i,j->ij", rho, rho)
    if F_sigma is not None:
        F, sigma = F_sigma
        FTr = contract("ai,a->i", F, rho)
        out += s1 * s2 * (contract("i,j->ij", FTr, sigma) + contract("i,j->ij", sigma, FTr))
    if sigma2_phi is not None:
        sigma2, phi = sigma2_phi
        out += s1 * s3 * contract("ij,->ij", sigma2, contract("a,a->", rho, phi))
    return out


def dee(space: Space, spec: OmegaSpec):
    """The four-group D^{(s2).(s3).i}_{jmn} building block; keyed like
    Lambda', whose omega it reads."""

    def evaluate(point) -> np.ndarray:
        if spec.s.s2 == 0.0 and spec.s.s3 == 0.0:
            return np.zeros(batch_shape(point) + (spec.chart.dim,) * 4)
        conn = space.connection(point)
        return dee_arrays(spec.s.as_tuple(), conn, _groups(spec, point, True))

    return partial(memo, key=_key("dee", space, spec, False), fn=evaluate)


def dee_arrays(s: tuple, conn, groups) -> np.ndarray:
    """D from the s-values (stacked as in :func:`omega_arrays`), the
    connection values and its two term groups, as values: (F, sigma, calF,
    its partials) for s2, then (sigma_{jk}, phi, sigma_{jk} phi^i, its
    partials) for s3.  A group given as None is left out.  The sum starts
    from zeros and adds one group at a time; the s3 group is taken from
    `groups` only after the s2 group is summed, so that an evaluator that
    passes a generator forms its jet no earlier."""
    s1, s2, s3 = _lift(s, 4)
    out = np.zeros(conn.shape + conn.shape[-1:], conn.dtype)
    groups = iter(groups)
    calF_group = next(groups)
    if calF_group is not None:
        F, sigma, calF, dcalF = calF_group
        FTs = contract("aj,a->j", F, sigma)
        F2 = contract("ia,aj->ij", F, F)
        # a j<->m swapped view is the mirror term, bit for bit: the same
        # products in the same operand order
        FFs = contract("in,m,j->ijmn", F, FTs, sigma)
        out += s2 * s2 * (
            FFs + FFs.swapaxes(-3, -2) + contract("im,j,n->ijmn", F2, sigma, sigma)
        )
        out -= s2 * covariant_derivative_arrays(calF, dcalF, "ull", conn)
    sphi_group = next(groups)
    if sphi_group is not None:
        sigma2, phi, sphi, dsphi = sphi_group
        Sp = contract("ja,a->j", sigma2, phi)
        out += s3 * s3 * contract("jm,n,i->ijmn", sigma2, Sp, phi)
        out -= s3 * covariant_derivative_arrays(sphi, dsphi, "ull", conn)
    if calF_group is not None and sphi_group is not None:
        FS = contract("am,an->mn", F, sigma2)
        Fphi = contract("ia,a->i", F, phi)
        sFp = contract("j,mn,i->ijmn", sigma, FS, phi)
        out += s2 * s3 * (
            sFp
            + sFp.swapaxes(-3, -2)
            - contract(",im,jn->ijmn", contract("a,a->", sigma, phi), F, sigma2)
            - contract("i,m,jn->ijmn", Fphi, sigma, sigma2)
        )
    return out


def basic_weyl(space: Space, spec: OmegaSpec, mode: str = MODE_DIRECT):
    """Basic invariant of the Weyl type, in either assembly.

    DIRECT is the curvature of Lambda = L - omega, which equals
        R - omega_{jm|n} + omega_{jn|m} + omega^a_{jm} omega^i_{an} - (m<->n).
    STRUCTURED uses the zeta / D regrouping (:func:`basic_weyl_arrays`).
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
        return basic_weyl_arrays(riemann(point), zeta_eval(point), dee_eval(point))

    return evaluate


def basic_weyl_arrays(riemann, z, d) -> np.ndarray:
    """The structured basic Weyl invariant
        R - d^i_j zeta_[mn] - d^i_m zeta_{jn} + d^i_n zeta_{jm} + D_{j[mn]}
    from the curvature, zeta and D, over any leading axes."""
    out = riemann - delta_product("ij,mn->ijmn", _alt(z))
    out -= delta_bracket(z)
    return out + _alt(d)


def derived_thomas(space: Space, spec: OmegaSpec):
    """Derived associated invariant of the Thomas type (rho eliminated).

    Lambda' minus s1 times its Thomas correction, so s1 enters only through
    the coefficient s1/(N+1) of the delta-trace term.  With s = (1, 0, 0)
    this is the classical Thomas projective parameter.
    """
    reduced = reduced_space(space, spec, rho=False)
    reduced_thomas = thomas(reduced)

    def evaluate(point) -> np.ndarray:
        point = _batch(point)
        conn = reduced.connection(point)
        return derived_thomas_arrays(spec.s.as_tuple(), conn, reduced_thomas(point))

    return evaluate


def derived_thomas_arrays(s: tuple, conn, conn_thomas) -> np.ndarray:
    """The derived Thomas invariant from the s-values (stacked as in
    :func:`omega_arrays`), the values of Lambda' and its Thomas parameter."""
    s1 = _lift(s, 3)[0]
    return conn - s1 * (conn - conn_thomas)


def derived_thomas_correlation_residual(space: Space, spec: OmegaSpec):
    """Residual of the correlation between the derived invariant and the
    classical Thomas parameter; vanishes identically."""
    derived = derived_thomas(space, spec)

    def evaluate(point) -> np.ndarray:
        point = _batch(point)
        conn = space.connection(point)
        values = [f.value(point) for f in (spec.F, spec.sigma, spec.sigma2, spec.phi)]
        return derived_thomas_correlation_arrays(spec.s.as_tuple(), conn, derived(point), *values)

    return evaluate


def derived_thomas_correlation_arrays(s: tuple, conn, derived, F, sigma, sigma2, phi):
    """The derived Thomas invariant `derived` minus its correlation form
        s1 T + (1 - s1) L - s2 calF - s3 sigma_{jk} phi^i
        + s1/(N+1) (d^i_j b_k + d^i_k b_j),  b = s2 nu + s3 sigma_{ka} phi^a,
    from the s-values (stacked as in :func:`omega_arrays`), the connection
    values L and the field values."""
    s1, s2, s3 = _lift(s, 3)
    b2, b3 = _lift(s, 1)[1:]
    n = conn.shape[-1]
    bterm = b2 * _nu(F, sigma) + b3 * contract("ka,a->k", sigma2, phi)
    rhs = s1 * thomas_arrays(conn) + (1.0 - s1) * conn
    rhs -= s2 * _pair(F, sigma)
    rhs -= s3 * contract("jk,i->ijk", sigma2, phi)
    rhs += (s1 / (n + 1)) * _delta_pair(bterm)
    return derived - rhs


def _dee_traces(d):
    """D^a_{a[mn]} and D^a_{j[ma]}: the D traces of the Weyl chain."""
    trace = _alt(np.einsum("...aamn->...mn", d))
    return trace, np.einsum("...ajma->...jm", d) - np.einsum("...ajam->...jm", d)


def _first_stage_arrays(head, trace, mix, trace_sign: float) -> np.ndarray:
    """The first Weyl stage on `head`: head - d^i_j A_mn / (N+1) + (d^i_m B_jn
    - d^i_n B_jm) / (N^2-1), A = `trace`, B = (N+1) `mix` + `trace_sign` A."""
    n = head.shape[-1]
    out = head - delta_product("ij,mn->ijmn", trace) / (n + 1)
    return out + delta_bracket((n + 1) * mix + trace_sign * trace) / (n * n - 1)


def weyl_correlation_arrays(final, reduced_weyl, d) -> np.ndarray:
    """The corrected first stage minus W(Lambda') (Lambda' = L - omega
    without rho), zero under the shipped Ricci convention: that stage on the
    head ``final`` - W(Lambda'), over any leading axes."""
    return _first_stage_arrays(final - reduced_weyl, *_dee_traces(d), 1.0)


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
    def pieces_at(point):  # W and D read from the batch's cache, where rows share them
        d = dee(space, spec)(point)
        return (weyl(space, convention)(point) + _alt(d),) + _dee_traces(d)

    # shared by the stages of every chain on this D and convention, so each
    # batch assembles them once: the final stage W + D_{j[mn]}, and D's traces
    pieces = partial(memo, key=_key("weyl chain", space, spec, False) + (convention,), fn=pieces_at)

    # each first stage forms final - d^i_j A_mn / (N+1) anew: kept in the cache,
    # it would hold one more N^4 array per block for a subtraction.  Under ``last``
    # the corrected stage is W(Lambda'), the chain's core (weyl_correlation_arrays)
    def first_printed(point) -> np.ndarray:
        return _first_stage_arrays(*pieces(point), -1.0)

    def first_corrected(point) -> np.ndarray:
        return _first_stage_arrays(*pieces(point), +1.0)

    def second(point) -> np.ndarray:
        final, _, dmix = pieces(point)
        return final + delta_bracket(dmix) / (final.shape[-1] - 1)

    def final(point) -> np.ndarray:
        return pieces(point)[0]

    return WeylChain(first_printed, first_corrected, second, final)
