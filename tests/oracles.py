"""Reference implementations that the tests compare the package against.

The package itself evaluates every expression through the compiled programs
of ``tensor_invariants.jets``; these routes reach the same numbers another
way, or one expression at a time:

- :func:`evaluate`, the plain recursive tree walk, node by node: the rule
  ``jets`` holds for each scalar map, and its own ``+ - * /``, independent of
  the compiled programs;
- :func:`eval_jet`, one expression's value and partials at one point,
  through a one-entry program;
- :func:`parse`, the parser fed by :class:`RescanningTokens`, which scans
  each token afresh whenever the parser asks for it;
- :func:`riemannian_weyl`, the projective Weyl assembly reduced for a
  symmetric Ricci tensor;
- :func:`omega_square_residual`, the audit's omega-square measurement one
  random draw at a time, each on a batch of its own;
- :func:`weyl_modes_residual` and :func:`correlation_residuals`, the
  measurements of the audit's basic-Weyl modes and correlation findings the
  same way, and :func:`weyl_correlation_residual`, the Weyl correlation
  residual of one draw, assembled from the evaluators' results;
- :func:`fplanar_zeta_dee`, the printed F-planar zeta and D at one point,
  each entry summed with ``np.einsum`` from the jets it reads;
- :func:`uniform_coefficient`, a sampled coefficient drawn the way the
  samplers once drew it: ``rng.uniform``, then the ``.4f`` text read back
  (:func:`coefficient_by_text`).
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from tensor_invariants import expr
from tensor_invariants.expr import Const, DomainError, Expr, ParseError, Unary, Var
from tensor_invariants.geometry import (
    RICCI_LAST,
    Space,
    _alt,
    curvature,
    delta_bracket,
    ricci_arrays,
    weyl,
)
from tensor_invariants.invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    basic_weyl,
    dee,
    derived_thomas_correlation_residual,
    derived_weyl_chain,
    omega,
    omega_square_expanded,
    reduced_space,
)
from tensor_invariants.jets import compile_program, rule_of, run_program
from tensor_invariants.sampling import random_connection_space, random_omega_spec
from tensor_invariants.tensor import PointBatch, delta_product


def evaluate(node: Expr, point) -> float:
    """Evaluate the tree at a point (list of chart coordinate values)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index])
    if isinstance(node, Unary) and node.op == "neg":
        return -evaluate(node.arg, point)
    if isinstance(node, Unary) or node.op == "pow":
        arg = evaluate(node.arg if isinstance(node, Unary) else node.left, point)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            (value,), checks = rule_of(node)(arg, 0)
        for fails, reason in checks:
            if fails:
                raise DomainError(reason.format(arg), node)
        return float(value)
    left = evaluate(node.left, point)
    right = evaluate(node.right, point)
    if node.op == "div" and right == 0.0:
        raise DomainError("division by zero", node)
    return _ARITHMETIC[node.op](left, right)


_ARITHMETIC = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


class Jet(NamedTuple):
    """One expression's value and partials at a point; None above the order."""

    value: float
    grad: np.ndarray | None
    hess: np.ndarray | None


def eval_jet(node: Expr, point, order: int = 2) -> Jet:
    """Compile one expression and run it at `point`, with partials up to `order`."""
    if not 0 <= order <= 2:
        raise ValueError("jet order must be in 0..2")
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_program(compile_program(node), point, order)
    return Jet(*[c[0] for c in (result if order else (result,))], *[None] * (2 - order))


class RescanningTokens:
    """The parser's tokens, each scanned from the text when the parser asks
    for it: whitespace skipped and both patterns tried again on every peek."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        self._skip_ws()
        pos = self.pos
        if pos >= len(self.text):
            return ("eof", "", pos)
        ch = self.text[pos]
        if ch in "+-*/^()":
            return ("op", ch, pos)
        m = expr._NUMBER_RE.match(self.text, pos)
        if m:
            return ("number", m.group(0), pos)
        m = expr._IDENT_RE.match(self.text, pos)
        if m:
            return ("ident", m.group(0), pos)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def next(self) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


def parse(text: str, chart) -> Expr:
    """``expr.parse`` with its tokens from :class:`RescanningTokens`."""
    toks = RescanningTokens(text)
    node = expr._parse_expr(toks, chart)
    kind, tok, pos = toks.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return node


def riemannian_weyl(space: Space, convention: str = RICCI_LAST):
    """Weyl assembly specialized to symmetric Ricci (Riemannian reduction)."""
    riemann = curvature(space)

    def reduced(point) -> np.ndarray:
        r = riemann(point)
        return r + delta_bracket(ricci_arrays(r, convention)) / (r.shape[-1] - 1)

    return reduced


def omega_square_residual(chart, rng, points) -> float:
    """The largest gap between omega^a_{jm} omega^i_{an} contracted directly
    and its printed expansion, over 50 random omega specs drawn from `rng`,
    each evaluated on the first 3 `points` as a batch of its own."""
    worst = 0.0
    for _ in range(50):
        spec = random_omega_spec(chart, rng)
        batch = PointBatch(points[:3])
        w = omega(spec, batch)
        direct = np.einsum("...ajm,...ian->...ijmn", w, w)
        worst = max(worst, float(np.max(np.abs(direct - omega_square_expanded(spec, batch)))))
    return worst


def _largest(array) -> float:
    return float(np.max(np.abs(array)))


def weyl_modes_residual(chart, rng, points) -> float:
    """The largest gap between the direct and the structured basic Weyl
    invariant over 10 random spaces and omega specs drawn from `rng`, each
    evaluated on the first 3 `points` as a batch of its own."""
    worst = 0.0
    for _ in range(10):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        batch = PointBatch(points[:3])
        direct = basic_weyl(space, spec, MODE_DIRECT)(batch)
        structured = basic_weyl(space, spec, MODE_STRUCTURED)(batch)
        worst = max(worst, _largest(direct - structured))
    return worst


def weyl_correlation_residual(space, spec, point) -> np.ndarray:
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


def correlation_residuals(chart, rng, points) -> tuple[float, float]:
    """The largest Thomas and Weyl correlation residuals over 10 random
    spaces and omega specs drawn from `rng`, each evaluated on the first 2
    `points` as a batch of its own."""
    worst_t = worst_w = 0.0
    for _ in range(10):
        space = random_connection_space(chart, rng)
        spec = random_omega_spec(chart, rng)
        batch = PointBatch(points[:2])
        worst_t = max(worst_t, _largest(derived_thomas_correlation_residual(space, spec)(batch)))
        worst_w = max(worst_w, _largest(weyl_correlation_residual(space, spec, batch)))
    return worst_t, worst_w


def fplanar_zeta_dee(space: Space, F, sigma, point) -> tuple[np.ndarray, np.ndarray]:
    """The printed F-planar zeta_ij and D^i_jmn at one point, from the jets
    of the connection L, the affinor F and the 1-form sigma there:

        zeta_ij = (t_i|j + t_i t_j / (N+1) + (F^a_i t_a sigma_j + sigma_i F^a_j t_a) / 2
                   + (nu_i|j + t_i nu_j + nu_i t_j) / 2) / (N+1),
        D^i_jmn = -calF^i_jm|n / 2,

    with t_j = L^a_ja, nu_j = F^a_a sigma_j + F^a_j sigma_a and calF^i_jm =
    F^i_j sigma_m + F^i_m sigma_j; each covariant derivative adds its index
    last and reads L itself."""
    conn, dconn = space.connection_jet(point)
    Fv, dF = F.jet(point)
    sv, ds = sigma.jet(point)
    n = space.dim
    t = np.einsum("aja->j", conn)
    t_cov = np.einsum("ajan->jn", dconn) - np.einsum("ajn,a->jn", conn, t)
    nu = np.einsum("aa,j->j", Fv, sv) + np.einsum("aj,a->j", Fv, sv)
    dnu = (
        np.einsum("aan,j->jn", dF, sv)
        + np.einsum("aa,jn->jn", Fv, ds)
        + np.einsum("ajn,a->jn", dF, sv)
        + np.einsum("aj,an->jn", Fv, ds)
    )
    nu_cov = dnu - np.einsum("ajn,a->jn", conn, nu)
    Ft = np.einsum("ai,a->i", Fv, t)
    zeta = t_cov + np.einsum("i,j->ij", t, t) / (n + 1)
    zeta += (np.einsum("i,j->ij", Ft, sv) + np.einsum("i,j->ij", sv, Ft)) / 2
    zeta += (nu_cov + np.einsum("i,j->ij", t, nu) + np.einsum("i,j->ij", nu, t)) / 2
    calF = np.einsum("ij,m->ijm", Fv, sv) + np.einsum("im,j->ijm", Fv, sv)
    dcalF = (
        np.einsum("ijn,m->ijmn", dF, sv)
        + np.einsum("ij,mn->ijmn", Fv, ds)
        + np.einsum("imn,j->ijmn", dF, sv)
        + np.einsum("im,jn->ijmn", Fv, ds)
    )
    calF_cov = (
        dcalF
        + np.einsum("ian,ajm->ijmn", conn, calF)
        - np.einsum("ajn,iam->ijmn", conn, calF)
        - np.einsum("amn,ija->ijmn", conn, calF)
    )
    return zeta / (n + 1), -0.5 * calF_cov


def coefficient_by_text(value: float) -> Expr:
    """`value` printed to 4 decimals and read back: a leading ``-``
    (``-0.0000`` too) makes a negated constant, as ``parse`` reads it."""
    text = f"{value:.4f}"
    if text.startswith("-"):
        return Unary("neg", Const(float(text[1:])))
    return Const(float(text))


def uniform_coefficient(rng, low: float, high: float) -> Expr:
    """``sampling._draw`` by ``rng.uniform(low, high)`` and the text round trip."""
    return coefficient_by_text(rng.uniform(low, high))
