import math
import operator

import numpy as np
import pytest

from tensor_invariants.expr import Chart, DomainError, evaluate, parse, print_expr
from tensor_invariants.jets import eval_jet

CHART = Chart(("u", "v", "w"))

# Expressions exercising every operation; all well-defined on [0.5, 2]^3.
CORPUS = [
    "u^2",
    "1/u",
    "ln(1+u^2+v^2+w^2)",
    "sin(u)*cos(v)",
    "exp(0.3*u - 0.2*v)",
    "sqrt(1+u^2)",
    "u*v*w",
    "(u+v)/(1+w^2)",
    "u^(-2) + v^3",
    "sin(u*v) + ln(2+w)",
    "cos(u)^2 - w/v",
]


def test_polynomial_square():
    jet = eval_jet(parse("u^2", CHART), (3.0, 1.0, 1.0))
    assert jet.value == 9.0
    assert jet.grad[0] == 6.0
    assert jet.hess[0, 0] == 2.0


def test_reciprocal_derivatives():
    jet = eval_jet(parse("1/u", CHART), (1.0, 2.0, 3.0))
    assert jet.value == 1.0
    assert jet.grad[0] == pytest.approx(-1.0, abs=1e-15)
    assert jet.hess[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_example_log_partials():
    jet = eval_jet(parse("ln(1+u^2+v^2+w^2)", CHART), (1.0, 2.0, 3.0))
    assert jet.grad[2] == pytest.approx(0.4, abs=1e-15)  # 2w/15
    assert jet.hess[0, 2] == pytest.approx(-2.0 * 2.0 * 1.0 * 3.0 / 15.0**2, abs=1e-14)


def test_truncation_orders():
    jet = eval_jet(parse("sin(u)", CHART), (1.0, 2.0, 3.0), order=1)
    assert jet.hess is None
    jet0 = eval_jet(parse("sin(u)", CHART), (1.0, 2.0, 3.0), order=0)
    assert jet0.grad is None


def test_value_channel_matches_evaluate_exactly():
    rng = np.random.default_rng(3)
    for text in CORPUS:
        node = parse(text, CHART)
        for _ in range(5):
            point = tuple(rng.uniform(0.5, 2.0, 3))
            assert eval_jet(node, point).value == evaluate(node, point)


def test_order_is_at_most_two():
    with pytest.raises(ValueError, match="0..2"):
        eval_jet(parse("u", CHART), (1.0, 2.0, 3.0), order=3)


@pytest.mark.parametrize("text", ["u^2.5", "u^1.5"])
def test_fractional_power_at_zero_has_zero_gradient(text):
    # only the derivatives up to the requested order are formed, so a
    # singular higher derivative does not fail a lower-order jet
    jet = eval_jet(parse(text, CHART), (0.0, 1.0, 1.0), order=1)
    assert jet.value == 0.0
    assert np.all(jet.grad == 0.0)


def test_fractional_power_at_zero_order_two():
    assert np.all(eval_jet(parse("u^2.5", CHART), (0.0, 1.0, 1.0)).hess == 0.0)
    with pytest.raises(DomainError, match="singular"):
        eval_jet(parse("u^1.5", CHART), (0.0, 1.0, 1.0))


def test_domain_error_propagates():
    with pytest.raises(DomainError):
        eval_jet(parse("ln(u-5)", CHART), (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(u-1)", CHART), (1.0, 2.0, 3.0))  # derivative pole at 0


# --- finite-difference oracle ----------------------------------------------

def _fd_grad(node, point, h=1e-4):
    out = np.zeros(3)
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = h
        out[i] = (evaluate(node, point + shift) - evaluate(node, point - shift)) / (2 * h)
    return out


def _fd_hess(node, point, h=1e-4):
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ei, ej = np.zeros(3), np.zeros(3)
            ei[i], ej[j] = h, h
            out[i, j] = (
                evaluate(node, point + ei + ej)
                - evaluate(node, point + ei - ej)
                - evaluate(node, point - ei + ej)
                + evaluate(node, point - ei - ej)
            ) / (4 * h * h)
    return out


def _close(got, want, rel=1e-5, abs_tol=1e-7):
    return np.all(np.abs(got - want) <= abs_tol + rel * np.abs(want))


def test_jets_match_finite_differences_on_corpus():
    rng = np.random.default_rng(11)
    for text in CORPUS:
        node = parse(text, CHART)
        for _ in range(3):
            point = np.array(rng.uniform(0.8, 1.8, 3))
            jet = eval_jet(node, point)
            assert _close(jet.grad, _fd_grad(node, point)), text
            assert _close(jet.hess, _fd_hess(node, point)), text


def test_example_cross_partial_against_finite_difference():
    node = parse("ln(1+u^2+v^2+w^2)", CHART)
    point = np.array([1.0, 2.0, 3.0])
    jet = eval_jet(node, point)
    assert abs(jet.hess[0, 2] - _fd_hess(node, point)[0, 2]) < 1e-6


# --- Leibniz product property against an independent in-test expansion -----

def _leibniz(a, b):
    """(value, grad, hess) of the product of two order-2 jets, by loops."""
    n = len(a.grad)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        grad[i] = a.grad[i] * b.value + a.value * b.grad[i]
        for j in range(n):
            hess[i, j] = (
                a.hess[i, j] * b.value
                + a.grad[i] * b.grad[j]
                + a.grad[j] * b.grad[i]
                + a.value * b.hess[i, j]
            )
    return a.value * b.value, grad, hess


def test_sum_rule_is_componentwise():
    from tensor_invariants.expr import Binary

    rng = np.random.default_rng(4)
    for _ in range(100):
        fa = CORPUS[rng.integers(len(CORPUS))]
        fb = CORPUS[rng.integers(len(CORPUS))]
        point = tuple(rng.uniform(0.8, 1.8, 3))
        na, nb = parse(fa, CHART), parse(fb, CHART)
        ja, jb = eval_jet(na, point), eval_jet(nb, point)
        total = eval_jet(Binary("add", na, nb), point)
        assert total.value == ja.value + jb.value
        assert np.array_equal(total.grad, ja.grad + jb.grad)
        assert np.array_equal(total.hess, ja.hess + jb.hess)


def test_chain_rule_against_naive_composition():
    from tensor_invariants.expr import Unary

    rng = np.random.default_rng(6)
    for _ in range(200):
        text = CORPUS[rng.integers(len(CORPUS))]
        point = tuple(rng.uniform(0.8, 1.8, 3))
        inner = parse(text, CHART)
        jet = eval_jet(inner, point)
        composed = eval_jet(Unary("sin", inner), point)
        g = jet.value
        f1, f2 = math.cos(g), -math.sin(g)
        grad = f1 * jet.grad
        hess = f2 * np.einsum("i,j->ij", jet.grad, jet.grad) + f1 * jet.hess
        assert composed.value == math.sin(g)
        assert np.allclose(composed.grad, grad, rtol=1e-12, atol=1e-12)
        assert np.allclose(composed.hess, hess, rtol=1e-12, atol=1e-11)


def test_product_rule_against_naive_expansion():
    from tensor_invariants.expr import Binary

    rng = np.random.default_rng(5)
    pairs = 0
    while pairs < 500:
        fa = CORPUS[rng.integers(len(CORPUS))]
        fb = CORPUS[rng.integers(len(CORPUS))]
        point = tuple(rng.uniform(0.8, 1.8, 3))
        na, nb = parse(fa, CHART), parse(fb, CHART)
        ja, jb = eval_jet(na, point), eval_jet(nb, point)
        product = eval_jet(Binary("mul", na, nb), point)
        value, grad, hess = _leibniz(ja, jb)
        scale = 1.0 + abs(value)
        assert abs(product.value - value) <= 1e-12 * scale
        assert np.allclose(product.grad, grad, rtol=1e-12, atol=1e-12)
        assert np.allclose(product.hess, hess, rtol=1e-12, atol=1e-11)
        pairs += 1


# --- symbolic oracle ---------------------------------------------------------

def test_engine_matches_sympy_derivatives_on_random_asts():
    # exact partials, so value, gradient and Hessian agree with sympy's
    # symbolic derivatives evaluated to 30 digits
    sp = pytest.importorskip("sympy")
    from test_expr import _random_ast

    from tensor_invariants.expr import Const, Unary, Var

    symbols = sp.symbols("u v w")
    functions = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "ln": sp.log, "sqrt": sp.sqrt}
    arithmetic = {
        "add": operator.add,
        "sub": operator.sub,
        "mul": operator.mul,
        "div": operator.truediv,
    }

    def to_sympy(node):
        if isinstance(node, Const):
            return sp.Rational(node.value)
        if isinstance(node, Var):
            return symbols[node.index]
        if isinstance(node, Unary):
            arg = to_sympy(node.arg)
            return -arg if node.op == "neg" else functions[node.op](arg)
        if node.op == "pow":
            return to_sympy(node.left) ** sp.Rational(node.right.value)
        return arithmetic[node.op](to_sympy(node.left), to_sympy(node.right))

    rng = np.random.default_rng(17)
    checked = 0
    while checked < 200:
        node = _random_ast(rng, 4)
        point = tuple(rng.uniform(0.5, 2.0, 3))
        try:
            jet = eval_jet(node, point, order=2)
        except DomainError:
            continue
        expr = to_sympy(node)
        subs = {x: sp.Rational(c) for x, c in zip(symbols, point)}

        def at_point(e):
            return float(e.evalf(30, subs=subs))

        want = [at_point(expr)]
        want += [at_point(expr.diff(x)) for x in symbols]
        want += [at_point(expr.diff(x, y)) for x in symbols for y in symbols]
        want = np.array(want)
        got = np.concatenate([[jet.value], jet.grad, jet.hess.ravel()])
        close = np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))
        assert close.all(), print_expr(node, CHART)
        checked += 1
