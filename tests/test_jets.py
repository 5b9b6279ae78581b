import gc
import math
import operator
import warnings
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest

from oracles import eval_jet, evaluate
from tensor_invariants import jets, sampling
from tensor_invariants.expr import (
    FUNCTIONS,
    Binary,
    Chart,
    Const,
    DomainError,
    Unary,
    Var,
    parse,
    print_expr,
)
from tensor_invariants.jets import compile_program, run_program
from tensor_invariants.tensor import PointBatch, TensorField, batch_shape

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


# beside the corpus: division by a variable and by a constant, negation,
# the constants 0.0 and -0.0 (as entries, so a value's sign shows), and
# u^0, u^1 and u^1.5, whose rules take their own branches
VALUE_TEXTS = CORPUS + ["v/u", "u/4", "-u", "-(v*w) + u", "u^0", "u^1", "u^1.5"]
VALUE_ENTRIES = [parse(text, CHART) for text in VALUE_TEXTS] + [
    Const(0.0),
    Const(-0.0),
    Binary("mul", Const(-0.0), Var(0)),
    Binary("add", Var(1), Const(-0.0)),
]


@pytest.mark.parametrize("index", range(len(VALUE_ENTRIES)))
def test_an_order_0_run_gives_the_value_channel_of_orders_1_and_2(index):
    # TensorField.value reads an order-1 or order-2 run's value channel in
    # place of an order-0 run, so the three give one value the same bits
    program = compile_program(VALUE_ENTRIES[index])
    batch = np.random.default_rng(20 + index).uniform(0.5, 2.0, (6, 3))
    for points in (batch[0], batch):
        values = run_program(program, points, 0)
        assert values.shape == (1,) + points.shape[:-1]
        for order in (1, 2):
            assert run_program(program, points, order)[0].tobytes() == values.tobytes()


@pytest.mark.parametrize("text, lowest", [("sqrt(u)", 1), ("u^1.5", 2)])
def test_a_singular_derivative_fails_only_the_orders_that_form_it(text, lowest):
    # order 0 forms no derivative, so it keeps the value checks alone
    program = compile_program(parse(text, CHART))
    for points in ((0.0, 1.0, 2.0), np.array([(1.0, 1.0, 2.0), (0.0, 1.0, 2.0)])):
        assert np.isfinite(run_program(program, points, 0)).all()
        for order in range(1, lowest):
            run_program(program, points, order)  # raises nothing
        with pytest.raises(DomainError, match="singular at zero"):
            run_program(program, points, lowest)


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


# (text, u, the lowest failing order, reason, the failing subexpression); the
# other coordinates are v = 2, w = 3
DOMAIN_ERRORS = [
    ("v + ln(u)*w", 0.0, 0, "ln of non-positive value 0.0", "ln(u)"),
    ("v + ln(u)*w", -1.5, 0, "ln of non-positive value -1.5", "ln(u)"),
    ("v*sqrt(u)", -4.0, 0, "sqrt of negative value -4.0", "sqrt(u)"),
    ("v*sqrt(u)", 0.0, 1, "sqrt derivative singular at zero", "sqrt(u)"),
    ("exp(u) - w", 710.0, 0, "exp overflow at 710.0", "exp(u)"),
    ("v + u^(-2)", 0.0, 0, "zero base with negative exponent", "u^(-2)"),
    ("v + u^0.5", -1.0, 0, "negative base -1.0 with non-integer exponent", "u^0.5"),
    ("v*u^300", 100.0, 0, "pow overflow", "u^300"),
    ("v*u^1.5", 0.0, 2, "pow derivative singular at zero base", "u^1.5"),
    ("v*u^0.5", 1e-320, 2, "pow derivative overflow", "u^0.5"),
    ("w + v/u", 0.0, 0, "division by zero", "v/u"),
]


@pytest.mark.parametrize("text, u, lowest, reason, failing", DOMAIN_ERRORS)
def test_domain_errors_keep_their_reason_and_subexpression(text, u, lowest, reason, failing):
    # on a plain point and as the middle row of a batch, at every order: the
    # orders below the lowest failing one never form the failing derivative
    program = compile_program(parse(text, CHART))
    point = (u, 2.0, 3.0)
    batch = np.array([(1.5, 2.0, 3.0), point, (0.75, 2.0, 3.0)])
    for order in range(3):
        for at in (point, batch):
            if order < lowest:
                run_program(program, at, order)
                continue
            with pytest.raises(DomainError) as raised:
                run_program(program, at, order)
            assert raised.value.reason == reason, (order, at)
            assert raised.value.node == parse(failing, CHART), (order, at)


@pytest.mark.parametrize(
    "text, u, reason",
    [
        ("sin(u*u)", 1e200, "sin of non-finite value inf"),  # the product overflows
        ("cos(u*u)", -1e200, "cos of non-finite value inf"),
        ("exp(u)", 709.9, "exp overflow at 709.9"),  # math.exp raises here
    ],
)
def test_overflowing_map_arguments_are_domain_errors(text, u, reason):
    program = compile_program(parse(text, CHART))
    for order in range(3):
        with pytest.raises(DomainError) as raised, np.errstate(over="ignore"):
            run_program(program, (u, 2.0, 3.0), order)
        assert raised.value.reason == reason and raised.value.node == parse(text, CHART)


def test_every_function_of_the_grammar_has_one_rule():
    assert set(FUNCTIONS) == set(jets.RULES)


# --- the rules of the scalar maps, on their own ---------------------------------

def _pow_rule(p):
    return jets.rule_of(Binary("pow", Var(0), Const(p)))


# (rule, its derivatives up to order 2 by math and Python **, the arguments)
RULE_REFERENCES = [
    (jets.RULES["sin"], lambda x: (math.sin(x), math.cos(x), -math.sin(x)), (-20.0, 20.0)),
    (jets.RULES["cos"], lambda x: (math.cos(x), -math.sin(x), -math.cos(x)), (-20.0, 20.0)),
    (jets.RULES["exp"], lambda x: (math.exp(x),) * 3, (-20.0, 20.0)),
    (jets.RULES["ln"], lambda x: (math.log(x), 1.0 / x, -(1.0 / x) * (1.0 / x)), (1e-3, 50.0)),
    (
        jets.RULES["sqrt"],
        lambda x: (math.sqrt(x), 0.5 / math.sqrt(x), -0.5 * (0.5 / math.sqrt(x)) / x),
        (1e-3, 50.0),
    ),
] + [
    (_pow_rule(p), lambda x, p=p: (x**p, p * x ** (p - 1), p * (p - 1) * x ** (p - 2)), span)
    for p, span in [
        (2.0, (-3.0, 3.0)),
        (3.0, (-3.0, 3.0)),
        (-1.0, (-3.0, 3.0)),
        (-2.0, (-3.0, 3.0)),
        (2.5, (1e-3, 4.0)),
        (1.5, (1e-3, 4.0)),
        (0.5, (1e-3, 4.0)),
        (300.0, (0.5, 2.0)),
    ]
]


@pytest.mark.parametrize("index", range(len(RULE_REFERENCES)))
def test_each_rule_matches_math_within_two_ulp(index):
    # on a whole array and on each float alone, at every order: each channel
    # within 2 ulp of math and Python **, and no check fires in the domain
    rule, reference, (low, high) = RULE_REFERENCES[index]
    xs = np.random.default_rng(100 + index).uniform(low, high, 64)
    for order in range(3):
        derivs, checks = rule(xs, order)
        assert len(derivs) == order + 1
        assert not any(np.count_nonzero(fails) for fails, _ in checks)
        for r, x in enumerate(xs.tolist()):
            alone, _ = rule(x, order)
            for k, want in enumerate(reference(x)[: order + 1]):
                got = np.broadcast_to(derivs[k], xs.shape)[r]
                assert abs(got - want) <= 2 * math.ulp(want), (index, order, k, x)
                assert float(alone[k]) == got, (index, order, k, x)


def _first_reason(checks, row=()):
    """The reason of the first check that fires (at `row` of an array call)."""
    for fails, reason in checks:
        if np.asarray(fails)[row]:
            return reason
    return None


# (rule, argument, order, the reason text today's scalar messages give)
RULE_EDGES = [
    (jets.RULES["sin"], math.inf, 0, "sin of non-finite value inf"),
    (jets.RULES["cos"], -math.inf, 2, "cos of non-finite value -inf"),
    (jets.RULES["exp"], 710.0, 0, "exp overflow at 710.0"),
    (jets.RULES["exp"], math.nan, 1, "exp overflow at nan"),
    (jets.RULES["ln"], 0.0, 0, "ln of non-positive value 0.0"),
    (jets.RULES["ln"], -1.5, 2, "ln of non-positive value -1.5"),
    (jets.RULES["sqrt"], -4.0, 1, "sqrt of negative value -4.0"),
    (jets.RULES["sqrt"], 0.0, 0, None),
    (jets.RULES["sqrt"], 0.0, 1, "sqrt derivative singular at zero"),
    (_pow_rule(-2.0), 0.0, 2, "zero base with negative exponent"),
    (_pow_rule(0.5), -1.0, 0, "negative base -1.0 with non-integer exponent"),
    (_pow_rule(300.0), 100.0, 1, "pow overflow"),
    (_pow_rule(2.0), math.nan, 0, "pow overflow"),
    (_pow_rule(1.5), 0.0, 1, None),
    (_pow_rule(1.5), 0.0, 2, "pow derivative singular at zero base"),
    (_pow_rule(0.5), 1e-320, 1, None),
    (_pow_rule(0.5), 1e-320, 2, "pow derivative overflow"),
    (_pow_rule(-1.0), 1e-320, 0, "pow overflow"),
    (_pow_rule(-1.0), 1e-160, 1, "pow derivative overflow"),
]


@pytest.mark.parametrize("rule, x, order, reason", RULE_EDGES)
def test_each_domain_edge_gives_its_scalar_reason_on_its_row(rule, x, order, reason):
    # a float alone, and the middle row of an array whose other rows pass
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, alone = rule(x, order)
        _, together = rule(np.array([1.25, x, 0.75]), order)
    found = _first_reason(alone)
    assert (found and found.format(x)) == reason
    assert [_first_reason(together, r) for r in range(3)] == [None, found, None]


# each ufunc the rules use, and every exponent np.power is called with: those
# of the pow tests here and their derivatives' (x^1 and x^0 are not computed)
UFUNCS = [np.sin, np.cos, np.exp, np.log, np.sqrt] + [
    lambda x, e=e: np.power(x, e)
    for e in sorted(
        {p - k for p in (2.0, 3.0, 2.5, -1.0, -2.0, 0.5, 1.5, 300.0) for k in range(3)} - {0.0, 1.0}
    )
]


@pytest.mark.parametrize("index", range(len(UFUNCS)))
def test_each_ufunc_gives_a_row_the_same_bits_in_any_batch(index):
    # SIMD dispatch depends on the machine: one element, a float alone, every
    # length from 1 to 300, offset starts, a strided column and a misaligned
    # buffer all give each argument the same bits
    ufunc = UFUNCS[index]
    rng = np.random.default_rng(200 + index)
    xs = rng.uniform(-30.0, 30.0, 300) if index < 3 else rng.uniform(0.05, 4.0, 300)
    alone = np.array([ufunc(xs[i : i + 1])[0] for i in range(len(xs))])
    assert np.array([ufunc(x) for x in xs.tolist()]).tobytes() == alone.tobytes()
    for length in range(1, len(xs) + 1):
        assert ufunc(xs[:length]).tobytes() == alone[:length].tobytes(), length
    for offset in range(1, 9):
        assert ufunc(xs[offset:]).tobytes() == alone[offset:].tobytes(), offset
    assert ufunc(np.stack([xs, xs], 1)[:, 0]).tobytes() == alone.tobytes()
    misaligned = np.empty(xs.nbytes + 1, np.uint8)[1:].view(np.float64)
    misaligned[:] = xs
    assert not misaligned.flags.aligned
    assert ufunc(misaligned).tobytes() == alone.tobytes()


# --- how a failing run reports its error ----------------------------------------

def test_a_constant_subtrees_failure_names_the_first_row():
    # sqrt(0) fails on every row at order 1 and up, and the third row fails
    # ln(u) earlier in the same entry: the first row's failure is the one
    program = compile_program(parse("ln(u) + sqrt(0)*v", CHART))
    batch = np.array([(1.5, 2.0, 3.0), (0.75, 2.0, 3.0), (-1.0, 2.0, 3.0)])
    with pytest.raises(DomainError) as raised:
        run_program(program, batch, 0)
    assert raised.value.reason == "ln of non-positive value -1.0"
    for order in (1, 2):
        with pytest.raises(DomainError) as raised:
            run_program(program, batch, order)
        assert raised.value.reason == "sqrt derivative singular at zero"
        assert raised.value.node == parse("sqrt(0)", CHART)
        with pytest.raises(DomainError, match="sqrt derivative singular at zero"):
            run_program(program, batch[:0], order)


@pytest.mark.parametrize("text", ["exp(ln(u))", "ln(u)^0"])
def test_a_failed_check_raises_though_a_later_op_absorbs_its_value(text):
    # exp(-inf) is 0 and (-inf)^0 is 1: the result is finite, the run fails
    program = compile_program(parse(text, CHART))
    batch = np.array([(1.5, 2.0, 3.0), (0.75, 2.0, 3.0), (0.0, 2.0, 3.0)])
    with pytest.raises(DomainError) as raised:
        run_program(program, batch, 0)
    assert raised.value.reason == "ln of non-positive value 0.0"
    assert raised.value.node == parse("ln(u)", CHART)


def test_a_failing_run_warns_nothing_and_keeps_the_error_state():
    # no numpy error state set here: the run sets its own, for this run only
    texts = ["ln(u) + 1/v", "sqrt(w)*exp(1000*u)", "u^(-2) + v^0.5 + sin(u*1e300*u)"]
    program = compile_program(*(parse(text, CHART) for text in texts))
    batch = np.array([(0.0, 0.0, -1.0), (-1.0, -2.0, 3.0), (1e-320, 1.0, 1.0), (1e200, 1.0, 1.0)])
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in range(3):
            with pytest.raises(DomainError, match="ln of non-positive value 0.0"):
                run_program(program, batch, order)
    assert np.geterr() == state


def test_channels_follow_the_points_floating_dtype():
    program = compile_program(*(parse(text, CHART) for text in CORPUS))
    batch = np.random.default_rng(9).uniform(0.5, 2.0, (4, 3))
    for order in range(3):
        plain = run_program(program, batch, order)
        extended = run_program(program, batch.astype(np.longdouble), order)
        whole = run_program(program, np.ones((2, 3), dtype=int), order)
        for ours, theirs, ints in zip(*[c if order else (c,) for c in (plain, extended, whole)]):
            assert theirs.dtype == np.longdouble and ints.dtype == np.float64
            assert np.allclose(theirs.astype(float), ours, rtol=1e-13, atol=1e-13)


def test_a_compiled_program_leaves_no_reference_cycle():
    # dropping the trees and the program frees them at once, with the cyclic
    # garbage collector off
    leaf = Unary("sin", Var(0))
    tree = Binary("add", Binary("mul", leaf, Var(1)), leaf)
    alive = weakref.ref(leaf)
    gc.disable()
    try:
        program = compile_program(tree, Binary("mul", tree, Var(2)))
        del tree, leaf, program
        assert alive() is None
    finally:
        gc.enable()


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


# --- one program per field ------------------------------------------------------

def test_field_applies_each_distinct_scalar_map_once_per_point(monkeypatch):
    # mirrored entries, and sin(u) in three distinct entries: sin(u), ln(1+v^2)
    # and v^2 are the only maps, each applied once per point at every order
    # (a rule takes the whole column of a batch: each of its rows counts)
    applied = Counter()
    rule_of = jets.rule_of

    def counted_rule_of(node):
        rule, name = rule_of(node), node.right.value if node.op == "pow" else node.op

        def counted(x, order):
            applied.update((name, v) for v in x.tolist())
            return rule(x, order)

        return counted

    monkeypatch.setattr(jets, "rule_of", counted_rule_of)
    chart = Chart(("u", "v"))
    mixed = "sin(u) + u*v"
    field = TensorField(chart, "ll", [["sin(u)*v", mixed], [mixed, "ln(1+v^2)*sin(u)"]])
    points = [(0.5, 1.5), (0.75, 1.25), (1.25, 0.5)]
    for evaluate in (field.value, field.jet, field.jet2):
        for point in (points[0], PointBatch(points)):
            applied.clear()
            evaluate(point)
            rows = points if isinstance(point, PointBatch) else [point]
            want = [("sin", u) for u, _ in rows] + [(2.0, v) for _, v in rows]
            want += [("ln", 1 + v * v) for _, v in rows]
            assert applied == Counter(want)


def test_field_entries_equal_their_one_entry_programs_bit_for_bit():
    # entries sharing subtrees with each other and, mirrored, with themselves
    texts = [[f"{CORPUS[j]} * ({CORPUS[k]})" for k in range(3)] for j in range(3)]
    for j in range(3):
        for k in range(j):
            texts[j][k] = texts[k][j]
    texts[2][2] = f"{CORPUS[3]} + {CORPUS[3]}"
    entries = [parse(text, CHART) for row in texts for text in row]
    program = compile_program(*entries)
    assert len(program.ops) < sum(len(compile_program(e).ops) for e in entries)
    rng = np.random.default_rng(8)
    batch = rng.uniform(0.5, 2.0, (5, 3))
    for point in (tuple(batch[0]), batch):
        for order in (0, 1, 2):
            together = run_program(program, point, order)
            for e, entry in enumerate(entries):
                alone = run_program(compile_program(entry), point, order)
                for joint, single in zip(*[c if order else (c,) for c in (together, alone)]):
                    assert joint.shape == (len(entries),) + single.shape[1:]
                    assert joint[e].tobytes() == single[0].tobytes(), (texts, e, order)


def test_compile_builds_each_scalar_map_rule_once(monkeypatch):
    # mirrored entries and a repeated sin(u) and u^2: one rule per map op,
    # none looked up for a subtree that is already an op
    built = []
    rule_of = jets.rule_of

    def counted(node):
        built.append(node)
        return rule_of(node)

    chart = Chart(("u", "v"))
    mixed = "sin(u) + u^2*v"
    texts = [["sin(u)*u^2", mixed], [mixed, "ln(1+u^2)*sin(u) - sin(u)"]]
    entries = [parse(text, chart) for row in texts for text in row]
    monkeypatch.setattr(jets, "rule_of", counted)
    program = compile_program(*entries)
    monkeypatch.undo()
    maps = [op for op in program.ops if op[0] == "map"]
    assert len(maps) == 3  # sin(u), u^2, ln(1+u^2)
    assert built == [op[2] for op in maps]
    # a function's op carries the rule of its name, pow's its exponent's
    for _, rule, node, _, _ in maps:
        if node.op == "pow":
            assert rule.func is jets.rule_of(node).func and rule.args == (node.right.value,)
        else:
            assert rule is jets.RULES[node.op]
    field = TensorField(chart, "ll", texts)
    points = [(0.5, 1.5), (0.75, 1.25), (1.25, 0.5)]
    for point in (points[0], PointBatch(points)):
        for order, evaluate in enumerate((field.value, field.jet, field.jet2)):
            together = evaluate(point)
            lead = batch_shape(point)  # the field's point axis comes first
            at = point.array if lead else point
            for e, entry in enumerate(entries):
                alone = run_program(compile_program(entry), at, order)
                for joint, single in zip(*[c if order else (c,) for c in (together, alone)]):
                    flat = joint.reshape(lead + (len(entries),) + single.shape[1 + len(lead) :])
                    by_entry = np.moveaxis(flat, len(lead), 0)
                    assert by_entry[e].tobytes() == single[0].tobytes(), (e, order)


def _copy(node):
    """An equal tree that shares no node object with `node`."""
    if isinstance(node, Unary):
        return Unary(node.op, _copy(node.arg))
    if isinstance(node, Binary):
        return Binary(node.op, _copy(node.left), _copy(node.right))
    return Const(node.value) if isinstance(node, Const) else Var(node.index)


def _layout(program) -> tuple:
    ops = []
    for code, arg, node, left, right in program.ops:
        rule = (arg.func, arg.args) if isinstance(arg, partial) else arg
        ops.append((code, repr(rule) if code == "const" else rule, node, left, right))
    return ops, program.roots, program.owners


def test_shared_subtree_objects_compile_like_unshared_copies():
    # a node object met again takes the slot of its first visit, which its
    # key would find: the ops (each naming its first node), roots and owners
    # are those of equal trees that share no object
    leaf, zero = Unary("sin", Var(0)), Const(-0.0)
    square = Binary("pow", leaf, Const(2.0))
    handmade = [
        Binary("mul", leaf, leaf),
        Binary("add", Binary("mul", zero, square), Unary("sin", Var(0))),
        Binary("sub", square, Binary("mul", Const(0.0), leaf)),
    ]
    spec = sampling.random_omega_spec(CHART, np.random.default_rng(6))
    sampled = [entry for field in spec.fields for entry in field.entries]
    for entries in (handmade, sampled):
        copies = [_copy(entry) for entry in entries]
        assert _layout(compile_program(*entries)) == _layout(compile_program(*copies))


def test_signed_zero_constants_are_not_merged():
    u = Var(0)
    program = compile_program(Binary("mul", u, Const(0.0)), Binary("mul", u, Const(-0.0)))
    assert len(program.ops) == 5
    value = run_program(program, (1.0, 2.0, 3.0), 0)
    assert value.tolist() == [0.0, 0.0]
    assert np.signbit(value).tolist() == [False, True]
