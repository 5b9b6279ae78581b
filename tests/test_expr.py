import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensor_invariants.expr import (
    Binary,
    Chart,
    Const,
    DomainError,
    ParseError,
    Unary,
    Var,
    parse,
    print_expr,
)
import oracles
from oracles import evaluate
from tensor_invariants.jets import compile_program, run_program

CHART = Chart(("u", "v", "w"))


def test_parse_division():
    assert parse("1/u", CHART) == Binary("div", Const(1.0), Var(0))


def test_parse_example_sigma_entry():
    node = parse("ln(1+u^2+v^2+w^2)", CHART)
    expected = Unary(
        "ln",
        Binary(
            "add",
            Binary(
                "add",
                Binary("add", Const(1.0), Binary("pow", Var(0), Const(2.0))),
                Binary("pow", Var(1), Const(2.0)),
            ),
            Binary("pow", Var(2), Const(2.0)),
        ),
    )
    assert node == expected


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("sin(q)", CHART)


def test_pow_requires_constant_exponent():
    with pytest.raises(ParseError, match="constant"):
        parse("u^v", CHART)


def test_pow_binds_tighter_than_unary_minus():
    assert parse("-u^2", CHART) == Unary("neg", Binary("pow", Var(0), Const(2.0)))


def test_pow_chain_right_associative():
    assert parse("u^2^3", CHART) == Binary("pow", Var(0), Const(8.0))


def test_negative_exponent_needs_parens():
    assert parse("u^(-2)", CHART) == Binary("pow", Var(0), Const(-2.0))
    with pytest.raises(ParseError, match=r"negative exponent needs parentheses.*\(at position 2\)"):
        parse("u^-2", CHART)


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("1e999 + u", 0, "number 1e999 is not finite"),
        ("u^1e999", 2, "number 1e999 is not finite"),
        ("u^(-1e999)", 4, "number 1e999 is not finite"),
        ("u^10^400", 4, "chained exponent is not a finite real number"),  # overflows
        ("u^0^(-1)", 3, "chained exponent is not a finite real number"),  # 1/0
        ("u^(-8)^0.5", 6, "chained exponent is not a finite real number"),  # complex
        ("u^2^10^400", 6, "chained exponent is not a finite real number"),  # inner fold
    ],
)
def test_non_finite_numbers_are_parse_errors(text, position, message):
    with pytest.raises(ParseError) as err:
        parse(text, CHART)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_finite_chained_exponents_still_fold():
    assert parse("u^2^(-1)", CHART) == Binary("pow", Var(0), Const(0.5))
    assert parse("u^(-2)^3", CHART) == Binary("pow", Var(0), Const(-8.0))
    assert parse("1e308*u", CHART) == Binary("mul", Const(1e308), Var(0))


def test_precedence_mul_over_add():
    assert parse("u+v*w", CHART) == Binary("add", Var(0), Binary("mul", Var(1), Var(2)))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("u + ", CHART)
    assert err.value.position == 4


# --- the tokenizer that scans each token once, against the rescanning one ---

def _parsed(parse_text, text):
    """The tree, or the ParseError's message and position."""
    try:
        return parse_text(text, CHART)
    except ParseError as err:
        return str(err), err.position


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("(u v $", "expected ')', found 'v'", 3),  # a syntax error before the bad character
        ("(u $", "unexpected character '$'", 3),
        ("u v", "unexpected trailing input 'v'", 2),
        ("u)$", "unexpected trailing input ')'", 1),
        ("u +\x1c$", "unexpected character '$'", 4),
        ("1e400", "number 1e400 is not finite", 0),
        ("", "unexpected token ''", 0),
        (" \x1c", "unexpected token ''", 2),
    ],
)
def test_parse_errors_name_the_token_the_parser_reaches(text, message, position):
    for parse_text in (parse, oracles.parse):
        assert _parsed(parse_text, text) == (f"{message} (at position {position})", position)


@pytest.mark.parametrize(
    "text, position",
    [("٣*u", 0), ("u*١٢", 2), ("1.٥", 2)],  # Arabic-Indic digits
)
def test_numbers_take_ascii_digits_only(text, position):
    message = f"unexpected character {text[position]!r} (at position {position})"
    for parse_text in (parse, oracles.parse):
        assert _parsed(parse_text, text) == (message, position)


_CHARACTERS = "uvw0123456789.eE+-*/^()sincolxpqrt_ \t\u2003\x1c$é"
_TOKEN_TEXT = [
    *"uvw()+-*/^$#é_",
    *["0", "7", "2.5", ".5", "3.", "1e3", "2E-2", "1e400", "1e", "e", "E+"],
    *["sin", "cos", "ln", "exp", "sqrt", "sinu", "u2"],
    *[" ", "\t", "\u2003", "\x1c"],  # whitespace to str.isspace(), \x1c included
]


@given(
    st.one_of(
        st.text(st.sampled_from(_CHARACTERS), max_size=30),
        st.lists(st.sampled_from(_TOKEN_TEXT), max_size=20).map("".join),
    )
)
@settings(max_examples=500, deadline=None)
def test_one_pass_tokens_parse_as_rescanned_tokens(text):
    assert _parsed(parse, text) == _parsed(oracles.parse, text)


def test_evaluate_simple():
    assert evaluate(parse("1/u", CHART), (1.0, 2.0, 3.0)) == 1.0


def test_evaluate_log15():
    value = evaluate(parse("ln(1+u^2+v^2+w^2)", CHART), (1.0, 2.0, 3.0))
    assert value == pytest.approx(math.log(15.0), abs=1e-15)
    assert value == pytest.approx(2.7080502011, abs=1e-9)


def test_evaluate_pole_is_domain_error():
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(parse("1/u", CHART), (0.0, 2.0, 3.0))


def test_evaluate_log_domain_error_names_subexpression():
    with pytest.raises(DomainError, match="ln"):
        evaluate(parse("ln(u-5)", CHART), (1.0, 2.0, 3.0))


# --- parse/print fixed point and interpreter agreement ---------------------

_leaves = st.one_of(
    st.integers(0, 9).map(lambda k: Const(float(k))),
    st.floats(0.0, 4.0, allow_nan=False).map(lambda x: Const(round(x, 3))),
    st.integers(0, 2).map(Var),
)


def _combine(children):
    unary = st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "ln", "exp", "sqrt"]), children)
    binary = st.builds(
        Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children
    )
    power = st.builds(
        lambda base, k: Binary("pow", base, Const(float(k))),
        children,
        st.integers(-3, 3),
    )
    return st.one_of(unary, binary, power)


asts = st.recursive(_leaves, _combine, max_leaves=25)


@given(asts)
@settings(max_examples=300, deadline=None)
def test_parse_print_parse_fixed_point(node):
    text = print_expr(node, CHART)
    reparsed = parse(text, CHART)
    assert reparsed == node
    assert parse(print_expr(reparsed, CHART), CHART) == reparsed


@pytest.mark.parametrize("text", ["u^(-0)", "2^(-0)*v"])
def test_negative_zero_exponent_prints_text_that_parses_back(text):
    # the sign is tested by its bit: -0.0 >= 0, and u^-0.0 does not parse
    node = parse(text, CHART)
    printed = print_expr(node, CHART)
    assert "^(-0.0)" in printed
    reparsed = parse(printed, CHART)
    assert reparsed == node and print_expr(reparsed, CHART) == printed
    power = reparsed if reparsed.op == "pow" else reparsed.left
    assert math.copysign(1.0, power.right.value) == -1.0


def _random_ast(rng, depth):
    import numpy as np

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(float(rng.integers(1, 5)))
        return Var(int(rng.integers(3)))
    roll = rng.random()
    if roll < 0.35:
        op = ["neg", "sin", "cos", "exp", "ln", "sqrt"][rng.integers(6)]
        return Unary(op, _random_ast(rng, depth - 1))
    if roll < 0.9:
        op = ["add", "sub", "mul", "div"][rng.integers(4)]
        return Binary(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    return Binary("pow", _random_ast(rng, depth - 1), Const(float(rng.integers(-2, 4))))


def test_tree_walk_and_stack_machine_agree_to_zero_ulp():
    # the compiled one-entry program at order 0 against the independent tree walk
    import numpy as np

    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        node = _random_ast(rng, 4)
        point = tuple(rng.uniform(0.5, 2.0, 3))
        program = compile_program(node)
        try:
            reference = evaluate(node, point)
        except DomainError as err:
            with pytest.raises(DomainError) as raised:
                run_program(program, point, 0)
            assert raised.value.node is err.node
            continue
        assert run_program(program, point, 0).tolist() == [reference]
        checked += 1
