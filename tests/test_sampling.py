"""The samplers build the trees ``parse`` gives for their printed text.

The oracle below is the text formatter the samplers once used: each term
printed as ``f"{c:.4f}*sin(u)"`` and parsed back.  Two generators seeded
alike feed the tree builders and the oracle; the trees must be equal, with
the same constant signs, and the generators must end in the same state, so
a seed keeps giving the same fields.  The samplers' one ``random()`` draw
and ``round`` per coefficient are checked the same way against
``oracles.uniform_coefficient``, their former ``rng.uniform`` draw and text
round trip.
"""

import math
from unittest import mock

import numpy as np
import pytest

from oracles import coefficient_by_text, uniform_coefficient
from tensor_invariants import expr, sampling, tensor
from tensor_invariants.expr import Binary, Chart, Const, Unary, parse
from tensor_invariants.invariants import SValues

NAMES = ("u", "v", "w", "x", "y", "z")
SEEDS = range(6)


def _oracle_expr(chart, rng, scale=0.3) -> str:
    names = chart.names
    forms = (
        lambda: f"{rng.uniform(-scale, scale):.4f}",
        lambda: f"{rng.uniform(-scale, scale):.4f}*{names[rng.integers(chart.dim)]}",
        lambda: "{:.4f}*{}*{}".format(
            rng.uniform(-scale, scale),
            names[rng.integers(chart.dim)],
            names[rng.integers(chart.dim)],
        ),
        lambda: f"{rng.uniform(-scale, scale):.4f}*sin({names[rng.integers(chart.dim)]})",
        lambda: f"{rng.uniform(-scale, scale):.4f}*cos({names[rng.integers(chart.dim)]})",
        lambda: "{:.4f}*ln(1+{}^2)".format(
            rng.uniform(-scale, scale), names[rng.integers(chart.dim)]
        ),
    )
    return forms[rng.integers(len(forms))]()


def _oracle_field(chart, variance, rng, scale=0.3) -> list:
    """Entries of a random field, flattened row-major."""
    return [_oracle_expr(chart, rng, scale) for _ in range(chart.dim ** len(variance))]


def _oracle_symmetric(chart, rng, scale=0.3) -> list:
    n = chart.dim
    entries = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            entries[j][k] = entries[k][j] = _oracle_expr(chart, rng, scale)
    return [text for row in entries for text in row]


def _oracle_metric(chart, rng, scale=0.2) -> list:
    n = chart.dim
    entries = [["0"] * n for _ in range(n)]
    for j, name in enumerate(chart.names):
        entries[j][j] = f"{1.0 + j}+{rng.uniform(0.1, scale + 0.1):.4f}*{name}^2"
    for j in range(n):
        for k in range(j + 1, n):
            text = f"{rng.uniform(-0.05, 0.05):.4f}*{chart.names[j]}*{chart.names[k]}"
            entries[j][k] = entries[k][j] = text
    return [text for row in entries for text in row]


def _oracle_omega(chart, rng) -> tuple:
    s = SValues(*(float(x) for x in rng.uniform(-1.0, 1.0, 3)))
    fields = [_oracle_field(chart, variance, rng) for variance in ("l", "l", "ul", "u")]
    return s, fields + [_oracle_symmetric(chart, rng)]


def _constants(node) -> list:
    if isinstance(node, Const):
        return [node.value]
    if isinstance(node, Unary):
        return _constants(node.arg)
    if isinstance(node, Binary):
        return _constants(node.left) + _constants(node.right)
    return []


def _assert_same_trees(built, texts, chart):
    assert len(built) == len(texts)
    for node, text in zip(built, texts):
        parsed = parse(text, chart)
        assert node == parsed, text
        signs = [math.copysign(1.0, c) for c in _constants(node)]
        assert signs == [math.copysign(1.0, c) for c in _constants(parsed)], text


def _pairs():
    for n in range(2, 7):
        chart = Chart(NAMES[:n])
        for seed in SEEDS:
            yield chart, np.random.default_rng(seed), np.random.default_rng(seed)


def test_random_expr_is_the_parsed_text():
    for chart, rng, oracle in _pairs():
        built = [sampling.random_expr(chart, rng) for _ in range(40)]
        _assert_same_trees(built, [_oracle_expr(chart, oracle) for _ in range(40)], chart)
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_random_fields_are_the_parsed_text():
    for chart, rng, oracle in _pairs():
        for variance in ("l", "ul", "ull"):
            field = sampling.random_field(chart, variance, rng)
            _assert_same_trees(field.entries, _oracle_field(chart, variance, oracle), chart)
        field = sampling.random_symmetric_field(chart, rng)
        _assert_same_trees(field.entries, _oracle_symmetric(chart, oracle), chart)
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_random_metric_space_is_the_parsed_text():
    for chart, rng, oracle in _pairs():
        with mock.patch.object(sampling, "TensorField", wraps=tensor.TensorField) as build:
            sampling.random_metric_space(chart, rng)
        entries = [node for row in build.call_args.args[2] for node in row]
        _assert_same_trees(entries, _oracle_metric(chart, oracle), chart)
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_random_omega_spec_is_the_parsed_text():
    for chart, rng, oracle in _pairs():
        spec = sampling.random_omega_spec(chart, rng)
        s, texts = _oracle_omega(chart, oracle)
        assert spec.s == s
        for field, entries in zip((spec.rho, spec.sigma, spec.F, spec.phi, spec.sigma2), texts):
            _assert_same_trees(field.entries, entries, chart)
        assert rng.bit_generator.state == oracle.bit_generator.state


def _factors(term) -> list:
    """The factors after the coefficient of a sampled term."""
    if not isinstance(term, Binary) or term.op != "mul":
        return []
    return _factors(term.left) + [term.right]


def test_sampled_subtrees_are_shared_within_a_chart_dimension():
    # every term's x, sin(x), cos(x) and ln(1+x^2) is one object per
    # coordinate, whichever chart of the dimension, field or draw it is in
    for n in range(2, 7):
        charts = (Chart(NAMES[:n]), Chart(tuple(f"q{k}" for k in range(n))))
        specs = [sampling.random_omega_spec(chart, np.random.default_rng(n)) for chart in charts]
        specs += [sampling.random_omega_spec(charts[0], np.random.default_rng(n + 1))]
        objects = {}
        for spec in specs:
            for field in spec.fields:
                for term in field.entries:
                    for factor in _factors(term):
                        objects.setdefault(factor, set()).add(id(factor))
        assert all(len(ids) == 1 for ids in objects.values()), n
        assert len(objects) <= 4 * n


@pytest.mark.parametrize(
    "value, text, tree",
    [
        (-0.00001, "-0.0000", Unary("neg", Const(0.0))),
        (0.00001, "0.0000", Const(0.0)),
        (-0.1234, "-0.1234", Unary("neg", Const(0.1234))),
        (-0.00004, "-0.0000", Unary("neg", Const(0.0))),
        (0.00005, "0.0001", Const(0.0001)),
        (-0.00005, "-0.0001", Unary("neg", Const(0.0001))),
        (0.29995, "0.2999", Const(0.2999)),
        (-0.29995, "-0.2999", Unary("neg", Const(0.2999))),
        (0.3, "0.3000", Const(0.3)),
        (-0.3, "-0.3000", Unary("neg", Const(0.3))),
    ],
)
def test_coefficient_is_the_parsed_text(value, text, tree):
    built = sampling._coefficient(value)
    assert built == tree
    _assert_same_trees([built], [text], Chart(("u", "v")))


def test_rounding_agrees_with_the_text_round_trip_on_ties_and_draws():
    ties = (np.arange(-3000, 3000) + 0.5) / 1e4
    draws = np.random.default_rng(4).uniform(-0.3, 0.3, 20000)
    for value in np.concatenate([ties, draws, [0.0, -0.0]]).tolist():
        built = sampling._coefficient(value)
        assert built == coefficient_by_text(value), value
        assert math.copysign(1.0, _constants(built)[0]) == 1.0, value


def _sampled(chart, rng) -> list:
    """The s-values and every tree of 20 omega specs, 5 connection spaces
    and 5 metric spaces, drawn in turn from `rng`."""
    out = []
    for _ in range(20):
        spec = sampling.random_omega_spec(chart, rng)
        out += [spec.s] + [entry for field in spec.fields for entry in field.entries]
    for _ in range(5):
        out += sampling.random_connection_space(chart, rng).coefficients.entries
    with mock.patch.object(sampling, "TensorField", wraps=tensor.TensorField) as build:
        for _ in range(5):
            sampling.random_metric_space(chart, rng)
    return out + [node for call in build.call_args_list for row in call.args[2] for node in row]


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_one_random_draw_per_coefficient_keeps_trees_and_state(seed, monkeypatch):
    # the same samplers with each coefficient drawn by rng.uniform and read
    # back from its text: equal trees, equal signs, the same generator state
    chart = Chart(NAMES[:3])
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    built = _sampled(chart, rng)
    calls = []

    def draw(*args):
        calls.append(args)
        return uniform_coefficient(*args)

    monkeypatch.setattr(sampling, "_draw", draw)
    want = _sampled(chart, reference)
    assert len(calls) == 20 * (3 + 3 + 9 + 3 + 6) + 5 * 27 + 5 * 6
    assert built == want
    signs = [[math.copysign(1.0, c) for c in _constants(node)] for node in built]
    assert signs == [[math.copysign(1.0, c) for c in _constants(node)] for node in want]
    assert rng.bit_generator.state == reference.bit_generator.state


def test_samplers_never_parse(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sampler parsed text")

    # TensorField parses through ``tensor.ex``, this same module
    assert tensor.ex is expr
    monkeypatch.setattr(expr, "parse", refuse)
    chart = Chart(("u", "v", "w"))
    rng = np.random.default_rng(5)
    sampling.random_connection_space(chart, rng)
    sampling.random_metric_space(chart, rng)
    sampling.random_omega_spec(chart, rng)
    sampling.random_mapping(chart, rng)
