"""Point batches: a block of points must give every point the result it
gets on its own, bit for bit, and the error it raises on its own.  Likewise
a stack of omega draws must give every draw the result of its own call."""

import json

import numpy as np
import pytest

from oracles import evaluate, omega_square_residual
from tensor_invariants import mappings
from tensor_invariants.audit import run_paper_audit
from tensor_invariants.cli import main
from tensor_invariants.configs import builtin_config
from tensor_invariants.expr import Chart, DomainError, parse
from tensor_invariants.geometry import RICCI_LAST, SingularMetricError, Space
from tensor_invariants.invariants import (
    SValues,
    omega,
    omega_arrays,
    omega_square_arrays,
    omega_square_expanded,
)
from tensor_invariants.mappings import (
    _evaluator_pairs,
    _fplanar_pairs,
    apply_mapping,
    block_size,
    fplanar_as_omega,
    fplanar_build,
    sample_points,
    verify_invariance,
)
from tensor_invariants.sampling import (
    random_connection_space,
    random_mapping,
    random_metric_space,
    random_omega_spec,
)
from tensor_invariants.tensor import PointBatch, TensorField, batch_shape


def _check_batch_against_points(pairs, points, checked):
    """Every evaluator on the whole batch equals its call at each checked
    point alone, bit for bit; returns the per-point discrepancies there."""
    batch = PointBatch(points)
    outputs = {name: (src(batch), tgt(batch)) for name, (src, tgt) in pairs.items()}
    expected = {name: {} for name in pairs}
    for k in checked:
        for name, (src, tgt) in pairs.items():
            alone = (src(points[k]), tgt(points[k]))
            for together, single in zip(outputs[name], alone):
                assert together.shape == (len(points),) + single.shape, name
                assert np.array_equal(together[k], single), (name, k)
            expected[name][k] = float(np.max(np.abs(alone[0] - alone[1])))
    return expected


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["metric", "connection"])
def test_batches_are_bit_identical_to_single_points(dim, kind):
    rng = np.random.default_rng(40 + dim)
    chart = Chart(tuple(f"x{i + 1}" for i in range(dim)))
    build = random_metric_space if kind == "metric" else random_connection_space
    source = build(chart, rng)
    mapping = random_mapping(chart, rng)
    target = apply_mapping(source, mapping)
    # one full block and a short one that repeats a point of the first
    size = block_size(dim)
    points = sample_points([[1.0, 2.0]] * dim, size + 2, seed=dim)
    points.append(points[1])
    # both ends of each block and the middle of the first
    checked = sorted({0, 1, size // 2, size - 1, size, size + 1, size + 2})
    pairs = _evaluator_pairs(source, target, mapping, RICCI_LAST)
    expected = _check_batch_against_points(pairs, points, checked)
    report = verify_invariance(source, target, mapping, points)
    for row in report.rows:
        for k in checked:
            assert row.discrepancies[k] == (points[k], expected[row.name][k]), row.name


def test_fplanar_batches_are_bit_identical_to_single_points():
    job = builtin_config("fplanar-demo")
    source = job.build_space()
    target = fplanar_build(source, job.mapping())
    mspec = fplanar_as_omega(source, job.mapping())
    pairs = _evaluator_pairs(source, target, mspec, RICCI_LAST)
    pairs.update(_fplanar_pairs(source, target, mspec, RICCI_LAST))
    points = sample_points([[1.0, 2.0]] * 3, 9, seed=31)
    _check_batch_against_points(pairs, points + [points[4]], range(10))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stacked_omega_draws_are_bit_identical_to_each_draw(dim):
    # draws stacked on a leading axis, each s-value an array over it, give
    # each draw the bits of its own call, on a point, a one-point batch and
    # a batch of points
    rng = np.random.default_rng(60 + dim)
    chart = Chart(tuple(f"x{i + 1}" for i in range(dim)))
    draws = 4
    s = rng.uniform(-1.0, 1.0, (draws, 3))
    s[np.arange(draws), np.arange(draws) % 3] = 0.0  # one term group off per draw
    specs = [random_omega_spec(chart, rng, SValues(*map(float, row))) for row in s]
    points = sample_points([[1.0, 2.0]] * dim, 3, seed=dim)
    for point in (points[0], PointBatch(points[0]), PointBatch(points)):
        s_stack = tuple(column.reshape((draws,) + (1,) * len(batch_shape(point))) for column in s.T)
        fields = [np.stack(draw) for draw in zip(*(spec.values(point) for spec in specs))]
        for core, own in ((omega_arrays, omega), (omega_square_arrays, omega_square_expanded)):
            stacked = core(s_stack, *fields)
            for k, spec in enumerate(specs):
                alone = own(spec, point)
                assert stacked[k].shape == alone.shape
                assert stacked[k].tobytes() == alone.tobytes(), (core.__name__, k)


def _connection_space():
    chart = Chart(("u", "v"))
    return Space.from_connection(TensorField(chart, "ull", [[["u", "v"], ["v", "u*v"]]] * 2))


def test_one_point_and_a_batch_of_one_do_not_share_a_memo_entry():
    # a point, alone or made a batch, gives no batch axis; a batch of one
    # point gives one, and each batch keeps its own results
    space = _connection_space()
    point = (1.0, 2.0)
    alone, one = PointBatch(point), PointBatch([point])
    assert batch_shape(alone) == () and batch_shape(one) == (1,)
    assert space.connection(point).shape == space.connection(alone).shape == (2, 2, 2)
    assert space.connection(one).shape == (1, 2, 2, 2)
    assert np.array_equal(space.connection(one)[0], space.connection(alone))
    assert [len(batch.cache) for batch in (alone, one)] == [2, 2]  # the field's jet, the connection


# --- errors inside a block ------------------------------------------------------

LOG_METRIC = [["1 + ln(u)^2", "0"], ["0", "1"]]
POLE_METRIC = [["u", "0"], ["0", "1"]]
CASES = {
    # ln of a non-positive value at u = -0.5
    "log": (LOG_METRIC, [[-0.5, 1.0]], "ln of non-positive value -0.5 in subexpression 'ln(u)'"),
    # exactly singular at u = 0, and badly conditioned at u = 1e-13
    "singular": (POLE_METRIC, [[0.0, 1.5]], "metric is singular at (0.0, 1.5)"),
    "conditioned": (POLE_METRIC, [[1e-13, 1.5]], "metric is singular at (1e-13, 1.5)"),
    # the first bad point fails in rho = ln(v), later than the metric in
    # which the second one fails: the first point's error is the one shown
    "two": (
        LOG_METRIC,
        [[1.5, -1.0], [-0.5, 1.0]],
        "ln of non-positive value -1.0 in subexpression 'ln(v)'",
    ),
}


def _error_config(metric, bad):
    omega = {"s": [1, 0, 0], "rho": ["ln(v)", "u"]}
    omega_bar = {"s": [1, 0, 0], "rho": ["v", "u"]}
    points = [[1.0, 1.0], [1.5, 2.0], [1.25, 1.75], *bad, [2.0, 1.0], [1.75, 1.25]]
    return {
        "chart": ["u", "v"],
        "space": {"metric": metric},
        "omega": omega,
        "omega_bar": omega_bar,
        "points": {"list": points},
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_in_the_middle_of_a_block_matches_the_point_alone(case, tmp_path, capsys):
    metric, bad, message = CASES[case]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_error_config(metric, bad)))
    assert block_size(2) >= 7  # the listed points form one block
    assert main(["verify", "--config", str(path)]) == 2
    listed = capsys.readouterr().err
    point = ",".join(repr(x) for x in bad[0])
    assert main(["verify", "--config", str(path), f"--point={point}"]) == 2
    alone = capsys.readouterr().err
    assert listed == alone
    assert listed.startswith("math error: " + message)


def test_batch_errors_name_the_first_failing_point():
    chart = Chart(("u", "v"))
    # the second point fails in ln(v), after the third has failed in ln(u)
    field = TensorField(chart, "l", ["ln(u) + ln(v)", "1"])
    points = [(1.0, 1.0), (1.0, -2.0), (-0.5, 1.0)]
    for order in (0, 1, 2):
        evaluate = (field.value, field.jet, field.jet2)[order]
        with pytest.raises(DomainError) as alone:
            evaluate(points[1])
        with pytest.raises(DomainError) as together:
            evaluate(PointBatch(points))
        assert together.value.reason == alone.value.reason == "ln of non-positive value -2.0"
        assert together.value.node is alone.value.node
        assert together.value.node == parse("ln(v)", chart)

    space = Space.from_metric(TensorField(chart, "ll", POLE_METRIC))
    with pytest.raises(SingularMetricError) as alone:
        space.connection_jet((1e-13, 2.0))
    with pytest.raises(SingularMetricError) as together:
        space.connection_jet(PointBatch([(1.0, 1.0), (1e-13, 2.0), (0.0, 2.0)]))
    assert str(together.value) == str(alone.value)


def test_batch_errors_follow_entry_order_across_shared_subtrees():
    # the second entry shares ln(u) + v with the first and fails at an earlier
    # row (ln(v) at v = -2), but the first entry's failure (ln(u) at u = -0.5)
    # is the one raised: the first failing entry, at its first failing row
    chart = Chart(("u", "v"))
    field = TensorField(chart, "l", ["ln(u) + v", "ln(u) + v + ln(v)"])
    points = [(1.0, 1.0), (1.0, -2.0), (-0.5, 1.0)]
    for order in (0, 1, 2):
        evaluate = (field.value, field.jet, field.jet2)[order]
        with pytest.raises(DomainError) as alone:
            evaluate(points[2])
        with pytest.raises(DomainError) as together:
            evaluate(PointBatch(points))
        assert together.value.reason == alone.value.reason == "ln of non-positive value -0.5"
        assert together.value.node is alone.value.node
        assert together.value.node == parse("ln(u)", chart)
        with pytest.raises(DomainError, match="-2.0"):
            evaluate(PointBatch(points[:2]))


def test_a_list_point_changed_in_place_is_evaluated_again():
    space = _connection_space()
    point = [1.0, 2.0]
    assert space.connection(point)[1, 1, 1] == 2.0  # L^2_22 = u v
    point[0] = 3.0
    assert space.connection(point)[1, 1, 1] == 6.0


# --- spans: one program run over several blocks ---------------------------------

def _span_error_config():
    # rho = (ln(v), ln(u)): the fourth point fails in the second entry, the
    # sixth, two blocks later in the same span, in the first
    omega = {"s": [1, 0, 0], "rho": ["ln(v)", "ln(u)"]}
    omega_bar = {"s": [1, 0, 0], "rho": ["v", "u"]}
    points = [[1.0, 1.0], [1.5, 2.0], [1.25, 1.75], [-0.5, 1.0], [2.0, 1.0], [1.0, -2.0]]
    points += [[1.75, 1.25], [1.5, 1.5]]
    return {
        "chart": ["u", "v"],
        "space": {"metric": [["1 + u^2", "0"], ["0", "1"]]},
        "omega": omega,
        "omega_bar": omega_bar,
        "points": {"list": points},
    }


def test_span_errors_name_the_first_failing_point(tmp_path, capsys, monkeypatch):
    # blocks of 2 points; rho's order-1 span is N^4 / (2 entries * N) = 4
    # blocks, all 8 points, so its one run fails at the sixth point, in the
    # first entry, while the blocks before it are being verified
    monkeypatch.setattr(mappings, "BLOCK_BYTES", 2 * 8 * 2**4)
    assert block_size(2) == 2
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_span_error_config()))
    field = TensorField(Chart(("u", "v")), "l", ["ln(v)", "ln(u)"])
    run = PointBatch([(1.0, 1.0), (1.5, 2.0), (1.25, 1.75), (-0.5, 1.0), (2.0, 1.0), (1.0, -2.0)])
    with pytest.raises(DomainError, match="-2.0"):
        field.jet(run.blocks(2)[0])
    assert main(["verify", "--config", str(path)]) == 2
    listed = capsys.readouterr().err
    assert main(["verify", "--config", str(path), "--point=-0.5,1.0"]) == 2
    alone = capsys.readouterr().err
    assert listed == alone
    assert listed.startswith("math error: ln of non-positive value -0.5 in subexpression 'ln(u)'")


@pytest.mark.parametrize("seed", [0, 7])
def test_christoffel_table_finding_matches_a_per_point_tree_walk(seed):
    # the finding sweeps one batch through one compiled program of the
    # printed entries; a loop over the points, each entry parsed and
    # tree-walked at each point, gives the same three measurements
    printed = {
        (0, 1, 1): "v/u^2",
        (0, 2, 2): "w/u^2",
        (1, 0, 0): "u/v^2",
        (1, 2, 2): "w/v^2",
        (2, 0, 0): "u/w^2",
        (2, 1, 1): "v/w^2",
    }
    job = builtin_config("example-r3")
    space, chart = job.build_space(), job.chart
    diag = computed = gap = 0.0
    for point in sample_points([[1.0, 2.0]] * 3, 8, seed=seed + 1):
        conn = space.connection(point)
        for i in range(3):
            diag = max(diag, abs(conn[i, i, i] - 1.0 / point[i]))
        for (i, j, k), text in printed.items():
            computed = max(computed, abs(conn[i, j, k]))
            gap = max(gap, abs(evaluate(parse(text, chart), point) - conn[i, j, k]))
    finding = run_paper_audit(seed=seed)[0]
    assert finding.id == "christoffel-example-table"
    measured = finding.measurement
    assert measured["diagonal_max_residual"] == diag
    assert measured["offdiagonal_computed_max"] == computed
    assert measured["offdiagonal_printed_vs_computed_max_gap"] == gap


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_omega_square_finding_matches_the_per_draw_loop(seed):
    # the finding evaluates its 50 draws as one stack; a loop over the draws,
    # each on a batch of its own, measures the same residual
    chart = builtin_config("example-r3").chart
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=seed + 1)
    # the findings before it draw nothing, so the loop starts from a fresh rng
    expected = omega_square_residual(chart, np.random.default_rng(seed), points)
    finding = run_paper_audit(seed=seed)[3]
    assert finding.id == "omega-square-expansion"
    assert finding.measurement == {"max_residual_50_specs": expected}
