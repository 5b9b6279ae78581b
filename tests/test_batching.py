"""Point batches: a block of points must give every point the result it
gets on its own, bit for bit, and the error it raises on its own.  Likewise
a stack of omega draws must give every draw the result of its own call."""

import json

import numpy as np
import pytest

from oracles import (
    correlation_residuals,
    evaluate,
    omega_square_residual,
    weyl_correlation_residual,
    weyl_modes_residual,
)
from tensor_invariants import audit, geometry, sampling, tensor
from tensor_invariants.audit import run_paper_audit
from tensor_invariants.cli import main
from tensor_invariants.configs import builtin_config
from tensor_invariants.expr import Chart, DomainError, parse
from tensor_invariants.geometry import RICCI_LAST, SingularMetricError, Space
from tensor_invariants.deformation import _delta_pair_jet, omega_jet_arrays
from tensor_invariants.invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    SValues,
    basic_weyl,
    basic_weyl_arrays,
    dee,
    dee_arrays,
    derived_thomas,
    derived_thomas_arrays,
    derived_thomas_correlation_residual,
    omega,
    omega_arrays,
    omega_jet,
    omega_square_arrays,
    omega_square_expanded,
    reduced_arrays,
    reduced_space,
    stack_draws,
    zeta,
    zeta_arrays,
)
from tensor_invariants.mappings import (
    ROWS,
    FPlanarSpec,
    MappingSpec,
    apply_mapping,
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
from tensor_invariants.tensor import PointBatch, TensorField, batch_shape, block_size


def _row_pairs(source, target, mapping, kind):
    """name -> (source evaluator, target evaluator) for every row of the
    table that a mapping of `kind` allows, on the omega pair `mapping`."""
    return {
        name: tuple(
            build(space, spec, RICCI_LAST)
            for space, spec in ((source, mapping.omega_src), (target, mapping.omega_tgt))
        )
        for name, (needs, build) in ROWS.items()
        if issubclass(kind, needs)
    }


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
    pairs = _row_pairs(source, target, mapping, MappingSpec)
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
    pairs = _row_pairs(source, target, mspec, FPlanarSpec)
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


def _own_results(space, spec, point) -> dict:
    """Each evaluator's result for one (space, spec) draw at `point`."""
    return {
        "omega jet": omega_jet(spec, point),
        "Lambda'": reduced_space(space, spec, rho=False).connection_jet(point),
        "Lambda": reduced_space(space, spec).connection_jet(point),
        "zeta": zeta(space, spec)(point),
        "dee": dee(space, spec)(point),
        "basic Weyl direct": basic_weyl(space, spec, MODE_DIRECT)(point),
        "basic Weyl structured": basic_weyl(space, spec, MODE_STRUCTURED)(point),
        "derived Thomas": derived_thomas(space, spec)(point),
        "Thomas correlation": derived_thomas_correlation_residual(space, spec)(point),
        "Weyl correlation": weyl_correlation_residual(space, spec, point),
    }


def _stacked_results(stack, off=None) -> dict:
    """The cores' results for stacked draws (:func:`stack_draws`), with the
    term group of s-value `off` (0, 1 or 2) left out, as its evaluators do."""
    s, conn, rho, calF_group, sphi_group = stack
    groups = [calF_group, sphi_group]
    if off in (1, 2):
        groups[off - 1] = None
    calF_group, sphi_group = groups

    def part(group, cut):
        return None if group is None else group[cut]

    calF, sphi = part(calF_group, slice(2, None)), part(sphi_group, slice(2, None))
    rho_pair = None if off == 0 else _delta_pair_jet(*rho)
    lam = reduced_arrays(s, conn, calF, sphi)
    if off == 0:  # zeta's evaluator gives zeros without the core
        z = np.zeros(conn[0].shape[:-1])
    else:
        z = zeta_arrays(s, *rho, conn[0], part(calF_group, slice(2)), part(sphi_group, slice(2)))
    d = dee_arrays(s, conn[0], (calF_group, sphi_group))
    out = {
        "omega jet": omega_jet_arrays(s, (rho_pair, calF, sphi), conn[0].shape),
        "Lambda'": lam,
        "Lambda": reduced_arrays(s, conn, calF, sphi, None if off == 0 else rho),
        "zeta": z,
        "dee": d,
        "basic Weyl structured": basic_weyl_arrays(geometry.curvature_arrays(*conn), z, d),
        "derived Thomas": derived_thomas_arrays(s, lam[0], geometry.thomas_arrays(lam[0])),
    }
    if off is None:  # what the findings compute, all groups on
        out["basic Weyl direct"], structured = audit._weyl_modes(*stack)
        assert structured.tobytes() == out["basic Weyl structured"].tobytes()
        out["Thomas correlation"], out["Weyl correlation"] = audit._correlations(*stack)
    return out


def _assert_each_draw_has_its_bits(stacked: dict, draws, point):
    for k, (space, spec) in enumerate(draws):
        own = _own_results(space, spec, point)
        for name, value in stacked.items():
            mine = own[name] if isinstance(own[name], tuple) else (own[name],)
            theirs = value if isinstance(value, tuple) else (value,)
            for a, b in zip(theirs, mine, strict=True):
                assert a[k].shape == b.shape, (name, k)
                assert a[k].tobytes() == b.tobytes(), (name, k)


def _point_forms(points):
    """(evaluator argument, coordinates for :func:`stack_draws`): a point, a
    batch made from one point, a one-point batch and a batch."""
    return (
        (points[0], points[0]),
        (PointBatch(points[0]), points[0]),
        (PointBatch(points[:1]), points[:1]),
        (PointBatch(points), points),
    )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_cores_give_each_draw_its_evaluators_bits(dim):
    # draws stacked on a leading axis and run once through the cores (and
    # through the two findings' arithmetic) give each draw the bytes of its
    # own evaluator calls, on a point, one-point batches and a batch
    rng = np.random.default_rng(80 + dim)
    chart = Chart(tuple(f"x{i + 1}" for i in range(dim)))
    draws = [(random_connection_space(chart, rng), random_omega_spec(chart, rng)) for _ in range(3)]
    assert all(x != 0.0 for _, spec in draws for x in spec.s.as_tuple())
    points = sample_points([[1.0, 2.0]] * dim, 3, seed=dim)
    for point, coordinates in _point_forms(points):
        stacked = _stacked_results(stack_draws(draws, coordinates))
        assert len(stacked) == 10
        _assert_each_draw_has_its_bits(stacked, draws, point)


@pytest.mark.parametrize("off", [0, 1, 2])
def test_stacked_cores_keep_each_zero_s_branch(off):
    # draws that share a zero s-value leave its term group out of the cores
    # (None), as the evaluators' zero-s branches do, with the same bytes
    rng = np.random.default_rng(90 + off)
    chart = Chart(("x1", "x2", "x3"))
    draws = []
    for _ in range(3):
        s = rng.uniform(-1.0, 1.0, 3)
        s[off] = 0.0
        spec = random_omega_spec(chart, rng, SValues(*map(float, s)))
        draws.append((random_connection_space(chart, rng), spec))
    points = sample_points([[1.0, 2.0]] * 3, 3, seed=off)
    for point, coordinates in _point_forms(points):
        stacked = _stacked_results(stack_draws(draws, coordinates), off)
        _assert_each_draw_has_its_bits(stacked, draws, point)


def test_stacked_draws_without_rho_keep_every_other_array():
    # the correlation finding stacks no rho jet; the rest keep their bytes
    rng = np.random.default_rng(70)
    chart = Chart(("x1", "x2", "x3"))
    draws = [(random_connection_space(chart, rng), random_omega_spec(chart, rng)) for _ in range(3)]
    points = sample_points([[1.0, 2.0]] * 3, 2, seed=70)
    full, lean = stack_draws(draws, points), stack_draws(draws, points, rho=False)
    assert lean[2] is None
    for whole, part in zip(full[:2] + full[3:], lean[:2] + lean[3:], strict=True):
        assert [a.tobytes() for a in whole] == [b.tobytes() for b in part]


def _count_programs(monkeypatch) -> dict:
    """Calls of the program compiler and interpreter, wherever bound."""
    counts = {"compile_program": 0, "run_program": 0}
    for name in counts:
        original = getattr(tensor, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in (tensor, audit):
            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("convention", ["last", "middle"])
def test_an_audit_compiles_and_runs_one_program_per_draw(seed, convention, monkeypatch):
    # the draws run in groups within tensor.GROUP_ENTRIES = 128 entries:
    # the omega-square finding's 50 specs (27 entries each) in 13 groups of
    # at most 4, and the 10 draws of each of the basic-Weyl modes and
    # correlation findings (54 entries with rho, 51 without) in 5 groups of
    # 2, each group compiling one program and running it once, as does the
    # random space of the derived Thomas and first-stage Weyl sign findings
    # (88 compiles and 97 runs when each draw ran its own program, 403 and
    # 405 when every field ran its own)
    counts = _count_programs(monkeypatch)
    run_paper_audit(seed=seed, convention=convention)
    assert counts == {"compile_program": 41, "run_program": 50}


def test_an_audit_keeps_each_program_within_the_group_budget(monkeypatch):
    # a group's run holds every op of its program at once, so the entry
    # budget bounds the memory of the audit's grouped draws
    sizes = []
    original = tensor.compile_program

    def recorded(*entries):
        sizes.append(len(entries))
        return original(*entries)

    for module in (tensor, audit):
        monkeypatch.setattr(module, "compile_program", recorded)
    run_paper_audit(seed=7)
    assert sizes and max(sizes) <= tensor.GROUP_ENTRIES


def test_grouped_omega_specs_are_drawn_in_order():
    # the omega-square finding draws its 50 specs as 50 plain calls would,
    # whatever groups their fields run in
    chart = builtin_config("example-r3").chart
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=1)
    rng, plain = np.random.default_rng(5), np.random.default_rng(5)
    audit._omega_square_finding(chart, rng, points)
    for _ in range(50):
        random_omega_spec(chart, plain)
    assert rng.bit_generator.state == plain.bit_generator.state


def _leaves(value) -> list:
    """The arrays of a nested tuple, in order."""
    if isinstance(value, np.ndarray):
        return [value]
    return [leaf for item in value for leaf in _leaves(item)]


# (budget, programs run) for 7 draws of 54 entries each: groups of 5 and 2,
# then one draw per group, at the budget of one draw and below it
@pytest.mark.parametrize("budget, runs", [(5 * 54, 2), (54, 7), (1, 7)])
def test_grouped_draws_stack_the_bits_of_each_draw_alone(budget, runs, monkeypatch):
    rng = np.random.default_rng(60)
    chart = Chart(("x1", "x2", "x3"))
    draws = [(random_connection_space(chart, rng), random_omega_spec(chart, rng)) for _ in range(7)]
    points = sample_points([[1.0, 2.0]] * 3, 3, seed=60)
    alone = [_leaves(stack_draws([draw], points)) for draw in draws]
    monkeypatch.setattr(tensor, "GROUP_ENTRIES", budget)
    counts = _count_programs(monkeypatch)
    grouped = _leaves(stack_draws(draws, points))
    assert counts["run_program"] == runs
    for k, own in enumerate(alone):
        for whole, part in zip(grouped, own, strict=True):
            assert np.array_equal(whole[k].view(np.int64), part[0].view(np.int64))


_SAMPLED = {
    "_omega_square_finding": 250,
    "_weyl_modes_finding": 60,
    "_correlation_finding": 60,
    "_derived_thomas_general_s_finding": 11,
    "_weyl_first_sign_finding": 6,
}


@pytest.mark.parametrize("finding", list(_SAMPLED))
def test_sampled_fields_are_never_compiled_on_their_own(finding, monkeypatch):
    # each draw's fields (the connection's coefficients too) run in one
    # program over all of them, so no field compiles its own
    made = []

    class Recorded(TensorField):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sampling, "TensorField", Recorded)
    chart = builtin_config("example-r3").chart
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=1)
    getattr(audit, finding)(chart, np.random.default_rng(3), points)
    assert len(made) == _SAMPLED[finding]
    assert not any("program" in vars(field) for field in made)


@pytest.mark.parametrize("finding", ["_weyl_modes_finding", "_correlation_finding"])
def test_stacked_findings_run_the_curvature_kernel_twice(finding, monkeypatch):
    # two curvatures per finding (L and a reduced connection) for all its
    # draws together, whatever their count: 2, not 2 per draw
    shapes = []
    original = geometry.curvature_arrays

    def counted(conn, dconn):
        shapes.append(conn.shape)
        return original(conn, dconn)

    for module in (audit, geometry):
        monkeypatch.setattr(module, "curvature_arrays", counted)
    chart = builtin_config("example-r3").chart
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=1)
    for count in (2, 10):
        monkeypatch.setattr(audit, "_DRAWS", count)
        shapes.clear()
        getattr(audit, finding)(chart, np.random.default_rng(count), points)
        assert [shape[0] for shape in shapes] == [count, count]


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
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 2 * 8 * 2**4)
    assert block_size(2) == 2
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_span_error_config()))
    field = TensorField(Chart(("u", "v")), "l", ["ln(v)", "ln(u)"])
    run = PointBatch([(1.0, 1.0), (1.5, 2.0), (1.25, 1.75), (-0.5, 1.0), (2.0, 1.0), (1.0, -2.0)])
    with pytest.raises(DomainError, match="-2.0"):
        field.jet(next(run.blocks()))
    assert main(["verify", "--config", str(path)]) == 2
    listed = capsys.readouterr().err
    assert main(["verify", "--config", str(path), "--point=-0.5,1.0"]) == 2
    alone = capsys.readouterr().err
    assert listed == alone
    assert listed.startswith("math error: ln of non-positive value -0.5 in subexpression 'ln(u)'")


def test_a_failing_span_runs_once(tmp_path, capsys, monkeypatch):
    # rho's order-1 span of all 8 points fails while the first block runs;
    # the redo from that block's first row runs points alone until the
    # fourth fails, so no later block runs the span again
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 2 * 8 * 2**4)
    runs = []
    run_program = tensor.run_program

    def counting(program, points, order):
        try:
            return run_program(program, points, order)
        except DomainError:
            runs.append((program, np.shape(points)))
            raise

    monkeypatch.setattr(tensor, "run_program", counting)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_span_error_config()))
    assert main(["verify", "--config", str(path)]) == 2
    assert "'ln(u)'" in capsys.readouterr().err
    # rho's own program, over the span, then at the fourth point alone
    assert [shape for _, shape in runs] == [(8, 2), (2,)]
    assert runs[0][0] is runs[1][0]


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


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_stacked_findings_match_the_per_draw_loops(seed):
    # the basic-Weyl modes and correlation findings evaluate their 10 draws
    # each as one stack; loops over the draws, each on a batch of its own,
    # measure the same residuals
    chart = builtin_config("example-r3").chart
    points = sample_points([[1.0, 2.0]] * 3, 8, seed=seed + 1)
    rng = np.random.default_rng(seed)
    omega_square_residual(chart, rng, points)  # the draws of the finding before
    modes = weyl_modes_residual(chart, rng, points)
    thomas, weyl = correlation_residuals(chart, rng, points)
    findings = run_paper_audit(seed=seed)[4:6]
    assert [f.id for f in findings] == ["basic-weyl-direct-vs-structured", "correlation-identities"]
    assert findings[0].measurement == {"max_residual": modes}
    assert findings[1].measurement == {"thomas_max_residual": thomas, "weyl_max_residual": weyl}
