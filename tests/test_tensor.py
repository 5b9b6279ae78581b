import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from tensor_invariants import geometry, tensor
from tensor_invariants.expr import Chart, DomainError
from tensor_invariants.geometry import weyl_arrays
from tensor_invariants.jets import compile_program, run_program
from tensor_invariants.sampling import random_field, random_symmetric_field
from tensor_invariants.tensor import (
    PointBatch,
    TensorField,
    contract,
    delta_product,
    run_fields,
    zero_field,
)

CHART = Chart(("u", "v", "w"))


def test_bracket_convention_lock():
    # brackets without 1/2 and symmetrization with 1/2 make the projective
    # Weyl assembly collapse to R + (delta^i_m R_jn - delta^i_n R_jm)/(N-1)
    # when the Ricci tensor is symmetric
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        riemann = rng.standard_normal((n,) * 4)
        a = rng.standard_normal((n, n))
        ric = a + a.T
        delta = np.eye(n)
        bracket = np.einsum("im,jn->ijmn", delta, ric) - np.einsum("in,jm->ijmn", delta, ric)
        expected = riemann + bracket / (n - 1)
        assert np.max(np.abs(weyl_arrays(riemann, ric) - expected)) < 1e-13, n


def test_field_entries_share_chart():
    field = TensorField(CHART, "l", ["u", "v", "w"])
    assert np.allclose(field.value((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0])
    with pytest.raises(Exception):
        TensorField(CHART, "l", ["u", "q", "w"])


def test_field_rejects_a_string_for_a_list_of_entries():
    # "uv" has two characters, as a row of a 2x2 field has two entries
    chart = Chart(("u", "v"))
    for entries in (["uv", "vu"], "uv", [["u", "v"], "vu"]):
        with pytest.raises(ValueError, match="expected 2 entries at depth"):
            TensorField(chart, "ll", entries)
    assert TensorField(chart, "l", ["u*v", "v"]).strings() == ["u*v", "v"]


# --- fields run together ---------------------------------------------------

_POINTS = [(1.25, 1.5, 1.75), (1.0, 2.0, 1.5), (1.75, 1.125, 1.0), (1.5, 1.25, 2.0)]


def _point_forms():
    """A batch made from one point, a one-point batch and a batch."""
    return (PointBatch(_POINTS[0]), PointBatch(_POINTS[:1]), PointBatch(_POINTS))


def _joint_fields():
    # random fields of every rank, and text fields whose subtrees recur
    # across fields (sin(u), u*v) and within one (mirror entries)
    rng = np.random.default_rng(12)
    return [
        random_field(CHART, "ull", rng),
        random_field(CHART, "ul", rng),
        TensorField(CHART, "l", ["sin(u)*v", "u*v", "ln(1+w^2)"]),
        random_symmetric_field(CHART, rng),
        TensorField(CHART, "ll", [["u*v", "sin(u)", "0"], ["sin(u)", "u^3", "w/v"], ["0", "w/v", "1"]]),
        random_field(CHART, "u", rng),
    ]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_fields_run_together_give_each_the_bytes_of_its_own_run(order):
    fields = _joint_fields()
    batches = _point_forms()
    for batch in batches:
        run_fields(fields, batch, order)
    # the joint runs are read from the caches: no field compiled its own
    joint = [[field._rows(order, batch) for field in fields] for batch in batches]
    assert not any("program" in vars(field) for field in fields)
    for batch, results in zip(batches, joint):
        for field, together in zip(fields, results):
            alone = field._rows(order, PointBatch(batch.array))
            for a, b in zip(together, alone):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
    # one field runs its own program, compiled once and kept; what is not an
    # expression field is left to its own evaluation
    field, batch = fields[0], PointBatch(_POINTS)
    run_fields([field, None, zero_field(CHART, "l"), field], batch, order)
    assert vars(field)["program"] is field.program
    assert [key[0] for key in batch.cache] == [field]


def _raised(run):
    try:
        run()
    except DomainError as error:
        return error
    return None


def _errors(fields, batch, order):
    """The error (or None) of running `fields` together, and of running each
    alone in turn on a fresh batch."""
    fresh = PointBatch(batch.array)
    together = _raised(lambda: run_fields(fields, batch, order))
    alone = _raised(lambda: [run_fields((field,), fresh, order) for field in fields])
    return together, alone


@pytest.mark.parametrize("order", [0, 1, 2])
def test_fields_run_together_raise_the_error_of_their_runs_in_turn(order):
    # `overflow` goes non-finite with no domain check firing (a product
    # overflows) and `domain` fails ln's check at every point: in this order
    # the overflow is the error, though one program over both names ln
    overflow = TensorField(CHART, "l", ["u", "1e300*1e300*u", "v"])
    domain = TensorField(CHART, "l", ["ln(u - 5)", "v", "w"])
    joint = compile_program(*overflow.entries, *domain.entries)
    for batch in _point_forms():
        with pytest.raises(DomainError) as named:
            run_program(joint, batch.array, order)
        assert named.value.node is domain.entry(0)
        together, alone = _errors((overflow, domain), batch, order)
        assert str(together) == str(alone) and together.node is alone.node
        assert together.reason == "non-finite value or derivative"
        assert together.node is overflow.entry(1)
    # the other way round, and with fields that fail at some points only:
    # 1e306*w^8 overflows at w = 2 (the last point) at order 0 and at
    # w = 1.75 too above it; sqrt(1.6 - u) fails at u = 1.75
    late = TensorField(CHART, "l", ["u", "v", "1e306*w^8"])
    checked = TensorField(CHART, "l", ["v", "sqrt(1.6 - u)", "w"])
    for fields in [(domain, overflow), (late, domain), (checked, late, domain), (late, checked)]:
        for batch in _point_forms():
            together, alone = _errors(fields, batch, order)
            assert str(together) == str(alone)
            assert getattr(together, "node", None) is getattr(alone, "node", None)


# --- the contraction kernel --------------------------------------------------


def _is_single_sum(spec):
    """Two operands and one summed letter, once in each, no other letter
    repeated: the specs that contract forms as one matrix product."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    joined = "".join(inputs)
    summed = set(joined) - set(output)
    return (
        len(inputs) == 2
        and len(summed) == 1
        and all(letters.count(c) == 1 for letters in inputs for c in summed)
        and len(set(joined)) == len(joined) - 1
    )


def _specs_used_in_src():
    """Every single-sum spec that the package passes to contract: the literal
    ones, and those covariant_derivative_arrays builds for ranks 1 to 3."""
    package = Path(tensor.__file__).parent
    specs = {
        spec
        for path in package.glob("*.py")
        for spec in re.findall(r'contract\("([^"]+)"', path.read_text())
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            geometry, "contract", lambda spec, *ops: specs.add(spec) or contract(spec, *ops)
        )
        for rank in (1, 2, 3):
            for flags in itertools.product("ul", repeat=rank):
                shape = (2,) * rank
                geometry.covariant_derivative_arrays(
                    np.zeros(shape), np.zeros(shape + (2,)), "".join(flags), np.zeros((2, 2, 2))
                )
    return sorted(spec for spec in specs if _is_single_sum(spec))


SINGLE_SUM_SPECS = _specs_used_in_src()


def _laid_out(array, layout):
    """The same values in C order, in reversed (Fortran) axis order, or as a
    strided view into a larger buffer."""
    if layout == "c":
        return np.ascontiguousarray(array)
    if layout == "f":
        return np.asfortranarray(array)
    wide = np.zeros(array.shape[:-1] + (2 * array.shape[-1],), dtype=array.dtype)
    wide[..., ::2] = array
    return wide[..., ::2]


def _einsum_spec(spec):
    inputs, output = spec.split("->")
    return ",".join("..." + letters for letters in inputs.split(",")) + "->..." + output


def test_one_budget_sizes_blocks_and_spans(monkeypatch):
    # tensor.BLOCK_BYTES alone cuts a run: blocks of as many points as keep
    # an array of N^4 doubles within it, and a field's spans of as many
    # blocks as keep its largest channel within one such array per block
    assert [tensor.block_size(n) for n in range(2, 7)] == [512, 101, 32, 13, 6]
    metric = TensorField(CHART, "ll", [["1 + u^2", "0", "0"], ["0", "1 + v^2", "0"], ["0", "0", "w"]])
    F = TensorField(CHART, "ul", [["u", "v", "w"], ["1", "u*v", "0"], ["0", "0", "v"]])
    sigma = TensorField(CHART, "l", ["u", "v*w", "1"])
    runs = []

    def counting(program, points, order):
        runs.append((program, order, len(points)))
        return run_program(program, points, order)

    monkeypatch.setattr(tensor, "run_program", counting)
    for budget, size in ((tensor.BLOCK_BYTES, 101), (4 * 8 * 3**4, 4)):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", budget)
        assert tensor.block_size(3) == size
        count = 10 * size + 3
        runs.clear()
        blocks = PointBatch(np.random.default_rng(size).uniform(1.0, 2.0, (count, 3))).blocks()
        lengths = []
        for block in blocks:
            lengths.append(len(block.array))
            metric.jet2(block)
            F.jet(block)
            sigma.jet(block)
        assert lengths == [size] * 10 + [3]
        # the metric's order-2 span is one block, F's order-1 span 3, sigma's 9
        for field, order, width in ((metric, 2, size), (F, 1, 3 * size), (sigma, 1, 9 * size)):
            rows = [n for program, o, n in runs if program is field.program and o == order]
            assert rows == [width] * (count // width) + [count % width], (field.variance, budget)


def test_single_sum_specs_found():
    # the rank-3 covariant derivative and the quadratic curvature term among them
    for spec in ("azn,zbc->abcn", "zbn,azc->abcn", "zcn,abz->abcn", "ajm,ian->ijmn"):
        assert spec in SINGLE_SUM_SPECS
    assert len(SINGLE_SUM_SPECS) >= 25


@pytest.mark.parametrize("spec", SINGLE_SUM_SPECS)
def test_contract_rows_are_lone_points_bit_for_bit(spec):
    # each row of a batch gives the bits of the same point contracted alone,
    # whatever the memory layout of either, and the values agree with einsum
    rng = np.random.default_rng(sum(map(ord, spec)))
    letters = spec.split("->")[0].split(",")
    layouts = ("c", "f", "sliced")
    for n in range(2, 7):
        for case, batch in enumerate((None, 1, 2, 7, 101)):
            # which operand, if any, has no batch axis
            bare = None if batch is None else (case + n) % 3
            operands = []
            for k, own in enumerate(letters):
                lead = () if batch is None or bare == k else (batch,)
                values = rng.standard_normal(lead + (n,) * len(own))
                operands.append(_laid_out(values, layouts[(case + n + k) % 3]))
            got = contract(spec, *operands)
            want = np.einsum(_einsum_spec(spec), *operands)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(
                1.0, np.max(np.abs(want), initial=0.0)
            ), (n, batch)
            if batch is None:
                continue
            for row in range(batch):
                alone = [
                    _laid_out(op if bare == k else op[row], layouts[(case + n + k + 1) % 3])
                    for k, op in enumerate(operands)
                ]
                single = contract(spec, *alone)
                assert single.shape == got.shape[1:]
                assert single.tobytes() == got[row].tobytes(), (n, batch, row)


@pytest.mark.parametrize("spec", SINGLE_SUM_SPECS)
def test_contract_keeps_longdouble(spec):
    rng = np.random.default_rng(5)
    operands = [
        rng.standard_normal((2,) + (3,) * len(own)).astype(np.longdouble)
        for own in spec.split("->")[0].split(",")
    ]
    got = contract(spec, *operands)
    assert got.dtype == np.longdouble
    want = np.einsum(_einsum_spec(spec), *operands)
    # summed in extended precision where longdouble has it, not in float64
    tol = 64 * np.finfo(np.longdouble).eps
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


# --- Kronecker-delta products ----------------------------------------------------

DELTA_SPECS = sorted(
    {
        spec
        for path in Path(tensor.__file__).parent.glob("*.py")
        for spec in re.findall(r'delta_product\("([^"]+)"', path.read_text())
    }
)


def test_delta_specs_found():
    for spec in ("im,jn->ijmn", "in,jm->ijmn", "ij,mn->ijmn", "ik,j->ijk", "ik,jn->ijkn"):
        assert spec in DELTA_SPECS


@pytest.mark.parametrize("spec", DELTA_SPECS)
def test_delta_product_is_the_broadcast_product(spec):
    # the product with the identity, bit for bit up to the sign of exact
    # zeros, whatever the batch around a point
    rank = len(spec.split("->")[0].split(",")[1])
    rng = np.random.default_rng(sum(map(ord, spec)))
    for n in range(2, 7):
        for batch in (None, 1, 7):
            lead = () if batch is None else (batch,)
            t = rng.standard_normal(lead + (n,) * rank)
            got = delta_product(spec, t)
            want = contract(spec, np.eye(n), t)
            assert got.shape == want.shape and got.dtype == t.dtype
            assert np.array_equal(got, want), (n, batch)
            for row in range(batch or 0):
                assert delta_product(spec, t[row]).tobytes() == got[row].tobytes()
    wide = rng.standard_normal((2,) + (3,) * rank).astype(np.longdouble)
    got = delta_product(spec, wide)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, contract(spec, np.eye(3, dtype=np.longdouble), wide))


@pytest.mark.parametrize("spec", DELTA_SPECS)
def test_delta_product_keeps_non_finite_entries(spec):
    # each entry of t lands on N diagonal entries, so a NaN or inf in t stays
    rank = len(spec.split("->")[0].split(",")[1])
    n = 4
    t = np.ones((3,) + (n,) * rank)
    t[1].flat[1] = np.nan
    t[2].flat[-1] = -np.inf
    got = delta_product(spec, t)
    assert np.isfinite(got[0]).all()
    assert np.isnan(got[1]).sum() == n and np.isinf(got[2]).sum() == n
    assert not np.isnan(got[2]).any()


@pytest.mark.parametrize("order", [1, 2])
def test_a_later_fields_non_finite_gradient_names_that_field(order):
    # 1e308*u*u stays finite for u up to 1.34 while its derivatives in u
    # (2e308*u, 2e308) overflow, and no check fires: the joint run's one
    # finiteness check fails, and the fields checked in turn name the later
    # field's entry, the earlier field's channels kept, as runs in turn would
    first = TensorField(CHART, "l", ["u", "sin(v)", "w"])
    later = TensorField(CHART, "l", ["v", "1e308*u*u", "w"])
    points = [(1.25, 1.5, 1.75), (1.0, 2.0, 1.5)]
    joint = compile_program(*first.entries, *later.entries)
    for batch in (PointBatch(points[0]), PointBatch(points)):
        value, *derivatives = run_program(joint, batch.array, order)
        assert np.isfinite(value).all()
        for channel in derivatives:
            assert not np.isfinite(channel[4]).all()
            assert np.isfinite(np.delete(channel, 4, axis=0)).all()
        together, alone = _errors((first, later), batch, order)
        assert str(together) == str(alone) and together.node is alone.node
        assert together.node is later.entry(1)
        assert (first, order) in batch.cache and (later, order) not in batch.cache
        run_fields((first, later), batch, 0)  # the values alone are finite
