import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from tensor_invariants import geometry, tensor
from tensor_invariants.expr import Chart
from tensor_invariants.geometry import weyl_arrays
from tensor_invariants.tensor import TensorField, contract, delta_product

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
