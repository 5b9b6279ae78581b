import numpy as np
import pytest

from tensor_invariants.expr import Chart
from tensor_invariants.geometry import weyl_arrays
from tensor_invariants.tensor import TensorField

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
