"""Vector coercion and batched operator application."""

import numpy as np
import pytest

from martctrl.hilbert import apply_operator, as_vector


def test_as_vector_checks():
    v = as_vector([1.0, 2.0], dim=2)
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


def test_apply_operator_batched():
    rng = np.random.default_rng(11)
    op = rng.standard_normal((3, 4))
    vecs = rng.standard_normal((6, 4))
    out = apply_operator(op, vecs)
    assert out.shape == (6, 3)
    assert np.allclose(out, vecs @ op.T)
    ops = rng.standard_normal((6, 3, 4))
    out3 = apply_operator(ops, vecs)
    expected = np.stack([ops[p] @ vecs[p] for p in range(6)])
    assert np.allclose(out3, expected)
    with pytest.raises(ValueError):
        apply_operator(rng.standard_normal(4), vecs)
