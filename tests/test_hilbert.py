"""Vector coercion and batched operator application."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from martctrl.hilbert import DiagonalBatch, apply_operator, as_vector
from martctrl.pmp import Example1Config, build_example1_problem

SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
            np.inf, -np.inf, np.nan)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), paths=st.integers(1, 6), n=st.integers(1, 5))
def test_diagonal_action_has_the_bytes_of_the_dense_contraction(data, paths,
                                                                n):
    # on every row whose entries are finite the diagonal action gives the
    # bytes of einsum("pij,pj->pi") on the dense form, signed zeros,
    # subnormals and overflows included
    values = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))
    diagonals, vecs = (data.draw(arrays(np.float64, (paths, n),
                                        elements=values), label=label)
                       for label in ("diagonals", "vecs"))
    op = DiagonalBatch(diagonals)
    with np.errstate(all="ignore"):
        got = apply_operator(op, vecs)
        dense = np.einsum("pij,pj->pi", np.asarray(op), vecs)
    rows = np.isfinite(diagonals).all(axis=1) & np.isfinite(vecs).all(axis=1)
    assert got.shape == dense.shape == (paths, n)
    assert got[rows].tobytes() == dense[rows].tobytes()


def test_diagonal_batch_densifies_to_the_zero_filled_batch():
    # np.asarray gives the (P, n, n) array the tanh drift's F_x was built
    # as before it declared its diagonals
    cfg = Example1Config(drift_gain=0.25)
    problem, _, _, u_star = build_example1_problem(cfg)
    x = 3.0 * np.random.default_rng(7).standard_normal((9, cfg.state_dim))
    f_x = problem.F_x(0.5, x, np.broadcast_to(u_star, (9, cfg.control_dim)))
    expected = np.zeros((9, cfg.state_dim, cfg.state_dim))
    idx = np.arange(cfg.state_dim)
    expected[:, idx, idx] = 0.25 * (1.0 - np.tanh(x) ** 2)
    assert isinstance(f_x, DiagonalBatch)
    for dense in (np.asarray(f_x), np.asarray(f_x, dtype=float)):
        assert dense.dtype == np.float64
        assert dense.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(3, 5), (2, 4), (3, 4, 1), (4,)])
def test_diagonal_batch_of_the_wrong_shape_raises(shape):
    with pytest.raises(ValueError, match="do not match"):
        apply_operator(DiagonalBatch(np.ones((3, 4))), np.ones(shape))
