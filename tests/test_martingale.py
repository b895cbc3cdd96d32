"""Driver construction, exact increment sampling, and the integral isometry."""

import numpy as np
import pytest

from martctrl._parallel import BLOCK_SIZE
from martctrl.hilbert import psd_sqrt
from martctrl.martingale import (IsometryReport, MartingaleDriver, NoiseBundle,
                                 PathGrid, ScalarIntensity,
                                 sample_increments, step_covariances,
                                 step_intensity_integrals, verify_isometry)

BETA = np.array([1.0, -0.5, 0.25, 0.0])


def example_driver(horizon=1.0):
    return MartingaleDriver(
        state_dim=4, horizon=horizon,
        components=((BETA, ScalarIntensity.linear(1.0, 0.5, horizon)),))


def test_scalar_intensity_constant_and_linear():
    c = ScalarIntensity.constant(2.0)
    assert np.allclose(c.values(np.linspace(0, 1, 5)), 2.0)
    lin = ScalarIntensity.linear(1.0, 0.5, 1.0)
    assert lin.alpha_max == pytest.approx(1.5)
    assert np.allclose(lin.values(np.array([0.0, 1.0])), [1.0, 1.5])
    with pytest.raises(ValueError):
        ScalarIntensity.constant(0.0)
    with pytest.raises(ValueError):
        ScalarIntensity.constant(-1.0)


def test_scalar_intensity_enforces_bounds():
    # declared alpha_max below the actual values must be caught on evaluation
    bad = ScalarIntensity(alpha=lambda t: 1.0 + 0.0 * np.asarray(t), alpha_max=0.5)
    with pytest.raises(ValueError, match="alpha_max"):
        bad.values(np.array([0.3]))
    negative = ScalarIntensity(alpha=lambda t: np.asarray(t) - 0.5, alpha_max=1.0)
    with pytest.raises(ValueError, match="positive"):
        negative.values(np.array([0.1]))


def test_path_grid_alignment():
    grid = PathGrid(horizon=1.0, steps=400)
    assert grid.dt == pytest.approx(0.0025)
    assert grid.times.shape == (401,)
    assert grid.index_of(0.25) == 100
    assert grid.span_of(0.05) == 20
    with pytest.raises(ValueError, match="not aligned"):
        grid.index_of(0.2511)
    with pytest.raises(ValueError, match="outside"):
        grid.index_of(1.5)
    with pytest.raises(ValueError, match="whole number"):
        grid.span_of(0.0013)
    with pytest.raises(ValueError):
        PathGrid(horizon=0.0, steps=10)
    with pytest.raises(ValueError):
        PathGrid(horizon=1.0, steps=0)


def test_driver_validation():
    with pytest.raises(ValueError, match="nonzero"):
        MartingaleDriver(state_dim=2, horizon=1.0,
                         components=((np.zeros(2), ScalarIntensity.constant(1.0)),))
    with pytest.raises(TypeError):
        MartingaleDriver(state_dim=2, horizon=1.0,
                         components=((np.ones(2), 1.0),))
    with pytest.raises(ValueError):
        MartingaleDriver(state_dim=2, horizon=1.0,
                         components=((np.ones(3), ScalarIntensity.constant(1.0)),))


def test_cov_rate_and_dominating_operator():
    d = example_driver()
    q0 = d.cov_rate(0.0)
    assert np.allclose(q0, np.outer(BETA, BETA))
    q1 = d.cov_rate(1.0)
    assert np.allclose(q1, 1.5 * np.outer(BETA, BETA))
    qbar = d.dominating_operator()
    # Q_bar - Q(t) must stay PSD across the horizon
    for t in np.linspace(0.0, 1.0, 7):
        gap = qbar - d.cov_rate(t)
        assert np.min(np.linalg.eigvalsh(gap)) >= -1e-12
    with pytest.raises(ValueError, match="outside horizon"):
        d.cov_rate(2.0)


def test_cov_rate_sqrt_is_computed_once_per_time():
    d = example_driver()
    for t in (0.0, 0.3, 1.0):
        root = d.cov_rate_sqrt(t)
        assert np.array_equal(root, psd_sqrt(d.cov_rate(t)))
        assert d.cov_rate_sqrt(t) is root
        assert not root.flags.writeable
    # a rebuilt driver keeps its own memo
    other = example_driver()
    assert other.cov_rate_sqrt(0.3) is not d.cov_rate_sqrt(0.3)
    with pytest.raises(ValueError, match="outside horizon"):
        d.cov_rate_sqrt(2.0)


def test_step_integrals_exact_for_linear_intensity():
    # trapezoid rule integrates affine alpha exactly
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=10)
    ints = step_intensity_integrals(d, grid)
    times = grid.times
    exact = (times[1:] - times[:-1]) + 0.25 * (times[1:] ** 2 - times[:-1] ** 2)
    assert np.allclose(ints[0], exact, atol=1e-15)
    assert ints.sum() == pytest.approx(1.0 + 0.25)  # int_0^1 (1 + t/2) dt


def test_step_covariances_assemble_components():
    beta2 = np.array([0.0, 1.0, 0.0, 0.0])
    d = MartingaleDriver(
        state_dim=4, horizon=1.0,
        components=((BETA, ScalarIntensity.constant(1.0)),
                    (beta2, ScalarIntensity.constant(2.0))))
    grid = PathGrid(horizon=1.0, steps=4)
    covs = step_covariances(d, grid)
    assert covs.shape == (4, 4, 4)
    expected = 0.25 * (np.outer(BETA, BETA) + 2.0 * np.outer(beta2, beta2))
    assert np.allclose(covs[2], expected)


def test_grid_horizon_must_match_driver():
    d = example_driver(horizon=1.0)
    with pytest.raises(ValueError, match="horizon"):
        step_intensity_integrals(d, PathGrid(horizon=2.0, steps=10))


def test_sampled_increments_match_moments():
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=50)
    bundle = sample_increments(d, grid, paths=8000, seed=99)
    assert bundle.increments.shape == (8000, 50, 4)
    covs = step_covariances(d, grid)
    # total increment M(T): mean zero, covariance sum_k int Q
    total = bundle.increments.sum(axis=1)
    target = covs.sum(axis=0)
    mean = total.mean(axis=0)
    se_mean = total.std(axis=0, ddof=1) / np.sqrt(total.shape[0])
    assert np.all(np.abs(mean) <= 4.0 * se_mean + 1e-12)
    sample_cov = np.cov(total.T)
    # fourth-moment based standard error for each covariance entry
    centered = total - mean
    prods = centered[:, :, None] * centered[:, None, :]
    se_cov = prods.std(axis=0, ddof=1) / np.sqrt(total.shape[0])
    assert np.all(np.abs(sample_cov - target) <= 4.0 * se_cov + 1e-12)


def test_sampling_is_extensible():
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=20)
    one = sample_increments(d, grid, paths=64, seed=5)
    # per-path substreams: a longer run extends a shorter one bit for bit,
    # also across the boundary of the first BLOCK_SIZE block
    for paths in (128, BLOCK_SIZE + 1):
        longer = sample_increments(d, grid, paths=paths, seed=5)
        assert longer.increments.shape == (paths, 20, 4)
        assert np.array_equal(longer.increments[:64], one.increments)
    different = sample_increments(d, grid, paths=64, seed=6)
    assert not np.array_equal(different.increments, one.increments)


def test_noise_bundle_round_trip(tmp_path):
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=12)
    bundle = sample_increments(d, grid, paths=10, seed=42)
    fn = tmp_path / "noise.bin"
    bundle.save(fn)
    # header: four little-endian int64 fields, then row-major float64 body
    raw = fn.read_bytes()
    assert len(raw) == 32 + 10 * 12 * 4 * 8
    header = np.frombuffer(raw[:32], dtype="<i8")
    assert list(header) == [4, 12, 10, 42]
    loaded = NoiseBundle.load(fn, grid)
    assert np.array_equal(loaded.increments, bundle.increments)
    assert loaded.identity() == bundle.identity()


def test_noise_bundle_load_rejects_bad_files(tmp_path):
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=12)
    bundle = sample_increments(d, grid, paths=4, seed=1)
    fn = tmp_path / "noise.bin"
    bundle.save(fn)
    with pytest.raises(ValueError, match="steps"):
        NoiseBundle.load(fn, PathGrid(horizon=1.0, steps=13))
    fn.write_bytes(fn.read_bytes()[:40])
    with pytest.raises(ValueError, match="body"):
        NoiseBundle.load(fn, grid)
    fn.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError, match="truncated"):
        NoiseBundle.load(fn, grid)


def test_bundle_shape_validation():
    grid = PathGrid(horizon=1.0, steps=3)
    with pytest.raises(ValueError, match="3-d"):
        NoiseBundle(increments=np.zeros((4, 3)), seed=0, grid=grid)
    with pytest.raises(ValueError, match="steps"):
        NoiseBundle(increments=np.zeros((4, 5, 2)), seed=0, grid=grid)


def test_isometry_identity_process_frozen_value():
    # E|int dM|^2 for Phi = I: quadrature equals |beta|^2 (T + T^2/4) exactly
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=400)
    bundle = sample_increments(d, grid, paths=20000, seed=7071)
    rep = verify_isometry(np.eye(4), d, bundle)
    assert rep.quadrature_value == pytest.approx(1.640625, abs=1e-12)
    assert float(BETA @ BETA) * (1.0 + 0.25) == pytest.approx(1.640625)
    assert isinstance(rep, IsometryReport)
    assert rep.within(3.0)


def test_isometry_accepts_callable_and_stepwise_phi():
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=25)
    bundle = sample_increments(d, grid, paths=500, seed=3)
    proj = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    from_matrix = verify_isometry(proj, d, bundle)
    from_callable = verify_isometry(lambda t: proj, d, bundle)
    stack = np.broadcast_to(proj, (25, 2, 4))
    from_array = verify_isometry(stack, d, bundle)
    assert from_matrix.mc_estimate == pytest.approx(from_callable.mc_estimate)
    assert from_matrix.quadrature_value == pytest.approx(
        from_array.quadrature_value)


def test_isometry_validates_shapes():
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=5)
    bundle = sample_increments(d, grid, paths=10, seed=0)
    with pytest.raises(ValueError, match="columns"):
        verify_isometry(np.eye(3), d, bundle)
    with pytest.raises(ValueError, match="one matrix per step"):
        verify_isometry(np.zeros((4, 2, 4)), d, bundle)
