"""Driver construction, exact increment sampling, and the integral isometry."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from martctrl.martingale import (IsometryReport, MartingaleDriver, NoiseBundle,
                                 PathGrid, ScalarIntensity, _pcg64_state,
                                 _seed_words,
                                 sample_increments, step_covariances,
                                 step_intensity_integrals, verify_isometry)
from martctrl.dynamics import OpenLoopPolicy, integrate_forward
from martctrl.pmp import Example1Config, build_example1_problem, within_3se

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


def test_cov_rate():
    d = example_driver()
    q0 = d.cov_rate(0.0)
    assert np.allclose(q0, np.outer(BETA, BETA))
    q1 = d.cov_rate(1.0)
    assert np.allclose(q1, 1.5 * np.outer(BETA, BETA))
    with pytest.raises(ValueError, match="outside horizon"):
        d.cov_rate(2.0)


def test_cov_rate_factor_reproduces_cov_rate():
    # L(t) L(t)^T == Q(t) for r = 0, 1 and 2 components
    two = MartingaleDriver(
        state_dim=4, horizon=1.0,
        components=((BETA, ScalarIntensity.linear(1.0, 0.5, 1.0)),
                    (np.array([0.0, 1.0, 1.0, 0.0]),
                     ScalarIntensity.constant(2.0))))
    for d, rank in ((MartingaleDriver(state_dim=4, horizon=1.0), 0),
                    (example_driver(), 1), (two, 2)):
        for t in (0.0, 0.3, 1.0):
            factor = d.cov_rate_factor(t)
            assert factor.shape == (4, rank)
            assert np.allclose(factor @ factor.T, d.cov_rate(t),
                               rtol=0.0, atol=1e-14)
    # the columns are sqrt(alpha_i(t)) beta_i
    assert np.allclose(two.cov_rate_factor(1.0)[:, 0], np.sqrt(1.5) * BETA)
    with pytest.raises(ValueError, match="outside horizon"):
        two.cov_rate_factor(2.0)


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


@pytest.mark.parametrize("horizon, steps", [(1.0, 400), (0.7, 3), (50.0, 1)])
def test_grid_times_are_built_once_and_read_only(horizon, steps):
    grid = PathGrid(horizon=horizon, steps=steps)
    times = grid.times
    assert grid.times is times
    assert times.tobytes() \
        == np.linspace(0.0, horizon, steps + 1).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        times[0] = 1.0
    # equal grids stay equal, and their times too
    assert grid == PathGrid(horizon=horizon, steps=steps)


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
    # per-path substreams: a longer run extends a shorter one bit for bit
    for paths in (65, 128):
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
    # the body is the path-major (path, step, coordinate) order whatever
    # the layout in memory
    assert raw[32:] == np.ascontiguousarray(bundle.increments).tobytes()
    loaded = NoiseBundle.load(fn, d)
    assert np.array_equal(loaded.increments, bundle.increments)
    assert (loaded.seed, loaded.paths, loaded.steps, loaded.dim) \
        == (bundle.seed, bundle.paths, bundle.steps, bundle.dim)
    assert loaded.driver is d
    again = tmp_path / "again.bin"
    loaded.save(again)
    assert again.read_bytes() == raw


def per_step_blocks_contiguous(a):
    return all(a[:, k].flags.c_contiguous for k in range(a.shape[1]))


def test_bundles_are_step_major(tmp_path):
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=6)
    sampled = sample_increments(d, grid, paths=5, seed=8)
    fn = tmp_path / "noise.bin"
    sampled.save(fn)
    loaded = NoiseBundle.load(fn, d)
    for bundle in (sampled, loaded):
        assert bundle.increments.shape == (5, 6, 4)
        assert per_step_blocks_contiguous(bundle.increments)
    # a path-major array is copied into the step-major layout ...
    path_major = np.ascontiguousarray(sampled.increments)
    built = NoiseBundle(increments=path_major, seed=8, grid=grid, driver=d)
    assert per_step_blocks_contiguous(built.increments)
    assert np.array_equal(built.increments, path_major)
    # ... and a step-major one is kept without a copy
    held = sampled.increments
    again = NoiseBundle(increments=held, seed=8, grid=grid, driver=d)
    assert np.shares_memory(again.increments, held)


# signed zeros and subnormals give products of either sign of zero, and
# products that underflow to one
EDGE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2e-308]),
                 st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dim=st.integers(1, 5), count=st.integers(1, 3),
       steps=st.integers(1, 4), paths=st.integers(1, 5))
def test_formed_steps_keep_the_bits_of_the_summed_increments(
        tmp_path_factory, data, dim, count, steps, paths):
    betas = [data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                          st.floats(-2.0, 2.0)),
                                min_size=dim, max_size=dim)
                       .filter(lambda b: np.linalg.norm(b) > 0.0))
             for _ in range(count)]
    driver = driver_from(dim, betas, [1.0] * count, [0.0] * count)
    grid = PathGrid(horizon=1.0, steps=steps)
    xi = np.array(data.draw(st.lists(EDGE, min_size=count * steps * paths,
                                     max_size=count * steps * paths)))
    xi = xi.reshape(count, steps, paths)
    # reference: 0 + sum_i xi_ik beta_i, summed in component order
    reference = np.zeros((paths, steps, dim))
    for i, beta in enumerate(driver.betas()):
        for k in range(steps):
            reference[:, k] += xi[i, k][:, None] * beta
    bundle = NoiseBundle._of_normals(xi, 3, grid, driver)
    buf = np.empty((paths, dim))
    for k in range(steps):
        got = bundle.step(k, out=buf)
        assert got is buf
        assert got.tobytes() == reference[:, k].tobytes()
    assert np.ascontiguousarray(bundle.increments).tobytes() \
        == reference.tobytes()
    folder = tmp_path_factory.mktemp("noise")
    bundle.save(folder / "formed.bin")
    NoiseBundle(increments=reference, seed=3, grid=grid,
                driver=driver).save(folder / "summed.bin")
    assert (folder / "formed.bin").read_bytes() \
        == (folder / "summed.bin").read_bytes()


def test_a_driver_without_components_samples_zero_noise():
    driver = MartingaleDriver(state_dim=2, horizon=1.0)
    bundle = sample_increments(driver, PathGrid(horizon=1.0, steps=3),
                               paths=4, seed=1)
    assert bundle.increments.tobytes() == np.zeros((4, 3, 2)).tobytes()
    assert bundle.step(2).tobytes() == np.zeros((4, 2)).tobytes()


@pytest.mark.parametrize("sampled", [True, False])
def test_a_step_outside_the_grid_is_refused(sampled):
    grid = PathGrid(horizon=1.0, steps=5)
    bundle = sample_increments(example_driver(), grid, 3, 1)
    if not sampled:
        bundle = NoiseBundle(bundle.increments, 1, grid, bundle.driver)
    for k in (-1, 5, 6):
        with pytest.raises(ValueError, match=rf"step {k} is not in 0\.\.4"):
            bundle.step(k)
    assert bundle.step(4).shape == (3, 4)


def test_sampling_peak_is_the_normals_and_one_seed_block():
    # each seed block is drawn into one reused buffer and scaled straight
    # into the held normals, so no second full-size array is ever alive;
    # here a block is 512 of 10000 paths, about 1/20 of the normals
    paths, steps = 10000, 200
    grid = PathGrid(horizon=1.0, steps=steps)
    tracemalloc.start()
    try:
        sample_increments(example_driver(), grid, paths, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * paths * steps * 8   # one component's normals


def test_sampled_noise_holds_less_than_its_increments():
    # the bundle keeps one scaled normal per step and path, a quarter of
    # example1's (paths, steps, 4) increments, and a forward run forms
    # each step's increments in one reused buffer
    paths, steps = 2000, 50
    cfg = Example1Config(paths=paths, steps=steps)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    array = paths * steps * driver.state_dim * 8
    tracemalloc.start()
    try:
        bundle = sample_increments(driver, grid, paths, cfg.seed)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        traj = integrate_forward(problem, OpenLoopPolicy(u_star), bundle,
                                 np.asarray(cfg.x0))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample_peak < array
    assert max(sample_peak, run_peak) < traj.states.nbytes + array


def driver_from(dim, betas, rates, slopes):
    return MartingaleDriver(
        state_dim=dim, horizon=1.0,
        components=tuple((np.array(b), ScalarIntensity.linear(r, s, 1.0))
                         for b, r, s in zip(betas, rates, slopes)))


@st.composite
def drivers(draw, max_components):
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, max_components))
    # zero entries in beta give products of either sign of zero
    entry = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    betas = [draw(st.lists(entry, min_size=dim, max_size=dim)
                  .filter(lambda b: np.linalg.norm(b) > 0.0))
             for _ in range(count)]
    rates = draw(st.lists(st.floats(0.01, 10.0), min_size=count,
                          max_size=count))
    slopes = draw(st.lists(st.floats(0.0, 5.0), min_size=count,
                           max_size=count))
    return driver_from(dim, betas, rates, slopes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(driver=drivers(max_components=4), steps=st.integers(1, 12),
       paths=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
def test_sampling_matches_per_path_products(driver, steps, paths, seed):
    # reference: each path's (steps, n_components) @ (n_components, dim)
    # product; one component gives the same bytes, signed zeros included,
    # and more components sum in another order, within rounding
    grid = PathGrid(horizon=1.0, steps=steps)
    scales = np.sqrt(step_intensity_integrals(driver, grid))
    betas = driver.betas()
    reference = np.empty((paths, steps, driver.state_dim))
    bound = np.empty_like(reference)
    for p in range(paths):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        scaled = scales * rng.standard_normal((driver.n_components, steps))
        reference[p] = scaled.T @ betas
        bound[p] = np.abs(scaled.T) @ np.abs(betas)
    got = sample_increments(driver, grid, paths, seed).increments
    if driver.n_components == 1:
        assert np.ascontiguousarray(got).tobytes() == reference.tobytes()
    else:
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - reference)
                      <= driver.n_components * eps * bound)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(driver=drivers(max_components=4), steps=st.integers(1, 12),
       few=st.integers(1, 4), extra=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32))
def test_more_paths_extend_fewer_from_one_path(driver, steps, few, extra,
                                               seed):
    grid = PathGrid(horizon=1.0, steps=steps)
    short = sample_increments(driver, grid, few, seed).increments
    long = sample_increments(driver, grid, few + extra, seed).increments
    assert np.ascontiguousarray(long[:few]).tobytes() \
        == np.ascontiguousarray(short).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 160), first=st.integers(0, 2 ** 20 - 8),
       count=st.integers(1, 8))
@example(seed=0, first=0, count=8)
@example(seed=2 ** 32 - 1, first=2 ** 20 - 8, count=8)
@example(seed=2 ** 32, first=1023, count=3)
@example(seed=2 ** 64 + 1, first=5, count=1)
@example(seed=2 ** 128 + 3, first=2 ** 16, count=8)
def test_path_seeds_reproduce_numpy_seeding(seed, first, count):
    # the vectorized seeding must give each path the PCG64 state numpy
    # derives from its SeedSequence; after a numpy upgrade run this first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = _seed_words(seed, first, first + count)
    assert words.shape == (count, 8)
    for p, w in enumerate(words, first):
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(p,))
        assert np.array_equal(w, sequence.generate_state(8))
        assert _pcg64_state(w.tolist()) == np.random.PCG64(sequence).state


def per_path_reference(driver, grid, paths, seed):
    """Reference increments: one default_rng per path, built from its own
    SeedSequence, summed in component order as the sampler sums them."""
    scales = np.sqrt(step_intensity_integrals(driver, grid))
    xi = np.empty((paths, driver.n_components, grid.steps))
    for p in range(paths):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        rng.standard_normal(out=xi[p])
    xi *= scales
    increments = np.zeros((paths, grid.steps, driver.state_dim))
    for k in range(grid.steps):
        for i, beta in enumerate(driver.betas()):
            increments[:, k] += xi[:, i, k, None] * beta
    return increments


# zero entries give products of either sign of zero
REFERENCE_BETAS = (np.array([1.0, -0.0, 0.0]), np.array([-0.0, 2.5, -1.0]),
                   np.array([0.0, 0.0, -3.0]), np.array([0.5, 0.25, 0.0]))


@pytest.mark.parametrize("components", [0, 1, 2, 4])
# 1030 paths span three of the sampler's seeding blocks
@pytest.mark.parametrize("paths", [1, 2, 7, 64, 1030])
def test_sampling_reproduces_per_path_generators(components, paths):
    driver = driver_from(3, REFERENCE_BETAS[:components],
                         [0.5, 1.0, 2.0, 4.0][:components],
                         [0.0, 1.5, 0.5, 3.0][:components])
    grid = PathGrid(horizon=1.0, steps=9)
    for seed in (0, 2 ** 64 + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_increments(driver, grid, paths, seed).increments
        assert np.ascontiguousarray(got).tobytes() \
            == per_path_reference(driver, grid, paths, seed).tobytes()


def test_sampling_rejects_a_negative_seed():
    grid = PathGrid(horizon=1.0, steps=3)
    with pytest.raises(ValueError, match="non-negative"):
        sample_increments(example_driver(), grid, 2, -1)
    with pytest.raises(ValueError, match="non-negative"):
        sample_increments(MartingaleDriver(state_dim=2, horizon=1.0), grid,
                          2, -1)
    with pytest.raises(ValueError, match="non-negative"):
        _seed_words(-5, 0, 1)


def test_noise_bundle_load_rebuilds_grid_from_driver(tmp_path):
    # the file stores no horizon: the driver's horizon and the stored step
    # count give the grid back
    d = example_driver(horizon=2.0)
    bundle = sample_increments(d, PathGrid(horizon=2.0, steps=8), paths=3,
                               seed=4)
    fn = tmp_path / "noise.bin"
    bundle.save(fn)
    loaded = NoiseBundle.load(fn, d)
    assert loaded.grid == PathGrid(horizon=2.0, steps=8)
    assert np.array_equal(loaded.increments, bundle.increments)
    two = MartingaleDriver(
        state_dim=2, horizon=2.0,
        components=((np.array([1.0, 0.0]), ScalarIntensity.constant(1.0)),))
    with pytest.raises(ValueError, match="state_dim 2"):
        NoiseBundle.load(fn, two)


def test_noise_bundle_load_rejects_bad_files(tmp_path):
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=12)
    bundle = sample_increments(d, grid, paths=4, seed=1)
    fn = tmp_path / "noise.bin"
    bundle.save(fn)
    fn.write_bytes(fn.read_bytes()[:40])
    with pytest.raises(ValueError, match="body"):
        NoiseBundle.load(fn, d)
    fn.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError, match="truncated"):
        NoiseBundle.load(fn, d)


def test_noise_bundle_save_refuses_a_seed_beyond_the_header(tmp_path):
    # sample_increments takes any non-negative seed, but the header keeps
    # the seed in a signed int64
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=3)
    fn = tmp_path / "noise.bin"
    for seed in (2 ** 63, 2 ** 64 + 1):
        bundle = sample_increments(d, grid, paths=2, seed=seed)
        with pytest.raises(ValueError,
                           match=r"int64 range \[-2\*\*63, 2\*\*63 - 1\]"):
            bundle.save(fn)
        assert not fn.exists()
    sample_increments(d, grid, paths=2, seed=2 ** 63 - 1).save(fn)
    assert NoiseBundle.load(fn, d).seed == 2 ** 63 - 1


def test_bundle_shape_validation():
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=3)
    with pytest.raises(ValueError, match="3-d"):
        NoiseBundle(increments=np.zeros((4, 3)), seed=0, grid=grid, driver=d)
    with pytest.raises(ValueError, match="steps"):
        NoiseBundle(increments=np.zeros((4, 5, 4)), seed=0, grid=grid,
                    driver=d)


def test_bundle_rejects_increments_off_the_driver_dimension():
    # the driver pairs the increments with its covariances, so their last
    # axis must be its state_dim
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=3)
    with pytest.raises(ValueError, match="state_dim 4"):
        NoiseBundle(increments=np.zeros((4, 3, 2)), seed=0, grid=grid,
                    driver=d)
    assert NoiseBundle(increments=np.zeros((4, 3, 4)), seed=0, grid=grid,
                       driver=d).dim == 4


def test_isometry_identity_process_frozen_value():
    # E|int dM|^2 for Phi = I: quadrature equals |beta|^2 (T + T^2/4) exactly
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=400)
    bundle = sample_increments(d, grid, paths=20000, seed=7071)
    rep = verify_isometry(np.eye(4), bundle)
    assert rep.quadrature_value == pytest.approx(1.640625, abs=1e-12)
    assert float(BETA @ BETA) * (1.0 + 0.25) == pytest.approx(1.640625)
    assert isinstance(rep, IsometryReport)
    assert within_3se("isometry", rep.difference, rep.mc_stderr,
                      rep.quadrature_value, "quadrature", "").passed


def test_isometry_validates_shapes():
    d = example_driver()
    grid = PathGrid(horizon=1.0, steps=5)
    bundle = sample_increments(d, grid, paths=10, seed=0)
    # a non-square Phi projects the integral onto its rows
    rep = verify_isometry(np.eye(4)[:2], bundle)
    totals = bundle.increments.sum(axis=1)[:, :2]
    assert rep.mc_estimate == pytest.approx(
        float(np.mean(np.sum(totals ** 2, axis=1))))
    for bad in (np.eye(3), np.zeros((4, 2, 4)), np.zeros(4)):
        with pytest.raises(ValueError,
                           match=r"phi must be an \(n_out, 4\) matrix"):
            verify_isometry(bad, bundle)
