"""Forward integration, spikes, variational processes, and cost evaluation."""

import dataclasses
import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from martctrl import dynamics
from martctrl.adjoint import solve_adjoint_lsmc
from martctrl.dynamics import (AffineDiffusion, BallSet, BlowUpError, BoxSet,
                               ControlProblem, CostWalk, FeedbackPolicy,
                               FiniteSet, OpenLoopPolicy,
                               SpikeSpec, TrajectoryBundle, VariationWalk,
                               apply_spike, evaluate_cost,
                               finite_diff_check, integrate_forward,
                               integrate_variational, sample_controls,
                               spiked_costs, stream_spiked)
from martctrl.hilbert import DiagonalBatch
from martctrl.martingale import (_SEED_BLOCK, MartingaleDriver, NoiseBundle,
                                 PathGrid, ScalarIntensity, sample_increments)
from martctrl.pmp import (Example1Config, Example2Config, StateBox,
                          build_example1_problem, build_example2_problem)

PACKAGED = {"example1": Example1Config(),
            "example1-tanh": Example1Config(drift_gain=0.25),
            "example2": Example2Config()}


def packaged(name, **fields):
    """Problem, driver, grid and an admissible constant control of a
    packaged problem, with the given config fields replaced."""
    cfg = dataclasses.replace(PACKAGED[name], **fields)
    if name == "example2":
        problem, driver, grid = build_example2_problem(cfg)
        return cfg, problem, driver, grid, np.zeros(cfg.control_dim)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    return cfg, problem, driver, grid, u_star


def dense_diffusion(cfg, x, offset=True):
    """(P, n, n) operators s_p G~ + D of a packaged config, built from its
    fields: s_p = x_p . beta for example1 (no D), x_p . gamma for example2.
    Without the offset D they are the derivatives along x."""
    n = cfg.state_dim
    g_tilde = np.asarray(cfg.g_tilde, dtype=float).reshape(n, n)
    weights = cfg.gamma if isinstance(cfg, Example2Config) else cfg.beta
    ops = (x @ np.asarray(weights, dtype=float))[:, None, None] * g_tilde
    if offset and isinstance(cfg, Example2Config):
        ops = ops + np.asarray(cfg.d, dtype=float).reshape(n, n)
    return ops


def make_driver(dim=2, horizon=1.0):
    beta = np.zeros(dim)
    beta[0] = 1.0
    return MartingaleDriver(
        state_dim=dim, horizon=horizon,
        components=((beta, ScalarIntensity.constant(1.0)),))


def constant_g_problem(dim=2, drift=None, g_scale=0.5, ell=None, h=None):
    """Affine test problem: F = drift + u padded, G constant, simple costs."""
    drift = np.zeros(dim) if drift is None else np.asarray(drift, dtype=float)
    g = g_scale * np.eye(dim)

    def pad(u):
        out = np.zeros((u.shape[0], dim))
        out[:, :u.shape[1]] = u
        return out

    return ControlProblem(
        F=lambda t, x, u: drift + pad(u),
        G=lambda t, x, dm: dm @ g.T,
        ell=ell if ell is not None else (lambda t, x, u: np.zeros(x.shape[0])),
        h=h if h is not None else (lambda x: np.zeros(x.shape[0])),
        F_x=lambda t, x, u: np.zeros((dim, dim)),
        F_u=lambda t, x, u: np.eye(dim),
        G_x=lambda t, x, d, dm: np.zeros_like(x),
        ell_x=lambda t, x, u: np.zeros_like(x),
        ell_u=lambda t, x, u: np.zeros_like(u),
        h_x=lambda x: np.zeros_like(x),
        control_set=BoxSet(lower=-np.ones(dim), upper=np.ones(dim)),
        name="constant-g")


def test_box_set_contains_and_probe_grid():
    box = BoxSet(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
    assert box.dim == 2
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([0.0, 2.5]))
    grid = box.probe_grid(points_per_dim=5)
    assert grid.shape == (25, 2)
    assert all(box.contains(v) for v in grid)
    capped = box.probe_grid(points_per_dim=200, cap=100)
    assert capped.shape[0] <= 100


def test_ball_and_finite_sets():
    ball = BallSet(center=np.zeros(2), radius=1.0)
    assert ball.contains(np.array([0.5, 0.5]))
    assert not ball.contains(np.array([1.2, 0.0]))
    probes = ball.probe_grid(points_per_dim=7)
    assert all(ball.contains(v) for v in probes)
    fin = FiniteSet(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert fin.contains(np.array([1.0, 1.0]))
    assert not fin.contains(np.array([0.5, 0.5]))
    assert fin.probe_grid().shape == (2, 2)
    assert not fin.is_convex and ball.is_convex and BoxSet(
        lower=-np.ones(1), upper=np.ones(1)).is_convex


def test_control_set_nearest():
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    assert np.array_equal(box.nearest(np.array([2.0, 0.5])), [1.0, 0.5])
    ball = BallSet(center=np.array([1.0, 0.0]), radius=2.0)
    assert np.allclose(ball.nearest(np.array([1.0, 5.0])), [1.0, 2.0])
    assert np.array_equal(ball.nearest(np.array([0.5, 0.5])), [0.5, 0.5])
    fin = FiniteSet(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(fin.nearest(np.array([0.9, 0.4])), [1.0, 1.0])
    for cs, v in ((box, [3.0, -3.0]), (ball, [-4.0, 4.0]), (fin, [9.0, 0.0])):
        assert cs.contains(cs.nearest(np.array(v)))


def test_sample_controls_stay_admissible():
    rng = np.random.default_rng(0)
    for cs in (BoxSet(lower=-np.ones(3), upper=np.ones(3)),
               BallSet(center=np.ones(2), radius=0.5),
               FiniteSet(points=np.array([[1.0], [2.0], [3.0]]))):
        draws = sample_controls(cs, 200, rng)
        assert draws.shape[0] == 200
        assert all(cs.contains(v) for v in draws)


def test_open_loop_policy():
    u = np.array([0.5, -0.5])
    pol = OpenLoopPolicy(u)
    states = np.zeros((3, 2))
    assert pol.controls_at(2, 0.5, states).shape == (3, 2)
    # the policy keeps its own copy: the caller may reuse its array
    u[:] = 9.0
    assert np.array_equal(pol.controls_at(2, 0.5, states),
                          np.tile([0.5, -0.5], (3, 1)))
    with pytest.raises(ValueError, match="1-d"):
        OpenLoopPolicy(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        OpenLoopPolicy(np.array([0.0, np.nan]))


def test_feedback_policy_shape_check():
    pol = FeedbackPolicy(fn=lambda t, x: -x)
    states = np.ones((5, 2))
    assert np.allclose(pol.controls_at(0, 0.0, states), -1.0)
    bad = FeedbackPolicy(fn=lambda t, x: np.zeros(3))
    with pytest.raises(ValueError):
        bad.controls_at(0, 0.0, states)


def test_spike_spec_window():
    grid = PathGrid(horizon=1.0, steps=100)
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([1.0]))
    assert spec.window(grid) == (25, 35)
    with pytest.raises(ValueError):
        SpikeSpec(t0=-0.1, eps=0.1, v=np.array([1.0]))
    with pytest.raises(ValueError):
        SpikeSpec(t0=0.1, eps=0.0, v=np.array([1.0]))
    with pytest.raises(ValueError, match="not aligned"):
        SpikeSpec(t0=0.2501, eps=0.1, v=np.array([1.0])).window(grid)
    with pytest.raises(ValueError, match="past the horizon"):
        SpikeSpec(t0=0.95, eps=0.1, v=np.array([1.0])).window(grid)


def test_spiked_policy_values():
    grid = PathGrid(horizon=1.0, steps=10)
    base = OpenLoopPolicy(np.array([0.0]))
    spec = SpikeSpec(t0=0.3, eps=0.2, v=np.array([2.0]))
    pol = apply_spike(base, spec, grid)
    states = np.zeros((2, 1))
    assert np.allclose(pol.controls_at(2, 0.2, states), 0.0)
    assert np.allclose(pol.controls_at(3, 0.3, states), 2.0)
    assert np.allclose(pol.controls_at(4, 0.4, states), 2.0)
    assert np.allclose(pol.controls_at(5, 0.5, states), 0.0)


def test_forward_euler_exact_for_affine_dynamics():
    # F = a + u constant, G constant: X(T) = x0 + (a + u) T + G M(T) exactly
    dim = 2
    problem = constant_g_problem(dim=dim, drift=np.array([0.3, -0.1]))
    driver = make_driver(dim)
    grid = PathGrid(horizon=1.0, steps=64)
    bundle = sample_increments(driver, grid, paths=32, seed=8)
    u = np.array([0.25, 0.5])
    pol = OpenLoopPolicy(u)
    x0 = np.array([1.0, -1.0])
    traj = integrate_forward(problem, pol, bundle, x0)
    m_total = bundle.increments.sum(axis=1)
    expected = x0 + (np.array([0.3, -0.1]) + u) + m_total @ (0.5 * np.eye(dim)).T
    assert np.allclose(traj.states[:, -1, :], expected, atol=1e-12)
    # realized controls reproduce the schedule
    assert np.allclose(traj.controls(), u, atol=0.0)


def assert_records_fresh_evaluation(traj):
    """Every recorded control equals the policy evaluated at the stored state."""
    times = traj.grid.times
    assert len(traj.recorded) == traj.grid.steps
    for k in range(traj.grid.steps):
        assert traj.recorded[k] is not None, k
        fresh = traj.policy.controls_at(k, times[k], traj.states[:, k, :])
        assert np.array_equal(traj.control_at(k), fresh), k
    assert np.array_equal(traj.controls(),
                          np.stack(traj.recorded, axis=1))


def test_recorded_controls_equal_fresh_policy_evaluation():
    cfg = Example1Config(steps=20, paths=64, seed=5)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)

    open_loop = integrate_forward(problem, OpenLoopPolicy(u_star), bundle, x0)
    assert_records_fresh_evaluation(open_loop)
    # open-loop rows are broadcast views of u: no memory per path
    assert all(row.strides[0] == 0 for row in open_loop.recorded)

    stationary = FeedbackPolicy(
        fn=lambda t, x: np.broadcast_to(u_star, (x.shape[0], 2)).copy())
    feedback = integrate_forward(problem, stationary, bundle, x0)
    assert_records_fresh_evaluation(feedback)

    # without a record the same values come from the policy again
    expected = feedback.controls()
    feedback.drop_controls()
    assert feedback.recorded is None
    assert np.array_equal(feedback.controls(), expected)


def test_forward_x0_shapes():
    problem = constant_g_problem()
    driver = make_driver()
    grid = PathGrid(horizon=1.0, steps=4)
    bundle = sample_increments(driver, grid, paths=3, seed=0)
    pol = OpenLoopPolicy(np.zeros(2))
    per_path = np.arange(6.0).reshape(3, 2)
    traj = integrate_forward(problem, pol, bundle, per_path)
    assert np.allclose(traj.states[:, 0, :], per_path)
    with pytest.raises(ValueError):
        integrate_forward(problem, pol, bundle, np.zeros((4, 2)))


def noiseless_problem(drift, paths, steps=30):
    """One-dimensional problem with drift ``drift`` and zero noise, with an
    open-loop zero control and a zeroed bundle of ``paths`` paths."""
    problem = constant_g_problem(dim=1, g_scale=0.0)
    problem.F = drift
    grid = PathGrid(horizon=1.0, steps=steps)
    bundle = NoiseBundle(increments=np.zeros((paths, steps, 1)), seed=0,
                         grid=grid, driver=make_driver(1))
    return problem, OpenLoopPolicy(np.zeros(1)), bundle


def test_blow_up_error_names_path_and_step():
    def cubed(t, x, u):
        with np.errstate(over="ignore"):
            return x ** 3

    # path 2 starts highest and leaves the finite range first; path 0
    # blows up later and path 1 not at all
    x0 = np.array([[2.0], [0.1], [40.0], [3.0]])
    problem, pol, bundle = noiseless_problem(cubed, paths=4)
    grid = bundle.grid
    zero = np.zeros((1, 1))
    first = []
    for path, row in enumerate(x0):
        x = row[None, :]
        for k in range(grid.steps):
            t = grid.times[k]
            with np.errstate(over="ignore", invalid="ignore"):
                x = x + problem.F(t, x, zero) * grid.dt \
                    + problem.G(t, x, zero)
            if not np.all(np.isfinite(x)):
                first.append((k + 1, path))
                break
    step, path = min(first)
    assert path == 2 and len(first) > 1
    with pytest.raises(BlowUpError) as exc:
        integrate_forward(problem, pol, bundle, x0)
    assert (exc.value.path, exc.value.step) == (path, step)
    assert exc.value.time == grid.times[step]
    assert f"path {path} at step {step}" in str(exc.value)


def test_large_finite_states_do_not_blow_up():
    # every state is finite although any sum of two of them overflows
    problem, pol, bundle = noiseless_problem(
        lambda t, x, u: np.zeros_like(x), paths=2, steps=5)
    traj = integrate_forward(problem, pol, bundle, np.array([1e308]))
    assert np.all(traj.states == 1e308)


def test_per_step_blocks_are_contiguous():
    # every per-step array is stored step-major, so the block of step k
    # that each Euler, first-variation and LSMC step reads is contiguous
    cfg, problem, driver, grid, u0 = packaged("example2", steps=8,
                                              paths=200)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    traj = integrate_forward(problem, OpenLoopPolicy(u0), bundle,
                             np.asarray(cfg.x0))
    y = solve_adjoint_lsmc(problem, traj).Y
    blocks = [bundle.increments[:, k, :] for k in range(grid.steps)]
    for k in range(grid.steps + 1):
        blocks += [traj.states[:, k, :], y[:, k, :]]
    assert all(block.flags.c_contiguous for block in blocks)
    # trajectories given path-major states keep their values in the
    # step-major layout
    path_major = np.ascontiguousarray(traj.states)
    rebuilt = TrajectoryBundle(states=path_major, policy=traj.policy,
                               bundle=bundle)
    assert np.array_equal(rebuilt.states, path_major)
    assert all(rebuilt.states[:, k, :].flags.c_contiguous
               for k in range(grid.steps + 1))


def test_spiked_run_matches_full_reintegration():
    cfg = Example1Config(steps=80, paths=64, seed=21)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = OpenLoopPolicy(u_star)
    base = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.8, -0.6]))
    full = integrate_forward(problem, apply_spike(pol, spec, grid), bundle,
                             np.asarray(cfg.x0))
    # prefix is shared bit for bit, suffix differs
    k0, _ = spec.window(grid)
    assert np.array_equal(full.states[:, :k0 + 1, :],
                          base.states[:, :k0 + 1, :])
    assert not np.array_equal(full.states[:, -1, :], base.states[:, -1, :])
    # a stream from the window start ends where the full run ends
    seen = {}
    stream_spiked(problem, base, [spec],
                  lambda rows, k, x, u, x_next, dm: seen.update(x_end=x_next))
    assert np.array_equal(seen["x_end"], full.states[:, -1, :])


@pytest.mark.parametrize("feedback, drift_gain",
                         [(False, 0.0), (True, 0.0), (False, 0.25)])
def test_streamed_spike_is_bit_identical_to_stored_spike(feedback,
                                                         drift_gain):
    cfg = Example1Config(steps=40, paths=64, seed=9, drift_gain=drift_gain)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    policy = FeedbackPolicy(fn=lambda t, x: -0.1 * x[:, :2]) if feedback \
        else OpenLoopPolicy(u_star)
    base = integrate_forward(problem, policy, bundle, np.asarray(cfg.x0))
    specs = [SpikeSpec(t0=0.0, eps=0.05, v=u_star + 1.0),
             SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.5, -0.5])),
             SpikeSpec(t0=0.9, eps=0.1, v=u_star - 1.0)]
    base_cost, costs = spiked_costs(problem, base, specs)
    assert np.array_equal(base_cost.per_path,
                          evaluate_cost(problem, base).per_path)
    for spec, streamed in zip(specs, costs):
        stored = integrate_forward(problem, apply_spike(policy, spec, grid),
                                   bundle, np.asarray(cfg.x0))
        expected = evaluate_cost(problem, stored)
        assert np.array_equal(streamed.per_path, expected.per_path)
        assert (streamed.mean, streamed.stderr) \
            == (expected.mean, expected.stderr)
        # the stream visits the states the stored run keeps
        k0, _ = spec.window(grid)
        seen = {}
        stream_spiked(
            problem, base, [spec],
            lambda rows, k, x, u, x_next, dm: seen.setdefault(k + 1, x_next))
        assert sorted(seen) == list(range(k0 + 1, grid.steps + 1))
        for k, x in seen.items():
            assert np.array_equal(x, stored.states[:, k, :]), k


def test_spiked_costs_walk_the_base_once_and_each_spike_when_read():
    cfg = Example1Config(steps=40, paths=16, seed=5)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    base = integrate_forward(problem, OpenLoopPolicy(u_star), bundle,
                             np.asarray(cfg.x0))
    calls = []

    def ell(t, x, u):
        calls.append(t)
        return problem.ell(t, x, u)

    counted = dataclasses.replace(problem, ell=ell)
    specs = [SpikeSpec(t0=0.5, eps=0.1, v=u_star + 0.5),
             SpikeSpec(t0=0.25, eps=0.05, v=u_star - 0.5)]
    base_cost, costs = spiked_costs(counted, base, specs)
    # the base walk, steps 20..39 of the first spike, 10..39 of the second
    assert len(calls) == grid.steps + 20 + 30
    for spec, cost in zip(specs, costs, strict=True):
        full = integrate_forward(problem,
                                 apply_spike(base.policy, spec, grid),
                                 bundle, np.asarray(cfg.x0))
        assert np.array_equal(cost.per_path,
                              evaluate_cost(problem, full).per_path)
    assert np.array_equal(base_cost.per_path,
                          evaluate_cost(problem, base).per_path)


@pytest.mark.parametrize("name", ["example1-tanh", "example2"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(small=st.integers(2, 4096 + 64), extra=st.integers(1, 256))
@example(small=7, extra=57)
@example(small=100, extra=4900)
@example(small=33, extra=4096 + 1 - 33)
@example(small=_SEED_BLOCK - 1, extra=2)
def test_more_paths_extend_fewer(name, small, extra):
    # per-path noise substreams: a run on more paths repeats the states and
    # per-path costs of a run on fewer, bit for bit, across the sampler's
    # seeding blocks too.
    # From two paths up only: numpy multiplies a one-row batch with its
    # matrix-vector kernel, whose last bits differ from the matrix-matrix
    # kernel of every larger batch (see README, Determinism)
    cfg, problem, driver, grid, u = packaged(name, steps=6)
    policy = OpenLoopPolicy(u)
    runs = []
    for paths in (small, small + extra):
        bundle = sample_increments(driver, grid, paths, cfg.seed)
        traj = integrate_forward(problem, policy, bundle, np.asarray(cfg.x0))
        runs.append((traj.states, evaluate_cost(problem, traj).per_path))
    (states, cost), (more_states, more_cost) = runs
    assert np.array_equal(more_states[:small], states)
    assert np.array_equal(more_cost[:small], cost)


@pytest.mark.parametrize("feedback", [False, True],
                         ids=["open-loop", "feedback"])
@pytest.mark.parametrize("name", sorted(PACKAGED))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_spike_prefix_identity(name, feedback, data):
    # a streamed spike continues the base run from the window start: its
    # cost and states are those of the full re-integration, bit for bit
    steps = 16
    cfg, problem, driver, grid, u = packaged(name, steps=steps, paths=24)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    policy = FeedbackPolicy(fn=lambda t, x: -0.1 * x[:, :2]) if feedback \
        else OpenLoopPolicy(u)
    x0 = np.asarray(cfg.x0)
    base = integrate_forward(problem, policy, bundle, x0)
    k0 = data.draw(st.integers(0, steps - 1), label="k0")
    width = data.draw(st.integers(1, steps - k0), label="width")
    box = problem.control_set
    v = np.array([data.draw(st.floats(lo, hi), label=f"v{j}")
                  for j, (lo, hi) in enumerate(zip(box.lower, box.upper))])
    spec = SpikeSpec(t0=k0 * grid.dt, eps=width * grid.dt, v=v)
    assert spec.window(grid) == (k0, k0 + width)

    full = integrate_forward(problem, apply_spike(policy, spec, grid), bundle,
                             x0)
    assert np.array_equal(full.states[:, :k0 + 1, :],
                          base.states[:, :k0 + 1, :])
    seen = {}
    stream_spiked(problem, base, [spec],
                  lambda rows, k, x, u, x_next, dm:
                  seen.setdefault(k + 1, x_next))
    assert sorted(seen) == list(range(k0 + 1, steps + 1))
    for k, x in seen.items():
        assert np.array_equal(x, full.states[:, k, :]), k
    _, (streamed,) = spiked_costs(problem, base, [spec])
    expected = evaluate_cost(problem, full)
    assert np.array_equal(streamed.per_path, expected.per_path)
    assert (streamed.mean, streamed.stderr) \
        == (expected.mean, expected.stderr)


@pytest.mark.parametrize("paths", [1, 2, 3, 64])
@pytest.mark.parametrize("feedback", [False, True],
                         ids=["open-loop", "feedback"])
@pytest.mark.parametrize("name", sorted(PACKAGED))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_spike_blocks_match_spikes_run_alone(name, feedback, paths, data):
    # spikes that share a start step run as one block: each cost is the
    # cost of its spike integrated alone and in full, bit for bit, and a
    # block makes one ell call per step from its start on.  A spike at an
    # open-loop base's own control is not stepped and makes no call
    steps = 12
    cfg, problem, driver, grid, u = packaged(name, steps=steps, paths=paths)
    bundle = sample_increments(driver, grid, paths, cfg.seed)
    policy = FeedbackPolicy(fn=lambda t, x: -0.1 * x[:, :2]) if feedback \
        else OpenLoopPolicy(u)
    x0 = np.asarray(cfg.x0)
    base = integrate_forward(problem, policy, bundle, x0)

    starts = data.draw(st.lists(st.integers(0, steps - 1), min_size=1,
                                max_size=3, unique=True), label="starts")
    box = problem.control_set
    values = st.one_of(
        st.just(u),
        st.tuples(*(st.floats(lo, hi) for lo, hi in zip(box.lower,
                                                         box.upper))))
    specs = []
    for _ in range(data.draw(st.integers(2, 12), label="count")):
        k0 = data.draw(st.sampled_from(starts), label="k0")
        width = data.draw(st.one_of(st.just(steps - k0),
                                    st.integers(1, steps - k0)),
                          label="width")
        specs.append(SpikeSpec(t0=k0 * grid.dt, eps=width * grid.dt,
                               v=np.array(data.draw(values, label="v"))))
    # blocks of at most two spikes, or as many as BLOCK_ROWS allows
    block_rows = data.draw(st.sampled_from([dynamics.BLOCK_ROWS, 2 * paths]),
                           label="block_rows")
    size = 1 if paths == 1 else block_rows // paths

    calls = []

    def ell(t, x, u):
        calls.append(t)
        return problem.ell(t, x, u)

    counted = dataclasses.replace(problem, ell=ell)
    stepped = [spec for spec in specs
               if feedback or spec.v.tobytes() != policy.u.tobytes()]
    with mock.patch.object(dynamics, "BLOCK_ROWS", block_rows):
        base_cost, got = spiked_costs(counted, base, specs)
    group = Counter(spec.window(grid)[0] for spec in stepped)
    assert len(calls) == steps + sum(math.ceil(count / size) * (steps - k0)
                                     for k0, count in group.items())
    for spec, cost in zip(specs, got, strict=True):
        full = integrate_forward(problem, apply_spike(policy, spec, grid),
                                 bundle, x0)
        expected = evaluate_cost(problem, full)
        assert np.array_equal(cost.per_path, expected.per_path)
        assert cost.mean == expected.mean


def test_spike_blocks_tile_the_increments_for_a_generic_diffusion():
    # a G that is not an AffineDiffusion gets each step's increments tiled
    # to the block's stacked copies: its spike costs are those of the
    # affine declaration, which takes the increments untiled, bit for bit
    cfg, problem, driver, grid, u = packaged("example2", steps=12, paths=16)
    generic = dataclasses.replace(problem,
                                  G=lambda t, x, dm: problem.G(t, x, dm))
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    base = integrate_forward(problem, OpenLoopPolicy(u), bundle,
                             np.asarray(cfg.x0))
    specs = [SpikeSpec(t0=4 * grid.dt, eps=width * grid.dt, v=u + shift)
             for width, shift in ((2, 0.5), (5, -0.3), (8, 1.0))]
    _, affine = spiked_costs(problem, base, specs)
    _, tiled = spiked_costs(generic, base, specs)
    for a, b in zip(affine, tiled, strict=True):
        assert np.array_equal(a.per_path, b.per_path)


@pytest.mark.parametrize("paths", [1, 16])
def test_spike_at_the_open_loop_control_reads_the_base_cost(paths):
    # a spike whose v has the bytes of the open-loop base's u re-runs
    # nothing: its cost is the full re-integration's, with no ell call,
    # while the spikes around it still step in their blocks
    cfg = Example1Config(steps=40, paths=paths, seed=5)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    base = integrate_forward(problem, OpenLoopPolicy(u_star), bundle, x0)
    calls = []

    def ell(t, x, u):
        calls.append(x.shape[0])
        return problem.ell(t, x, u)

    counted = dataclasses.replace(problem, ell=ell)
    specs = [SpikeSpec(t0=0.25, eps=0.1, v=u_star.copy()),
             SpikeSpec(t0=0.25, eps=0.5, v=u_star + 0.5),
             SpikeSpec(t0=0.0, eps=1.0, v=u_star.tolist()),
             SpikeSpec(t0=0.25, eps=0.2, v=u_star - 0.5)]
    _, got = spiked_costs(counted, base, specs)
    # after the base walk, one block for the two displaced spikes, 30
    # steps from k0 = 10
    assert calls == [paths] * grid.steps + (
        [2 * paths] * 30 if paths > 1 else [1] * 60)
    for spec, cost in zip(specs, got, strict=True):
        full = integrate_forward(problem, apply_spike(base.policy, spec, grid),
                                 bundle, x0)
        expected = evaluate_cost(problem, full)
        assert np.array_equal(cost.per_path, expected.per_path)
        # one path has no SE: nan on both sides
        assert np.array_equal((cost.mean, cost.stderr),
                              (expected.mean, expected.stderr), equal_nan=True)


@pytest.mark.parametrize("base_kind", ["feedback", "one-ulp"])
def test_spike_off_the_open_loop_control_still_steps(base_kind):
    # a feedback base, or a v one ulp away from the open-loop u, re-runs
    # the spike from its window start
    cfg = Example1Config(steps=40, paths=16, seed=5)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    if base_kind == "feedback":
        policy = FeedbackPolicy(fn=lambda t, x: np.broadcast_to(
            u_star, (x.shape[0], u_star.shape[0])))
        v = u_star.copy()
    else:
        policy = OpenLoopPolicy(u_star)
        v = np.nextafter(u_star, np.inf)
    base = integrate_forward(problem, policy, bundle, x0)
    calls = []

    def ell(t, x, u):
        calls.append(t)
        return problem.ell(t, x, u)

    spec = SpikeSpec(t0=0.25, eps=0.1, v=v)
    _, (cost,) = spiked_costs(dataclasses.replace(problem, ell=ell), base,
                              [spec])
    assert len(calls) == grid.steps + 30
    full = integrate_forward(problem, apply_spike(policy, spec, grid), bundle,
                             x0)
    assert np.array_equal(cost.per_path, evaluate_cost(problem,
                                                       full).per_path)


def test_blown_up_block_reruns_each_spike_alone():
    # the second spike of a block overflows: the costs raise the error its
    # spike raises alone, which names a path of its own copy of the bundle
    def drift(t, x, u):
        return x ** 3 + u

    problem, pol, bundle = noiseless_problem(drift, paths=4, steps=10)
    x0 = np.array([[0.1], [0.2], [0.3], [0.4]])
    base = integrate_forward(problem, pol, bundle, x0)
    calm = SpikeSpec(t0=0.3, eps=0.2, v=np.array([0.5]))
    wild = SpikeSpec(t0=0.3, eps=0.2, v=np.array([1e200]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as alone:
            stream_spiked(problem, base, [wild],
                          lambda rows, k, x, u, x_next, dm: None)
        with pytest.raises(BlowUpError) as read:
            spiked_costs(problem, base, [calm, wild])
    assert (read.value.path, read.value.step, read.value.time) \
        == (alone.value.path, alone.value.step, alone.value.time)
    assert alone.value.step == 5


def test_stream_spiked_names_the_last_member_that_blows_up_alone():
    # only the last spike of a block overflows: the block re-runs its
    # spikes alone, the last one included, and raises that spike's own
    # error, whose path lies in its own copy of the paths
    def drift(t, x, u):
        return x ** 3 + u

    problem, pol, bundle = noiseless_problem(drift, paths=4, steps=10)
    base = integrate_forward(problem, pol, bundle,
                             np.array([[0.1], [0.2], [0.3], [0.4]]))
    calm = [SpikeSpec(t0=0.3, eps=0.2, v=np.array([v])) for v in (0.5, -0.5)]
    wild = SpikeSpec(t0=0.3, eps=0.2, v=np.array([1e200]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as alone:
            stream_spiked(problem, base, [wild],
                          lambda rows, k, x, u, x_next, dm: None)
        with pytest.raises(BlowUpError) as block:
            stream_spiked(problem, base, [*calm, wild],
                          lambda rows, k, x, u, x_next, dm: None)
    assert 0 <= alone.value.path < 4
    assert (block.value.path, block.value.step, block.value.time) \
        == (alone.value.path, alone.value.step, alone.value.time)


def test_spiked_costs_raise_the_error_of_the_first_failing_block():
    # the start steps run in the order of their first spec: the block at
    # t0 = 0.6 runs first, so its wild spike's error is raised although
    # the spike at t0 = 0.2 comes before it in spec order and blows up
    # earlier
    def drift(t, x, u):
        return x ** 3 + u

    problem, pol, bundle = noiseless_problem(drift, paths=4, steps=10)
    base = integrate_forward(problem, pol, bundle,
                             np.array([[0.1], [0.2], [0.3], [0.4]]))
    late = SpikeSpec(t0=0.6, eps=0.2, v=np.array([1e200]))
    early = SpikeSpec(t0=0.2, eps=0.2, v=np.array([1e200]))
    calm = SpikeSpec(t0=0.6, eps=0.2, v=np.array([0.5]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as alone:
            stream_spiked(problem, base, [late],
                          lambda rows, k, x, u, x_next, dm: None)
        with pytest.raises(BlowUpError) as raised:
            spiked_costs(problem, base, [calm, early, late])
    assert alone.value.step == 8
    assert (raised.value.path, raised.value.step, raised.value.time) \
        == (alone.value.path, alone.value.step, alone.value.time)


@pytest.mark.parametrize("paths, block_rows",
                         [(1, dynamics.BLOCK_ROWS), (3, 7), (4, 8), (5, 5)])
def test_stream_spiked_steps_consecutive_blocks(paths, block_rows):
    # the visitor's row slices cover the stacked rows in order, each block
    # at most BLOCK_ROWS rows (one spike on a one-path bundle) and stepped
    # from the window start to T; the last step's x_next is each spike's
    # X(T) of the full re-integration; dm is the step's increments on the
    # bundle's paths, once for all the block's copies
    steps = 8
    cfg, problem, driver, grid, u = packaged("example1", steps=steps,
                                             paths=paths)
    bundle = sample_increments(driver, grid, paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    base = integrate_forward(problem, OpenLoopPolicy(u), bundle, x0)
    specs = [SpikeSpec(t0=2 * grid.dt, eps=width * grid.dt, v=u + 0.1 * i)
             for i, width in enumerate((1, 6, 3, 2, 5))]
    visits = []
    ends = []

    def visit(rows, k, x, u, x_next, dm):
        assert x.shape == x_next.shape == (rows.stop - rows.start, 4)
        assert np.array_equal(dm, bundle.step(k))
        visits.append(((rows.start, rows.stop), k))
        if k == steps - 1:
            ends.append(x_next)

    with mock.patch.object(dynamics, "BLOCK_ROWS", block_rows):
        stream_spiked(problem, base, specs, visit)
    blocks = list(dict.fromkeys(rows for rows, _ in visits))
    assert visits == [(rows, k) for rows in blocks for k in range(2, steps)]
    assert blocks[0][0] == 0 and blocks[-1][1] == len(specs) * paths
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [stop - start for start, stop in blocks]
    assert all(size <= block_rows for size in sizes)
    if paths == 1:
        assert sizes == [1] * len(specs)
    x_end = np.concatenate(ends)
    for i, spec in enumerate(specs):
        full = integrate_forward(problem, apply_spike(base.policy, spec, grid),
                                 bundle, x0)
        assert np.array_equal(x_end[i * paths:(i + 1) * paths],
                              full.states[:, -1, :])


def test_stream_spiked_refuses_a_block_without_one_start_step():
    cfg = Example1Config(steps=20, paths=8, seed=4)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    base = integrate_forward(problem, OpenLoopPolicy(u_star), bundle,
                             np.asarray(cfg.x0))
    specs = [SpikeSpec(t0=0.25, eps=0.1, v=u_star),
             SpikeSpec(t0=0.5, eps=0.1, v=u_star)]
    for block in (specs, []):
        with pytest.raises(ValueError, match="one start step"):
            stream_spiked(problem, base, block,
                          lambda rows, k, x, u, x_next, dm: None)


def test_noop_spike_changes_nothing():
    cfg = Example1Config(steps=40, paths=16, seed=3)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = OpenLoopPolicy(u_star)
    base = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    spec = SpikeSpec(t0=0.25, eps=0.1, v=u_star.copy())
    spiked = integrate_forward(problem, apply_spike(pol, spec, grid), bundle,
                               np.asarray(cfg.x0))
    assert np.array_equal(spiked.states, base.states)


def test_variational_kick_and_constant_propagation():
    # with F_x = 0 and G_x = 0 the first variation stays equal to its kick
    dim = 2
    problem = constant_g_problem(dim=dim)
    driver = make_driver(dim)
    grid = PathGrid(horizon=1.0, steps=50)
    bundle = sample_increments(driver, grid, paths=20, seed=17)
    u = np.array([0.1, 0.2])
    pol = OpenLoopPolicy(u)
    traj = integrate_forward(problem, pol, bundle, np.zeros(dim))
    v = np.array([0.9, -0.3])
    spec = SpikeSpec(t0=0.5, eps=0.1, v=v)
    p = integrate_variational(problem, traj, spec)
    assert p.states.shape == (20, 2, dim) and p.zeta.shape == (20, 2)
    kick = v - u  # F(x, v) - F(x, u) for F = drift + u
    assert np.allclose(p.states[:, 0, :], kick, atol=1e-12)
    assert np.allclose(p.states[:, -1, :], kick, atol=1e-12)


def test_zeta_for_control_only_running_cost():
    # ell = |u|^2 and ell_x = 0: zeta jumps to |v|^2 - |u|^2 and stays there
    cfg = Example1Config(steps=40, paths=12, seed=5)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = OpenLoopPolicy(u_star)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    v = np.array([0.4, 0.9])
    spec = SpikeSpec(t0=0.25, eps=0.1, v=v)
    p = integrate_variational(problem, traj, spec)
    jump = float(v @ v - u_star @ u_star)
    assert np.allclose(p.zeta[:, 0], jump, atol=1e-12)
    assert np.allclose(p.zeta[:, -1], jump, atol=1e-12)


def variation_on_every_step(problem, optimal, spec):
    """p, (paths, steps + 1, n), and zeta, (paths, steps + 1), at every
    grid step and zero before the window start: the recursion of
    integrate_variational with every step stored."""
    bundle = optimal.bundle
    grid = bundle.grid
    times, dt = grid.times, grid.dt
    k0, _ = spec.window(grid)
    x0, u0 = optimal.states[:, k0, :], optimal.control_at(k0)
    v = np.broadcast_to(spec.v, u0.shape)
    p = problem.F(times[k0], x0, v) - problem.F(times[k0], x0, u0)
    z = problem.ell(times[k0], x0, v) - problem.ell(times[k0], x0, u0)
    ps = np.zeros((optimal.paths, grid.steps + 1, bundle.dim))
    zeta = np.zeros((optimal.paths, grid.steps + 1))
    ps[:, k0], zeta[:, k0] = p, z
    for k in range(k0, grid.steps):
        t, xk, uk = times[k], optimal.states[:, k, :], optimal.control_at(k)
        z = z + np.einsum("pi,pi->p", problem.ell_x(t, xk, uk), p) * dt
        # the dense arithmetic: a batch F_x densified and contracted
        a = np.asarray(problem.F_x(t, xk, uk), dtype=float)
        fp = p @ a.T if a.ndim == 2 else np.einsum("pij,pj->pi", a, p)
        p = p + fp * dt + problem.G_x(t, xk, p, bundle.increments[:, k, :])
        ps[:, k + 1], zeta[:, k + 1] = p, z
    return ps, zeta


@pytest.mark.parametrize("name", sorted(PACKAGED))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_variation_keeps_the_recursion_at_t0_and_t(name, data):
    # the two columns of p and zeta are the t0 and T entries of the
    # recursion that stores every step, bit for bit
    steps = 16
    cfg, problem, driver, grid, u = packaged(name, steps=steps, paths=24)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    traj = integrate_forward(problem, OpenLoopPolicy(u),
                             bundle, np.asarray(cfg.x0))
    k0 = data.draw(st.integers(0, steps - 1), label="k0")
    box = problem.control_set
    v = np.array([data.draw(st.floats(lo, hi), label=f"v{j}")
                  for j, (lo, hi) in enumerate(zip(box.lower, box.upper))])
    spec = SpikeSpec(t0=k0 * grid.dt, eps=grid.dt, v=v)
    p = integrate_variational(problem, traj, spec)
    ps, zeta = variation_on_every_step(problem, traj, spec)
    assert p.states.shape == (cfg.paths, 2, bundle.dim)
    assert p.zeta.shape == (cfg.paths, 2)
    assert np.array_equal(p.states, ps[:, [k0, steps]])
    assert np.array_equal(p.zeta, zeta[:, [k0, steps]])


def test_zeta_rides_with_p_bit_for_bit():
    # example2 has ell_x = x P != 0, so zeta reads p; zeta(T) - zeta(t0)
    # is the left-point sum of <ell_x, p> dt over the reference p, in the
    # order zeta adds its terms
    cfg = Example2Config(steps=30, paths=64, seed=8)
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = FeedbackPolicy(fn=lambda t, x: -0.5 * x)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    spec = SpikeSpec(t0=0.2, eps=0.1, v=np.array([0.5, -0.25]))
    p = integrate_variational(problem, traj, spec)
    ps, _ = variation_on_every_step(problem, traj, spec)

    k0, _ = spec.window(grid)
    z = p.zeta[:, 0]
    for k in range(k0, grid.steps):
        grad = problem.ell_x(grid.times[k], traj.states[:, k, :],
                             traj.control_at(k))
        z = z + np.einsum("pi,pi->p", grad, ps[:, k, :]) * grid.dt
    assert np.array_equal(p.zeta[:, -1], z)
    assert not np.array_equal(p.zeta[:, -1], p.zeta[:, 0])


def test_variation_allocates_no_per_step_record():
    # p and zeta are kept as running values: the walk's peak stays below
    # one (paths, steps + 1, n) float array
    cfg, problem, driver, grid, u = packaged("example1-tanh", steps=200,
                                             paths=2000)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    traj = integrate_forward(problem, OpenLoopPolicy(u),
                             bundle, np.asarray(cfg.x0))
    spec = SpikeSpec(t0=0.25, eps=0.05, v=u + 0.1)
    record = 8 * cfg.paths * (grid.steps + 1) * bundle.dim
    tracemalloc.start()
    try:
        p = integrate_variational(problem, traj, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.states.shape == (cfg.paths, 2, bundle.dim)
    assert peak < record


def tanh_diffusion(problem, cfg):
    """``problem`` with the non-affine G(t, X) dM = tanh(X . gamma) dM G~^T
    of an example2 config, which spike blocks tile the increments for."""
    n = cfg.state_dim
    gamma = np.asarray(cfg.gamma, dtype=float)
    g_tilde_t = np.reshape(cfg.g_tilde, (n, n)).T

    def g(t, x, dm):
        return (dm @ g_tilde_t) * np.tanh(x @ gamma)[:, None]

    def g_x(t, x, d, dm):
        slope = (1.0 - np.tanh(x @ gamma) ** 2) * (d @ gamma)
        return (dm @ g_tilde_t) * slope[:, None]

    return dataclasses.replace(problem, G=g, G_x=g_x)


def separate_walks(problem, full, starts):
    """Base cost per path, its running sums before each start step, and
    the state box, each by its own loop over a run that kept every step."""
    grid = full.grid
    run = np.zeros(full.paths)
    prefix = {}
    for k in range(grid.steps):
        if k in starts:
            prefix[k] = run.copy()
        run += problem.ell(grid.times[k], full.states[:, k, :],
                           full.control_at(k)) * grid.dt
    total = run + problem.h(full.states[:, -1, :])
    low, high = full.states.min(axis=(0, 1)), full.states.max(axis=(0, 1))
    pad = 0.5 * np.maximum(high - low, 1.0)
    return total, prefix, (low - pad, high + pad)


@pytest.mark.parametrize("diffusion", ["affine", "tanh"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), steps=st.integers(1, 12),
       paths=st.sampled_from([1, 2, 7]), feedback=st.booleans())
def test_partial_run_with_riders_keeps_the_bits_of_the_full_run(
        diffusion, data, steps, paths, feedback):
    # a run that keeps a few steps and carries its walks as riders gives
    # the kept states, controls, costs, p, zeta and state box of a run
    # that keeps every step followed by separate walks, bit for bit
    cfg, problem, driver, grid, u = packaged("example2", steps=steps,
                                             paths=paths)
    if diffusion == "tanh":
        problem = tanh_diffusion(problem, cfg)
    bundle = sample_increments(driver, grid, paths, cfg.seed)
    policy = FeedbackPolicy(fn=lambda t, x: -0.5 * x) if feedback \
        else OpenLoopPolicy(u + 0.3)
    box = problem.control_set
    specs = []
    for k0 in (0, steps - 1, data.draw(st.integers(0, steps - 1),
                                       label="k0")):
        width = data.draw(st.integers(1, steps - k0), label="width")
        v = np.array([data.draw(st.floats(lo, hi), label="v")
                      for lo, hi in zip(box.lower, box.upper)])
        specs.append(SpikeSpec(t0=k0 * grid.dt, eps=width * grid.dt, v=v))
    starts = {spec.window(grid)[0] for spec in specs}
    keep = data.draw(st.sets(st.integers(0, steps)), label="keep") | starts

    full = integrate_forward(problem, policy, bundle, np.asarray(cfg.x0))
    variation = VariationWalk(problem, grid, specs[-1])
    riders = (CostWalk(problem, grid, starts), variation, StateBox())
    part = integrate_forward(problem, policy, bundle, np.asarray(cfg.x0),
                             keep=keep, riders=riders)

    assert part.riders == riders
    assert part.states.shape == (paths, len(keep), bundle.dim)
    for k in keep:
        assert np.array_equal(part.state_at(k), full.states[:, k, :]), k
    for k in range(steps):
        assert np.array_equal(part.control_at(k), full.control_at(k)), k
    total, prefix, (lo, hi) = separate_walks(problem, full, starts)
    assert np.array_equal(riders[0].total, total)
    assert all(np.array_equal(riders[0].prefix[k], prefix[k])
               for k in starts)
    base, spiked = spiked_costs(problem, part, specs)
    full_base, full_spiked = spiked_costs(problem, full, specs)
    assert np.array_equal(base.per_path, total)
    assert np.array_equal(full_base.per_path, total)
    for got, expected in zip(spiked, full_spiked, strict=True):
        assert np.array_equal(got.per_path, expected.per_path)
    p = variation.first_variation(part)
    ps, zeta = variation_on_every_step(problem, full, specs[-1])
    k0 = variation.k0
    assert np.array_equal(p.states, ps[:, [k0, steps]])
    assert np.array_equal(p.zeta, zeta[:, [k0, steps]])
    assert np.array_equal(p.states,
                          integrate_variational(problem, full,
                                                specs[-1]).states)
    got_lo, got_hi = riders[2].bounds()
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)

    dropped = sorted(set(range(steps + 1)) - keep)
    if dropped:
        k = dropped[0]
        kept = sorted(keep)
        with pytest.raises(ValueError, match=rf"step {k} was not kept; the "
                           rf"run kept steps \[{', '.join(map(str, kept))}\]"):
            part.state_at(k)


def test_a_partial_base_needs_the_cost_walk_that_rode_it():
    # on a run that kept three steps, spiked_costs reads the cost walk that
    # rode it for the same problem; another problem (a counted ell), or
    # spikes at a start step the walk did not keep, raise instead of
    # reading the wrong numbers, and a full run replays the walk
    cfg, problem, driver, grid, u = packaged("example1-tanh", steps=10,
                                             paths=5)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    spec = SpikeSpec(t0=4 * grid.dt, eps=2 * grid.dt, v=u + 0.5)
    walk = CostWalk(problem, grid, [4])
    part = integrate_forward(problem, OpenLoopPolicy(u), bundle, x0,
                             keep={0, 4, 10}, riders=(walk,))
    full = integrate_forward(problem, OpenLoopPolicy(u), bundle, x0)
    calls = []

    def ell(t, x, v):
        calls.append(t)
        return problem.ell(t, x, v)

    counted = dataclasses.replace(problem, ell=ell)
    base, (spiked,) = spiked_costs(problem, part, [spec])
    full_base, (full_spiked,) = spiked_costs(counted, full, [spec])
    assert len(calls) == grid.steps + (grid.steps - 4)
    assert np.array_equal(base.per_path, full_base.per_path)
    assert np.array_equal(spiked.per_path, full_spiked.per_path)
    missing = r"step 1 was not kept; the run kept steps \[0, 4, 10\]"
    with pytest.raises(ValueError, match=missing):
        spiked_costs(counted, part, [spec])
    with pytest.raises(ValueError, match=missing):
        spiked_costs(problem, part, [SpikeSpec(t0=0.0, eps=grid.dt, v=u)])
    with pytest.raises(ValueError, match=missing):
        evaluate_cost(counted, part)
    with pytest.raises(ValueError, match=r"steps outside 0\.\.10"):
        integrate_forward(problem, OpenLoopPolicy(u), bundle, x0,
                          keep={-1, 4})


@pytest.mark.parametrize("bad", [2.5, "3", 3.0, np.float64(4.0)])
def test_keep_takes_integer_steps_only(bad):
    # a float or string entry is named in the error, not truncated to a
    # step; numpy integers are steps like ints
    cfg, problem, driver, grid, u = packaged("example1", steps=6, paths=3)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    with pytest.raises(ValueError, match=rf"keep names {re.escape(repr(bad))}, "
                       r"not an integer step"):
        integrate_forward(problem, OpenLoopPolicy(u), bundle, x0,
                          keep={1, bad})
    part = integrate_forward(problem, OpenLoopPolicy(u), bundle, x0,
                             keep={np.int64(2), np.int32(6), 1})
    assert part.kept == (1, 2, 6)
    assert all(type(k) is int for k in part.kept)


def test_state_at_reads_kept_steps_and_rejects_the_rest():
    # full and partial runs read one way: a kept step gives its states,
    # any other step (below 0 or past T too) raises the same ValueError
    cfg, problem, driver, grid, u = packaged("example1", steps=5, paths=4)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    full = integrate_forward(problem, OpenLoopPolicy(u), bundle, x0)
    part = integrate_forward(problem, OpenLoopPolicy(u), bundle, x0,
                             keep={0, 3, 5})
    assert full.kept is None
    for run, kept in ((full, range(6)), (part, (0, 3, 5))):
        for k in kept:
            assert np.array_equal(run.state_at(k), full.states[:, k, :]), k
        listed = re.escape(str(list(kept)))
        for k in (-1, grid.steps + 1, *sorted(set(range(6)) - set(kept))):
            with pytest.raises(ValueError, match=rf"step {k} was not kept; "
                               rf"the run kept steps {listed}$"):
                run.state_at(k)


def test_evaluate_cost_left_riemann():
    # constant running cost integrates exactly; terminal cost averages h
    dim = 2
    problem = constant_g_problem(
        dim=dim, ell=lambda t, x, u: np.ones(x.shape[0]),
        h=lambda x: x[:, 0])
    driver = make_driver(dim)
    grid = PathGrid(horizon=1.0, steps=16)
    bundle = sample_increments(driver, grid, paths=40, seed=2)
    pol = OpenLoopPolicy(np.zeros(dim))
    traj = integrate_forward(problem, pol, bundle, np.zeros(dim))
    rep = evaluate_cost(problem, traj)
    expected = 1.0 + traj.states[:, -1, 0]
    assert np.allclose(rep.per_path, expected, atol=1e-12)
    assert rep.mean == pytest.approx(float(expected.mean()))
    assert rep.stderr == pytest.approx(
        float(expected.std(ddof=1) / np.sqrt(40)))
    assert rep.paths == 40


def test_finite_diff_check_passes_on_consistent_problem():
    cfg = Example1Config()
    problem, _, _, u_star = build_example1_problem(cfg)
    rng = np.random.default_rng(123)
    probes = [(float(t), np.asarray(cfg.x0) + 0.2 * rng.standard_normal(4),
               u_star + 0.3 * rng.standard_normal(2))
              for t in np.linspace(0.0, 1.0, 8)]
    rep = finite_diff_check(problem, probes)
    assert rep.passed
    assert rep.flagged == ()
    assert set(rep.max_rel_error) == {"F_x", "F_u", "G_x", "ell_x", "ell_u",
                                      "h_x", "grad_x_ignores_u"}
    assert max(rep.max_rel_error.values()) < 1e-4
    # the declaration is exact: ell_x and F_x do not read u at all
    assert rep.max_rel_error["grad_x_ignores_u"] == 0.0
    undeclared = dataclasses.replace(problem, grad_x_ignores_u=False)
    assert set(finite_diff_check(undeclared, probes).max_rel_error) == {
        "F_x", "F_u", "G_x", "ell_x", "ell_u", "h_x"}


def test_finite_diff_check_flags_a_false_grad_x_ignores_u():
    # example2 with a consistent x-u coupling 0.5 <x, u> added to ell or
    # 0.5 diag(u) x added to F: every derivative is right, yet ell_x or
    # F_x now reads u, which the declaration denies
    cfg, problem, _, _, _ = packaged("example2")
    rng = np.random.default_rng(5)
    probes = [(float(t), np.asarray(cfg.x0) + rng.standard_normal(2),
               rng.standard_normal(2)) for t in np.linspace(0.0, 1.0, 4)]
    assert finite_diff_check(problem, probes).passed

    reads_u = {
        "ell_x": dataclasses.replace(
            problem,
            ell=lambda t, x, u: problem.ell(t, x, u)
            + 0.5 * np.einsum("pi,pi->p", x, u),
            ell_x=lambda t, x, u: problem.ell_x(t, x, u) + 0.5 * u,
            ell_u=lambda t, x, u: problem.ell_u(t, x, u) + 0.5 * x),
        "F_x": dataclasses.replace(
            problem,
            F=lambda t, x, u: problem.F(t, x, u) + 0.5 * u * x,
            F_x=lambda t, x, u: problem.F_x(t, x, u)
            + 0.5 * u[:, :, None] * np.eye(2),
            F_u=lambda t, x, u: problem.F_u(t, x, u)
            + 0.5 * x[:, :, None] * np.eye(2))}
    for reader, doctored in reads_u.items():
        assert finite_diff_check(doctored, probes).flagged \
            == ("grad_x_ignores_u",), reader
        honest = dataclasses.replace(doctored, grad_x_ignores_u=False)
        assert finite_diff_check(honest, probes).passed, reader


def test_finite_diff_check_audits_a_diagonal_f_x():
    # the tanh drift's F_x is a batch of diagonals: the audit reads its
    # dense form, passes it, and flags it when the diagonals are off by 1.5
    cfg, problem, _, _, u = packaged("example1-tanh")
    rng = np.random.default_rng(19)
    probes = [(float(t), np.asarray(cfg.x0) + rng.standard_normal(4),
               u + 0.3 * rng.standard_normal(2))
              for t in np.linspace(0.0, 1.0, 5)]
    assert isinstance(problem.F_x(0.0, np.zeros((1, 4)), u[None, :]),
                      DiagonalBatch)
    assert finite_diff_check(problem, probes).passed
    scaled = dataclasses.replace(
        problem, F_x=lambda t, x, v: DiagonalBatch(
            1.5 * problem.F_x(t, x, v).diagonals))
    assert finite_diff_check(scaled, probes).flagged == ("F_x",)


@pytest.mark.parametrize("name, fields", [
    ("example1", {}), ("example1-tanh", {}), ("example2", {}),
    # the packaged example2 operators are diagonal, which hides a transpose
    ("example2", {"g_tilde": ((0.3, 0.1), (-0.05, 0.2)),
                  "d": ((0.2, 0.07), (0.0, 0.15))})],
    ids=["example1", "example1-tanh", "example2", "example2-full"])
def test_diffusion_action_matches_dense_operator(name, fields):
    cfg, problem, _, _, _ = packaged(name, **fields)
    rng = np.random.default_rng(41)
    x = 2.0 * rng.standard_normal((64, cfg.state_dim))
    d = rng.standard_normal(x.shape)
    dm = 0.1 * rng.standard_normal(x.shape)
    for action, ref in (
            (problem.G(0.3, x, dm),
             np.einsum("pij,pj->pi", dense_diffusion(cfg, x), dm)),
            (problem.G_x(0.3, x, d, dm),
             np.einsum("pij,pj->pi", dense_diffusion(cfg, d, offset=False),
                       dm))):
        assert action.shape == x.shape
        assert np.max(np.abs(action - ref)) <= 1e-13 * np.max(np.abs(ref))


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 6), rows=st.integers(1, 70),
       offset=st.booleans(), buffered=st.booleans())
def test_affine_diffusion_scales_columns_as_the_broadcast_did(
        data, n, rows, offset, buffered):
    # the column-by-column scaling gives the bits of the broadcast
    # [:, None] forms it replaced, for the call with and without ``out``
    # and for the derivative
    def draw(shape, label):
        return data.draw(arrays(np.float64, shape, elements=finite),
                         label=label)

    gamma, g_tilde = draw((n,), "gamma"), draw((n, n), "g_tilde")
    d = draw((n, n), "d") if offset else None
    x, dirs, dm = (draw((rows, n), label) for label in ("x", "dirs", "dm"))
    diffusion = AffineDiffusion(gamma, g_tilde, d)

    expected = dm @ g_tilde.T.copy()
    expected *= (x @ gamma)[:, None]
    if offset:
        expected += dm @ d.T.copy()
    out = np.empty((rows, n)) if buffered else None
    got = diffusion(0.0, x, dm, out=out)
    assert got.tobytes() == expected.tobytes()
    if buffered:
        assert got is out
    assert diffusion.derivative(0.0, x, dirs, dm).tobytes() \
        == ((dirs @ gamma)[:, None] * (dm @ g_tilde.T.copy())).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 6), paths=st.integers(2, 70),
       copies=st.integers(1, 5), offset=st.booleans(), buffered=st.booleans())
def test_affine_diffusion_shares_increments_across_stacked_copies(
        data, n, paths, copies, offset, buffered):
    # states that stack whole copies of dM's rows (a block of spikes) take
    # dM as it is: the bits of the call on dM tiled to match, for the call
    # with and without ``out`` and for the derivative.  From two paths up,
    # as stream_spiked stacks them (a one-row dM takes another kernel)
    def draw(shape, label):
        return data.draw(arrays(np.float64, shape, elements=finite),
                         label=label)

    gamma, g_tilde = draw((n,), "gamma"), draw((n, n), "g_tilde")
    d = draw((n, n), "d") if offset else None
    dm = draw((paths, n), "dm")
    x, dirs = (draw((copies * paths, n), label) for label in ("x", "dirs"))
    diffusion = AffineDiffusion(gamma, g_tilde, d)
    tiled = np.tile(dm, (copies, 1))

    out = np.empty(x.shape) if buffered else None
    got = diffusion(0.0, x, dm, out=out)
    assert got.tobytes() == diffusion(0.0, x, tiled).tobytes()
    if buffered:
        assert got is out
    assert diffusion.derivative(0.0, x, dirs, dm).tobytes() \
        == diffusion.derivative(0.0, x, dirs, tiled).tobytes()
    ragged = np.vstack([x, x[:1]])
    with pytest.raises(ValueError, match="whole copies"):
        diffusion(0.0, ragged, dm, out=None if out is None
                  else np.empty(ragged.shape))
    with pytest.raises(ValueError, match="whole copies"):
        diffusion.derivative(0.0, ragged, ragged, dm)


def test_spiked_policy_rows_inside_and_across_the_windows():
    # several members all inside their windows: one C-contiguous copy with
    # the bytes of the broadcast form; one member: a zero-stride view of v;
    # partial windows: v over the base control in the members inside only
    base = OpenLoopPolicy(np.array([0.5, -1.0]))
    v = np.array([[1.0, 2.0], [3.0, -0.0], [5e-324, -4.0]])
    rows = 7
    states = np.zeros((len(v) * rows, 4))
    block = dynamics.SpikedPolicy(base=base, v=v, k0=2, k1=np.array([4, 6, 5]))

    inside = block.controls_at(3, 0.3, states)
    expected = np.broadcast_to(v[:, None, :], (len(v), rows, 2)).reshape(-1, 2)
    assert np.array_equal(inside, expected)
    assert inside.tobytes() == expected.tobytes()
    assert inside.flags.c_contiguous

    alone = dynamics.SpikedPolicy(base=base, v=v[1:2], k0=2, k1=np.array([6]))
    view = alone.controls_at(3, 0.3, states[:rows])
    assert view.strides[0] == 0
    assert view.tobytes() == np.tile(v[1], (rows, 1)).tobytes()

    def member_rows(*controls):
        return np.concatenate([np.tile(c, (rows, 1)) for c in controls])

    assert np.array_equal(block.controls_at(1, 0.1, states),
                          member_rows(base.u, base.u, base.u))
    assert np.array_equal(block.controls_at(4, 0.4, states),
                          member_rows(base.u, v[1], v[2]))
    assert np.array_equal(block.controls_at(5, 0.5, states),
                          member_rows(base.u, v[1], base.u))


special = st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324,
                           -5e-324])


# NaN and inf rows are fed on purpose: their invalid-value warnings say
# nothing here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["example1", "example1-tanh"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(1, 70),
       layout=st.sampled_from(["contiguous", "zero-stride", "repeat"]))
def test_example1_drift_and_cost_keep_the_reference_bits(name, data, rows,
                                                        layout):
    # the drift gives the bits of u @ F~^T with F~^T a transposed view and
    # the column-by-column |u|^2 those of the einsum, on every row layout
    # a run hands them, for the packaged two control columns.  A
    # contiguous copy of F~^T would be 3x faster on contiguous rows, but
    # OpenBLAS's kernel for it returns -0.0 for some exact zeros where
    # this one returns +0.0, where a product underflows (u rows of
    # -5e-324, say)
    cfg, problem, _, _, _ = packaged(name)
    f_tilde = np.reshape(cfg.f_tilde, (cfg.state_dim, cfg.control_dim))
    m = cfg.control_dim
    elements = st.one_of(st.floats(-1e150, 1e150), special)
    if layout == "contiguous":
        u = data.draw(arrays(np.float64, (rows, m), elements=elements),
                      label="u")
    else:
        members = data.draw(arrays(np.float64, (3 if layout == "repeat"
                                                else 1, m),
                                   elements=elements), label="v")
        u = (np.repeat(members, rows, axis=0) if layout == "repeat"
             else np.broadcast_to(members[0], (rows, m)))
    x = data.draw(arrays(np.float64, (len(u), cfg.state_dim),
                         elements=finite), label="x")

    expected = u @ f_tilde.T
    if cfg.drift_gain != 0.0:
        expected = expected + cfg.drift_gain * np.tanh(x)
    assert problem.F(0.3, x, u).tobytes() == expected.tobytes()
    assert problem.ell(0.3, x, u).tobytes() \
        == np.einsum("pi,pi->p", u, u).tobytes()


def test_finite_diff_check_flags_wrong_derivative():
    cfg = Example1Config()
    problem, _, _, u_star = build_example1_problem(cfg)
    problem.ell_u = lambda t, x, u: 3.0 * u + 0.05
    probes = [(0.5, np.asarray(cfg.x0), u_star)]
    rep = finite_diff_check(problem, probes)
    assert not rep.passed
    assert "ell_u" in rep.flagged
    # the diffusion derivative is audited through its action
    doctored = dataclasses.replace(
        problem, ell_u=lambda t, x, u: 2.0 * u,
        G_x=lambda t, x, d, dm: 1.5 * problem.G_x(t, x, d, dm))
    assert finite_diff_check(doctored, probes).flagged == ("G_x",)


def test_finite_diff_check_rejects_a_wrong_length_control():
    # the state size comes from each probe state, the control size from
    # the control set, which a probe control must match
    cfg = Example1Config()
    problem, _, _, u_star = build_example1_problem(cfg)
    probes = [(0.5, np.asarray(cfg.x0), np.append(u_star, 0.0))]
    with pytest.raises(ValueError, match="probe control must have length 2"):
        finite_diff_check(problem, probes)
