"""Forward integration, spikes, variational processes, and cost evaluation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from martctrl._parallel import BLOCK_SIZE
from martctrl.adjoint import solve_adjoint_lsmc
from martctrl.dynamics import (BallSet, BlowUpError, BoxSet, ControlProblem,
                               FeedbackPolicy, FiniteSet, OpenLoopPolicy,
                               SpikeSpec, TrajectoryBundle, apply_spike,
                               evaluate_cost,
                               finite_diff_check, integrate_forward,
                               integrate_variational, sample_controls,
                               spiked_costs, stream_spiked)
from martctrl.hilbert import apply_operator
from martctrl.martingale import (MartingaleDriver, PathGrid, ScalarIntensity,
                                 sample_increments)
from martctrl.pmp import (Example1Config, Example2Config, build_example1_problem,
                          build_example2_problem)

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
    bundle = sample_increments(make_driver(1), grid, paths=paths, seed=0)
    bundle.increments[:] = 0.0
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
    x_end = stream_spiked(problem, base, spec, lambda k, x, u, x_next: None)
    assert np.array_equal(x_end, full.states[:, -1, :])


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
        x_end = stream_spiked(
            problem, base, spec,
            lambda k, x, u, x_next: seen.setdefault(k + 1, x_next))
        assert sorted(seen) == list(range(k0 + 1, grid.steps + 1))
        for k, x in seen.items():
            assert np.array_equal(x, stored.states[:, k, :]), k
        assert np.array_equal(x_end, stored.states[:, -1, :])


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
    assert len(calls) == grid.steps
    first = next(costs)
    assert len(calls) == grid.steps + 20      # steps 20..39 of the first
    second = next(costs)
    assert len(calls) == grid.steps + 20 + 30
    with pytest.raises(StopIteration):
        next(costs)
    for spec, cost in zip(specs, (first, second)):
        full = integrate_forward(problem,
                                 apply_spike(base.policy, spec, grid),
                                 bundle, np.asarray(cfg.x0))
        assert np.array_equal(cost.per_path,
                              evaluate_cost(problem, full).per_path)
    assert np.array_equal(base_cost.per_path,
                          evaluate_cost(problem, base).per_path)


@pytest.mark.parametrize("name", ["example1-tanh", "example2"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(small=st.integers(2, BLOCK_SIZE + 64), extra=st.integers(1, 256))
@example(small=7, extra=57)
@example(small=100, extra=4900)
@example(small=33, extra=BLOCK_SIZE + 1 - 33)
def test_more_paths_extend_fewer(name, small, extra):
    # per-path noise substreams: a run on more paths repeats the states and
    # per-path costs of a run on fewer, bit for bit, across block edges too.
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
    x_end = stream_spiked(problem, base, spec,
                          lambda k, x, u, x_next: seen.setdefault(k + 1,
                                                                  x_next))
    assert sorted(seen) == list(range(k0 + 1, steps + 1))
    for k, x in seen.items():
        assert np.array_equal(x, full.states[:, k, :]), k
    assert np.array_equal(x_end, full.states[:, -1, :])
    _, costs = spiked_costs(problem, base, [spec])
    streamed = next(costs)
    expected = evaluate_cost(problem, full)
    assert np.array_equal(streamed.per_path, expected.per_path)
    assert (streamed.mean, streamed.stderr) \
        == (expected.mean, expected.stderr)


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
        p = p + apply_operator(problem.F_x(t, xk, uk), p) * dt \
            + problem.G_x(t, xk, p, bundle.increments[:, k, :])
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
