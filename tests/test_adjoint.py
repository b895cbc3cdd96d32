"""Hamiltonian algebra, explicit and regression adjoint solvers, duality."""

import warnings

import numpy as np
import pytest

from martctrl.adjoint import (RegressionBasis, RegressionRankError,
                              duality_check, grad_x_hamiltonian, hamiltonian,
                              solve_adjoint_explicit, solve_adjoint_lsmc)
from martctrl.dynamics import (OpenLoopPolicy, SpikeSpec, integrate_forward,
                               integrate_variational)
from martctrl.martingale import sample_increments
from martctrl.pmp import (EXAMPLE1_C, EXAMPLE1_F_TILDE, Example1Config,
                          Example2Config, build_example1_problem,
                          build_example2_problem)


def example1_setup(steps=100, paths=200, seed=7, drift_gain=0.0):
    cfg = Example1Config(steps=steps, paths=paths, seed=seed,
                         drift_gain=drift_gain)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, paths, seed)
    pol = OpenLoopPolicy.constant(u_star, grid.steps)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    return cfg, problem, driver, grid, u_star, bundle, pol, traj


def example2_setup(steps=30, paths=1500, seed=9):
    cfg = Example2Config(steps=steps, paths=paths, seed=seed)
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, paths, seed)
    pol = OpenLoopPolicy.constant(np.zeros(2), grid.steps)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    return cfg, problem, driver, grid, bundle, pol, traj


def test_hamiltonian_value_by_hand():
    # independent route: assemble ell + <F, y> + <G Q^(1/2), zq>_HS with
    # plain matrix algebra on a single point of the linear-quadratic problem
    cfg = Example2Config()
    problem, driver, _ = build_example2_problem(cfg)
    t, x = 0.25, np.array([1.0, 0.5])
    u = np.array([0.2, -0.1])
    y = np.array([0.3, 0.4])
    zq = np.array([[0.1, 0.0], [0.2, -0.3]])
    a = np.asarray(cfg.a)
    c_op = np.asarray(cfg.c_op)
    f = np.asarray(cfg.f)
    gam = np.asarray(cfg.gamma)
    gt = np.asarray(cfg.g_tilde)
    d = np.asarray(cfg.d)
    pw = np.asarray(cfg.p_weight)
    rw = np.asarray(cfg.r_weight)
    ell = 0.5 * x @ pw @ x + 0.5 * u @ rw @ u
    drift = a @ x + c_op @ u + f
    g_op = float(x @ gam) * gt + d

    from martctrl.hilbert import psd_sqrt
    qhalf = psd_sqrt(driver.cov_rate(t))
    expected = ell + drift @ y + np.sum((g_op @ qhalf) * zq)
    got = hamiltonian(problem, driver, t, x, u, y, zq)
    assert got == pytest.approx(expected, rel=1e-12)


def test_hamiltonian_affine_in_adjoint_arguments():
    cfg, problem, driver, grid, u_star, _, _, traj = example1_setup(
        steps=20, paths=8)
    rng = np.random.default_rng(0)
    x = traj.states[:, 5, :]
    u = rng.standard_normal((8, 2))
    y1, y2 = rng.standard_normal((2, 8, 4))
    z1, z2 = rng.standard_normal((2, 8, 4, 4))
    t = float(grid.times[5])

    def h_at(y, zq):
        return hamiltonian(problem, driver, t, x, u, y, zq)

    base = h_at(np.zeros_like(y1), np.zeros_like(z1))
    assert np.allclose(h_at(y1 + y2, z1 + z2),
                       h_at(y1, z1) + h_at(y2, z2) - base, atol=1e-10)


def test_hamiltonian_scalar_vs_batched():
    cfg, problem, driver, grid, u_star, _, _, _ = example1_setup(
        steps=10, paths=4)
    x = np.array([1.0, 0.5, -0.25, 0.75])
    u = np.array([0.1, -0.2])
    y = np.array([0.8, -0.3, 0.5, 0.2])
    zq = np.zeros((4, 4))
    single = hamiltonian(problem, driver, 0.5, x, u, y, zq)
    assert isinstance(single, float)
    batched = hamiltonian(problem, driver, 0.5, np.tile(x, (3, 1)), u, y,
                          zq)
    assert batched.shape == (3,)
    assert np.allclose(batched, single)


@pytest.mark.parametrize("which", ["example1", "example2"])
def test_grad_x_hamiltonian_matches_finite_differences(which):
    if which == "example1":
        _, problem, driver, grid, _, _, _, _ = example1_setup(
            steps=10, paths=4, drift_gain=0.25)
        n, m = 4, 2
    else:
        _, problem, driver, grid, _, _, _ = example2_setup(steps=10, paths=4)
        n, m = 2, 2
    rng = np.random.default_rng(42)
    x = rng.standard_normal((6, n))
    u = rng.standard_normal((6, m))
    y = rng.standard_normal((6, n))
    zq = rng.standard_normal((6, n, n))
    t = 0.375
    grad = grad_x_hamiltonian(problem, driver, t, x, u, y, zq)
    step = 1e-6
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = step
        hp = hamiltonian(problem, driver, t, x + dx, u, y, zq)
        hm = hamiltonian(problem, driver, t, x - dx, u, y, zq)
        fd = (hp - hm) / (2.0 * step)
        assert np.allclose(grad[:, j], fd, atol=1e-6)


def test_regression_basis_features():
    basis = RegressionBasis(2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    phi = basis.features(x)
    assert phi.shape == (2, basis.feature_count(2))
    assert np.allclose(phi[0], [1.0, 1.0, 2.0, 1.0, 2.0, 4.0])
    assert RegressionBasis(0).feature_count(3) == 1
    assert RegressionBasis(1).feature_count(3) == 4
    assert RegressionBasis(2).feature_count(3) == 10
    with pytest.raises(ValueError):
        RegressionBasis(3)
    with pytest.raises(ValueError):
        basis.features(np.zeros(4))


def test_explicit_adjoint_on_constant_gradient_problem():
    cfg, problem, driver, grid, _, _, _, traj = example1_setup(steps=20,
                                                               paths=4)
    adj = solve_adjoint_explicit(problem, driver, traj)
    c = np.asarray(EXAMPLE1_C)
    assert adj.method == "explicit"
    assert adj.n_residual_ratio == 0.0
    assert adj.trajectories is traj
    # one row per path, each exactly the terminal gradient, held as a
    # read-only view of that one row
    for k in (0, 10, grid.steps):
        assert adj.y_at(k).shape == (4, 4)
        assert np.array_equal(adj.y_at(k), np.tile(c, (4, 1)))
    assert not adj.Y.flags.writeable
    assert np.allclose(adj.z_at(10), 0.0)
    ys = adj.y_eval(3, np.random.default_rng(0).standard_normal((7, 4)))
    assert ys.shape == (7, 4)
    assert np.allclose(ys, c)


def test_explicit_adjoint_refuses_state_dependent_terminal_cost():
    _, problem, driver, grid, _, _, traj = example2_setup(steps=10, paths=4)
    with pytest.raises(ValueError, match="does not apply"):
        solve_adjoint_explicit(problem, driver, traj)


def test_explicit_adjoint_refuses_nonvanishing_gradient():
    # bounded nonlinearity in the drift makes grad_x H nonzero at Z = 0
    cfg, problem, driver, grid, _, _, _, traj = example1_setup(
        steps=10, paths=4, drift_gain=0.25)
    with pytest.raises(ValueError, match="does not apply"):
        solve_adjoint_explicit(problem, driver, traj)


def test_lsmc_reproduces_constant_adjoint_exactly():
    # terminal gradient is constant on scenario 1, so every regression step
    # sees a constant target and must return it with zero feature weight
    cfg, problem, driver, grid, _, bundle, pol, traj = example1_setup(
        steps=25, paths=300)
    adj = solve_adjoint_lsmc(problem, driver, traj)
    c = np.asarray(EXAMPLE1_C)
    assert adj.method == "lsmc"
    assert np.max(np.abs(adj.Y - c)) < 1e-10
    for k in (0, 10, 24):
        assert np.max(np.abs(adj.z_at(k))) < 1e-10
    # both energy tallies are pure roundoff here and must not be reported
    # as a residual diagnostic
    assert float(np.sum(adj.n_residual_energy)) < 1e-20
    assert adj.n_residual_ratio == 0.0


def test_lsmc_matches_scalar_closed_form():
    # gamma = 0 and P = 0 reduce the linear-quadratic scenario to a scalar
    # problem with closed-form conditional expectations:
    #   Y(t) = P1 e^{A(T-t)} (e^{A(T-t)} X(t) + g(t)),  g(t) = f/A (e^{A(T-t)}-1)
    #   Z(t) = P1 e^{2A(T-t)} D
    a, c_op, r, p1, d, f, horizon = -0.5, 1.0, 1.0, 0.5, 0.4, 0.1, 1.0
    cfg = Example2Config(state_dim=1, control_dim=1, a=((a,),), c_op=((c_op,),),
                         f=(f,), gamma=(0.0,), g_tilde=((0.0,),), d=((d,),),
                         p_weight=((0.0,),), r_weight=((r,),), p1=((p1,),),
                         x0=(1.0,), beta=(1.0,), steps=50, paths=8000,
                         seed=4242)
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = OpenLoopPolicy.constant(np.zeros(1), grid.steps)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    adj = solve_adjoint_lsmc(problem, driver, traj)
    times = grid.times
    y_num = y_den = z_num = z_den = 0.0
    for k in range(grid.steps + 1):
        tau = horizon - times[k]
        xk = traj.states[:, k, 0]
        g_t = f / a * (np.exp(a * tau) - 1.0)
        y_true = p1 * np.exp(a * tau) * (np.exp(a * tau) * xk + g_t)
        y_num += np.mean((adj.Y[:, k, 0] - y_true) ** 2)
        y_den += np.mean(y_true ** 2)
        if k < grid.steps:
            z_true = p1 * np.exp(2.0 * a * tau) * d
            z_num += np.mean((adj.z_at(k)[:, 0, 0] - z_true) ** 2)
            z_den += z_true ** 2
    assert np.sqrt(y_num / y_den) < 0.05
    assert np.sqrt(z_num / z_den) < 0.10


def test_lsmc_y_eval_reproduces_training_values():
    _, problem, driver, grid, bundle, pol, traj = example2_setup()
    adj = solve_adjoint_lsmc(problem, driver, traj)
    for k in (0, 1, grid.steps // 2, grid.steps - 1):
        on_cloud = adj.y_eval(k, traj.states[:, k, :])
        assert np.array_equal(on_cloud, adj.Y[:, k, :])
    terminal = adj.y_eval(grid.steps, traj.states[:, -1, :])
    assert np.allclose(terminal, problem.h_x(traj.states[:, -1, :]))


def test_lsmc_condition_limit_raises():
    _, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=20, paths=400)
    with pytest.raises(RegressionRankError) as exc:
        solve_adjoint_lsmc(problem, driver, traj, cond_limit=2.0)
    assert exc.value.step >= 0
    assert exc.value.cond > 2.0
    assert "condition number" in str(exc.value)


def test_lsmc_enforces_feature_count_invariant():
    _, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=10, paths=50)
    with pytest.raises(ValueError, match="paths"):
        solve_adjoint_lsmc(problem, driver, traj)


def test_lsmc_residual_warning():
    _, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=20, paths=400)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_adjoint_lsmc(problem, driver, traj, warn_ratio=1e-12)
    assert any("unexplained martingale residual" in str(w.message)
               for w in caught)


def test_duality_identity_example1_frozen_value():
    # Y = c and ell_x = 0 make both sides equal <c, F_tilde (v - u*)>
    cfg, problem, driver, grid, u_star, bundle, pol, traj = example1_setup(
        steps=200, paths=8000, seed=555)
    adj = solve_adjoint_explicit(problem, driver, traj)
    spec = SpikeSpec(t0=0.3, eps=0.1, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    rep = duality_check(problem, adj, p)
    c = np.asarray(EXAMPLE1_C)
    f_tilde = np.asarray(EXAMPLE1_F_TILDE)
    analytic = float(c @ f_tilde @ (spec.v - u_star))
    assert analytic == pytest.approx(0.75, abs=1e-12)
    assert rep.rhs == pytest.approx(analytic, abs=1e-10)
    assert rep.se_rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.within(3.0)
    assert abs(rep.lhs - analytic) < 4.0 * rep.se_lhs


def test_duality_check_requires_shared_bundle():
    cfg, problem, driver, grid, u_star, bundle, pol, traj = example1_setup(
        steps=20, paths=16)
    adj = solve_adjoint_explicit(problem, driver, traj)
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.6, 0.4]))
    other_bundle = sample_increments(driver, grid, 16, seed=1234)
    other_traj = integrate_forward(problem, pol, other_bundle,
                                   np.asarray(cfg.x0))
    p_other = integrate_variational(problem, other_traj, spec)
    with pytest.raises(ValueError, match="own trajectories"):
        duality_check(problem, adj, p_other)
    # the same numbers integrated again are other trajectories too
    twin = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    with pytest.raises(ValueError, match="own trajectories"):
        duality_check(problem, adj, integrate_variational(problem, twin, spec))
    assert duality_check(problem, adj,
                         integrate_variational(problem, traj, spec)).paths == 16
