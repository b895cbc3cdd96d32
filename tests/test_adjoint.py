"""Hamiltonian algebra, explicit and regression adjoint solvers, duality."""

import dataclasses
import warnings

import numpy as np
import pytest

from martctrl import adjoint
from martctrl.adjoint import (RegressionBasis, RegressionRankError,
                              duality_check, grad_x_hamiltonian, hamiltonian,
                              solve_adjoint_explicit, solve_adjoint_lsmc)
from martctrl.dynamics import (AffineDiffusion, OpenLoopPolicy, SpikeSpec,
                               integrate_forward, integrate_variational,
                               sample_controls)
from martctrl.martingale import (MartingaleDriver, ScalarIntensity,
                                 sample_increments, verify_isometry)
from martctrl.pmp import (EXAMPLE1_C, EXAMPLE1_F_TILDE, Example1Config,
                          Example2Config, build_example1_problem,
                          build_example2_problem, within_3se)
from test_dynamics import packaged, variation_on_every_step


def example1_setup(steps=100, paths=200, seed=7, drift_gain=0.0):
    cfg = Example1Config(steps=steps, paths=paths, seed=seed,
                         drift_gain=drift_gain)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, paths, seed)
    pol = OpenLoopPolicy(u_star)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    return cfg, problem, driver, grid, u_star, bundle, pol, traj


def example2_setup(steps=30, paths=1500, seed=9):
    cfg = Example2Config(steps=steps, paths=paths, seed=seed)
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, paths, seed)
    pol = OpenLoopPolicy(np.zeros(2))
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    return cfg, problem, driver, grid, bundle, pol, traj


def test_hamiltonian_value_by_hand():
    # independent route: assemble ell + <F, y> + tr(G^T z Q) with plain
    # matrix algebra on one point of the linear-quadratic problem, which
    # the Hamiltonian takes as a one-row batch
    cfg = Example2Config()
    problem, driver, _ = build_example2_problem(cfg)
    t, x = 0.25, np.array([1.0, 0.5])
    u = np.array([0.2, -0.1])
    y = np.array([0.3, 0.4])
    z = np.array([[0.1, 0.0], [0.2, -0.3]])
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

    expected = ell + drift @ y + np.trace(g_op.T @ z @ driver.cov_rate(t))
    got = hamiltonian(problem, driver.cov_rate_factor(t), t, x[None],
                      u[None], y[None], z[None])
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_hamiltonian_pairs_through_the_root_of_q():
    # two components spanning a plane of R^4: the factor pairing must give
    # <G Q^(1/2), z Q^(1/2)>_HS and its state gradient, with Q^(1/2) taken
    # here by eigendecomposition
    cfg = Example1Config(steps=10, paths=4)
    problem, _, _, _ = build_example1_problem(cfg)
    beta = np.asarray(cfg.beta)
    driver = MartingaleDriver(
        state_dim=4, horizon=1.0,
        components=((beta, ScalarIntensity.linear(1.0, 0.5, 1.0)),
                    (np.array([0.0, 1.0, 1.0, 0.0]),
                     ScalarIntensity.constant(2.0))))
    t = 0.375
    w, v = np.linalg.eigh(driver.cov_rate(t))
    assert np.sum(w > 1e-12) == 2
    qhalf = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    u = rng.standard_normal((5, 2))
    y = rng.standard_normal((5, 4))
    z = rng.standard_normal((5, 4, 4))
    g_tilde = np.asarray(cfg.g_tilde).reshape(4, 4)
    zq = z @ qhalf
    hs = np.array([np.sum(((xp @ beta) * g_tilde @ qhalf) * zp)
                   for xp, zp in zip(x, zq)])
    gamma = np.array([[np.sum((bd * g_tilde @ qhalf) * zp) for bd in beta]
                      for zp in zq])
    zero = np.zeros_like(z)
    factor = driver.cov_rate_factor(t)
    h_diff = hamiltonian(problem, factor, t, x, u, y, z) \
        - hamiltonian(problem, factor, t, x, u, y, zero)
    g_diff = grad_x_hamiltonian(problem, factor, t, x, u, y, z) \
        - grad_x_hamiltonian(problem, factor, t, x, u, y, zero)
    assert np.allclose(h_diff, hs, rtol=1e-12, atol=1e-12)
    assert np.allclose(g_diff, gamma, rtol=1e-12, atol=1e-12)


def test_hamiltonian_affine_in_adjoint_arguments():
    cfg, problem, driver, grid, u_star, _, _, traj = example1_setup(
        steps=20, paths=8)
    rng = np.random.default_rng(0)
    x = traj.states[:, 5, :]
    u = rng.standard_normal((8, 2))
    y1, y2 = rng.standard_normal((2, 8, 4))
    z1, z2 = rng.standard_normal((2, 8, 4, 4))
    t = float(grid.times[5])

    def h_at(y, z):
        return hamiltonian(problem, driver.cov_rate_factor(t), t, x, u, y, z)

    base = h_at(np.zeros_like(y1), np.zeros_like(z1))
    assert np.allclose(h_at(y1 + y2, z1 + z2),
                       h_at(y1, z1) + h_at(y2, z2) - base, atol=1e-10)


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
    z = rng.standard_normal((6, n, n))
    t = 0.375
    factor = driver.cov_rate_factor(t)
    grad = grad_x_hamiltonian(problem, factor, t, x, u, y, z)
    step = 1e-6
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = step
        hp = hamiltonian(problem, factor, t, x + dx, u, y, z)
        hm = hamiltonian(problem, factor, t, x - dx, u, y, z)
        fd = (hp - hm) / (2.0 * step)
        assert np.allclose(grad[:, j], fd, atol=1e-6)


def undeclared(problem):
    """``problem`` with G behind a plain lambda and no declarations, so
    grad_x H takes the generic G_x loop and y_eval reads the policy."""
    diffusion = problem.G
    return dataclasses.replace(problem, G=lambda t, x, dm: diffusion(t, x, dm),
                               grad_x_ignores_u=False)


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("name", ["example1", "example1-tanh", "example2"])
def test_closed_form_gamma_matches_the_generic_loop(name, components):
    cfg, problem, driver, _, _ = packaged(name)
    assert isinstance(problem.G, AffineDiffusion)
    n = cfg.state_dim
    if components == 2:
        # a second direction off the first, so the factor has two columns
        second = np.linspace(1.0, -0.5, n)
        driver = MartingaleDriver(
            state_dim=n, horizon=cfg.horizon,
            components=(driver.components[0],
                        (second, ScalarIntensity.constant(2.0))))
    generic = undeclared(problem)
    rng = np.random.default_rng(17 + components)
    paths = 64
    x = 2.0 * rng.standard_normal((paths, n))
    u = sample_controls(problem.control_set, paths, rng)
    y = rng.standard_normal((paths, n))
    z = rng.standard_normal((paths, n, n))
    zero = np.zeros_like(z)
    for t in (0.0, 0.375, cfg.horizon):
        factor = driver.cov_rate_factor(t)
        assert factor.shape == (n, components)
        got = grad_x_hamiltonian(problem, factor, t, x, u, y, z)
        ref = grad_x_hamiltonian(generic, factor, t, x, u, y, z)
        base = grad_x_hamiltonian(generic, factor, t, x, u, y, zero)
        gamma = ref - base
        assert np.max(np.abs(gamma)) > 0.1
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(gamma))
        # the explicit solver's probe point: Z = 0 leaves no Gamma at all
        assert np.array_equal(
            grad_x_hamiltonian(problem, factor, t, x, u, y, zero), base)


def test_explicit_probe_reads_the_closed_form_gamma():
    cfg, problem, driver, grid, _, _, _, traj = example1_setup(steps=20,
                                                               paths=4)
    declared = solve_adjoint_explicit(problem, traj)
    generic = solve_adjoint_explicit(undeclared(problem), traj)
    assert np.array_equal(declared.Y, generic.Y)

    class Offset(AffineDiffusion):
        """A declared Gamma that does not vanish at Z = 0."""

        def state_gradient(self, factor, z):
            return super().state_gradient(factor, z) + 1e-3

    doctored = dataclasses.replace(problem, G=Offset(
        cfg.beta, np.asarray(cfg.g_tilde).reshape(4, 4)))
    with pytest.raises(ValueError, match="does not vanish at Z = 0"):
        solve_adjoint_explicit(doctored, traj)


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
    adj = solve_adjoint_explicit(problem, traj)
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
        solve_adjoint_explicit(problem, traj)


def test_explicit_adjoint_refuses_nonvanishing_gradient():
    # bounded nonlinearity in the drift makes grad_x H nonzero at Z = 0
    cfg, problem, driver, grid, _, _, _, traj = example1_setup(
        steps=10, paths=4, drift_gain=0.25)
    with pytest.raises(ValueError, match="does not apply"):
        solve_adjoint_explicit(problem, traj)


def test_lsmc_reproduces_constant_adjoint_exactly():
    # terminal gradient is constant on scenario 1, so every regression step
    # sees a constant target and must return it with zero feature weight
    cfg, problem, driver, grid, _, bundle, pol, traj = example1_setup(
        steps=25, paths=300)
    adj = solve_adjoint_lsmc(problem, traj)
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
    cfg = Example2Config(a=((a,),), c_op=((c_op,),), f=(f,), gamma=(0.0,),
                         g_tilde=((0.0,),), d=((d,),), p_weight=((0.0,),),
                         r_weight=((r,),), p1=((p1,),), x0=(1.0,),
                         beta=(1.0,), steps=50, paths=8000, seed=4242)
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = OpenLoopPolicy(np.zeros(1))
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    adj = solve_adjoint_lsmc(problem, traj)
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
    adj = solve_adjoint_lsmc(problem, traj)
    for k in (0, 1, grid.steps // 2, grid.steps - 1):
        on_cloud = adj.y_eval(k, traj.states[:, k, :])
        assert np.array_equal(on_cloud, adj.Y[:, k, :])
    terminal = adj.y_eval(grid.steps, traj.states[:, -1, :])
    assert np.allclose(terminal, problem.h_x(traj.states[:, -1, :]))


def test_lsmc_condition_limit_raises(monkeypatch):
    _, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=20, paths=400)
    monkeypatch.setattr(adjoint, "CONDITION_LIMIT", 2.0)
    with pytest.raises(RegressionRankError) as exc:
        solve_adjoint_lsmc(problem, traj)
    assert exc.value.step >= 0
    assert exc.value.cond > 2.0
    assert "condition number" in str(exc.value)


def test_lsmc_enforces_feature_count_invariant():
    _, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=10, paths=50)
    with pytest.raises(ValueError, match="paths"):
        solve_adjoint_lsmc(problem, traj)


def test_lsmc_residual_warning(monkeypatch):
    _, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=20, paths=400)
    monkeypatch.setattr(adjoint, "N_RESIDUAL_WARN_RATIO", 1e-12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_adjoint_lsmc(problem, traj)
    assert any("unexplained martingale residual" in str(w.message)
               for w in caught)


def test_duality_identity_example1_frozen_value():
    # Y = c and ell_x = 0 make both sides equal <c, F_tilde (v - u*)>
    cfg, problem, driver, grid, u_star, bundle, pol, traj = example1_setup(
        steps=200, paths=8000, seed=555)
    adj = solve_adjoint_explicit(problem, traj)
    spec = SpikeSpec(t0=0.3, eps=0.1, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    rep = duality_check(adj, p)
    c = np.asarray(EXAMPLE1_C)
    f_tilde = np.asarray(EXAMPLE1_F_TILDE)
    analytic = float(c @ f_tilde @ (spec.v - u_star))
    assert analytic == pytest.approx(0.75, abs=1e-12)
    assert rep.rhs == pytest.approx(analytic, abs=1e-10)
    assert rep.se_rhs == pytest.approx(0.0, abs=1e-12)
    assert within_3se("duality", rep.difference, rep.se_lhs + rep.se_rhs,
                      rep.lhs, "lhs", "").passed
    assert abs(rep.lhs - analytic) < 4.0 * rep.se_lhs


def test_duality_rhs_integrates_ell_x_through_zeta():
    # example2 has ell_x != 0: the rhs reads int <ell_x, p> dt off zeta and
    # must agree with the left-point sum of the integrand to roundoff
    cfg, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=20, paths=400)
    adj = solve_adjoint_lsmc(problem, traj, basis=RegressionBasis(1))
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.5, -0.25]))
    p = integrate_variational(problem, traj, spec)
    ps, _ = variation_on_every_step(problem, traj, spec)
    k0, _ = spec.window(grid)
    integral = sum(
        np.einsum("pi,pi->p", problem.ell_x(grid.times[k], traj.states[:, k],
                                            traj.control_at(k)),
                  ps[:, k]) * grid.dt
        for k in range(k0, grid.steps))
    assert np.max(np.abs(integral)) > 1e-3
    rhs_pp = np.einsum("pi,pi->p", adj.y_at(k0), ps[:, k0]) - integral
    rep = duality_check(adj, p)
    assert rep.rhs == pytest.approx(float(np.mean(rhs_pp)), rel=1e-12)


def test_duality_reports_paired_difference_se():
    # the SE of the per-path lhs - rhs, beside the unpaired SE_L + SE_R
    # that the gate keeps
    cfg, problem, driver, grid, bundle, pol, traj = example2_setup(
        steps=20, paths=400)
    adj = solve_adjoint_lsmc(problem, traj, basis=RegressionBasis(1))
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.5, -0.25]))
    p = integrate_variational(problem, traj, spec)
    rep = duality_check(adj, p)
    k0, _ = spec.window(grid)
    lhs_pp = np.einsum("pi,pi->p", adj.y_at(grid.steps), p.states[:, -1])
    rhs_pp = np.einsum("pi,pi->p", adj.y_at(k0), p.states[:, 0]) \
        - (p.zeta[:, -1] - p.zeta[:, 0])
    diff = lhs_pp - rhs_pp
    assert rep.se_diff == pytest.approx(
        float(np.std(diff, ddof=1) / np.sqrt(diff.size)), rel=1e-12)
    assert 0.0 < rep.se_diff < rep.se_lhs + rep.se_rhs


def test_one_path_checks_do_not_pass():
    # one path has no standard error: a 3-SE verdict must not pass against it
    cfg, problem, driver, grid, u_star, bundle, pol, traj = example1_setup(
        steps=20, paths=1)
    adj = solve_adjoint_explicit(problem, traj)
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.6, 0.4]))
    duality = duality_check(adj, integrate_variational(problem, traj, spec))
    assert np.isfinite(duality.difference)
    isometry = verify_isometry(np.eye(4), bundle)
    assert np.isfinite(isometry.difference)
    for verdict in (
            within_3se("duality", duality.difference,
                       duality.se_lhs + duality.se_rhs, duality.lhs, "lhs",
                       ""),
            within_3se("isometry", isometry.difference, isometry.mc_stderr,
                       isometry.quadrature_value, "quadrature", "")):
        assert not verdict.passed
        assert verdict.detail.startswith("inconclusive"), verdict.detail


def test_duality_check_requires_shared_bundle():
    cfg, problem, driver, grid, u_star, bundle, pol, traj = example1_setup(
        steps=20, paths=16)
    adj = solve_adjoint_explicit(problem, traj)
    spec = SpikeSpec(t0=0.25, eps=0.1, v=np.array([0.6, 0.4]))
    other_bundle = sample_increments(driver, grid, 16, seed=1234)
    other_traj = integrate_forward(problem, pol, other_bundle,
                                   np.asarray(cfg.x0))
    p_other = integrate_variational(problem, other_traj, spec)
    with pytest.raises(ValueError, match="own trajectories"):
        duality_check(adj, p_other)
    # the same numbers integrated again are other trajectories too
    twin = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    with pytest.raises(ValueError, match="own trajectories"):
        duality_check(adj, integrate_variational(problem, twin, spec))
    assert duality_check(adj,
                         integrate_variational(problem, traj, spec)).paths == 16
