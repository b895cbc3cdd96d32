"""Optimality checks, spike experiments, and the two packaged scenarios."""

import numpy as np
import pytest

from martctrl import adjoint, hilbert, martingale, pmp
from martctrl.adjoint import solve_adjoint_explicit
from martctrl.dynamics import (FeedbackPolicy, FiniteSet, OpenLoopPolicy,
                               SpikeSpec, apply_spike, evaluate_cost,
                               integrate_forward, integrate_variational,
                               spiked_cost)
from martctrl.martingale import sample_increments
from martctrl.pmp import (EXAMPLE1_C, EXAMPLE1_F_TILDE, FAR_THRESHOLD,
                          Example1Config, Example2Config, build_example1_problem,
                          build_example2_problem, default_spike_family,
                          example1_analytic_cost, gateaux_check,
                          named_feedback, necessary_check, rate_experiments,
                          run_example1, run_example2, stationarity_residual,
                          sufficient_check)


def candidate_for(cfg, policy=None):
    """Scenario-1 problem and trajectories of ``policy`` (default u*)."""
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = policy if policy is not None \
        else OpenLoopPolicy.constant(u_star, grid.steps)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    return problem, driver, grid, u_star, bundle, traj


def adjoint_for(cfg, policy=None):
    """As ``candidate_for``, with the explicit adjoint in place of the
    trajectories it was solved along."""
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg, policy)
    return (problem, driver, grid, u_star, bundle,
            solve_adjoint_explicit(problem, driver, traj))


def test_example1_closed_form_constants():
    cfg = Example1Config()
    problem, driver, grid, u_star = build_example1_problem(cfg)
    c = np.asarray(EXAMPLE1_C)
    f_tilde = np.asarray(EXAMPLE1_F_TILDE)
    # the stationary control is -(1/2) F_tilde^T c and the optimal value is
    # <c, x0> - (T/4) |F_tilde^T c|^2
    assert np.allclose(u_star, -0.5 * f_tilde.T @ c)
    assert np.allclose(u_star, [-0.35, -0.05])
    assert example1_analytic_cost(cfg) == pytest.approx(0.55, abs=1e-12)
    x0 = np.asarray(cfg.x0)
    assert float(c @ x0) - 0.25 * float(np.sum((f_tilde.T @ c) ** 2)) \
        == pytest.approx(0.55)


def test_necessary_check_margins_are_squared_distance():
    # with Y = c and Z = 0, the Hamiltonian increment at probe v is exactly
    # |v - u*|^2, with no Monte Carlo error at all
    cfg = Example1Config(steps=50, paths=60, seed=11)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    rep = necessary_check(problem, driver, adj, sample_times=5,
                          sample_paths=10, points_per_dim=5)
    assert rep.passed
    expected = np.sum((rep.probes - u_star) ** 2, axis=1)
    assert np.allclose(rep.margins, expected[None, None, :], atol=1e-10)
    assert rep.min_margin >= -1e-8
    assert rep.margins.shape == (5, 10, rep.probes.shape[0])


def test_necessary_check_flags_suboptimal_candidate():
    cfg = Example1Config(steps=50, paths=60, seed=11)
    zero_pol = OpenLoopPolicy.constant(np.zeros(2), 50)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(
        cfg, policy=zero_pol)
    rep = necessary_check(problem, driver, adj, sample_times=5,
                          sample_paths=10, points_per_dim=11)
    assert not rep.passed
    # the minimum sits at the probe closest to u*, with value -|u*|^2
    assert rep.min_margin == pytest.approx(-0.125, abs=1e-10)
    t_w, path_w, v_w = rep.witness
    assert 0.0 <= t_w <= cfg.horizon
    assert isinstance(path_w, int)
    assert np.allclose(v_w, u_star)
    assert rep.frac_negative > 0.0


def test_necessary_check_rejects_inadmissible_probes():
    cfg = Example1Config(steps=20, paths=30, seed=2)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    bad = np.array([[10.0, 0.0]])
    with pytest.raises(ValueError, match="outside the declared"):
        necessary_check(problem, driver, adj, probes=bad, sample_times=2,
                        sample_paths=5)


def test_sufficient_check_passes_on_convex_problem():
    cfg = Example1Config(steps=50, paths=60, seed=13)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    rep = sufficient_check(problem, driver, adj, pairs=300)
    assert rep.applicable and rep.set_convex
    assert rep.terminal_passed
    assert rep.terminal_violation <= 1e-10
    assert rep.joint_passed
    assert rep.overall
    assert rep.margin_report is not None


def test_sufficient_check_fails_on_concave_running_cost():
    import dataclasses
    cfg = Example1Config(steps=50, paths=60, seed=13)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    concave = dataclasses.replace(
        problem,
        ell=lambda t, x, u: -np.einsum("pi,pi->p", u, u),
        ell_u=lambda t, x, u: -2.0 * u)
    rep = sufficient_check(concave, driver, adj, pairs=1000)
    assert rep.applicable
    assert not rep.joint_passed
    assert not rep.overall
    assert rep.joint_violation > 1e-10
    assert rep.joint_witness is not None


def test_sufficient_check_inapplicable_for_finite_control_set():
    import dataclasses
    cfg = Example1Config(steps=20, paths=30, seed=5)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    finite = dataclasses.replace(
        problem, control_set=FiniteSet(points=np.array([[0.0, 0.0],
                                                        [1.0, 1.0]])))
    rep = sufficient_check(finite, driver, adj, pairs=10)
    assert not rep.applicable
    assert "not convex" in rep.note
    assert not rep.overall


def test_gateaux_check_agreement_and_fault_detection():
    # steps must make every eps in the list a whole number of grid cells
    cfg = Example1Config(steps=200, paths=4000, seed=31)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    spec = SpikeSpec(t0=0.3, eps=0.05, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    rep = gateaux_check(problem, p, eps_list=(0.05, 0.025))
    assert rep.agree_all
    assert len(rep.entries) == 2
    for entry in rep.entries:
        assert entry.agree
        assert abs(entry.fd_quotient - rep.adjoint_value) <= entry.tol
    # doubled first variation must be flagged
    import dataclasses
    wrong = dataclasses.replace(p, states=2.0 * p.states)
    bad = gateaux_check(problem, wrong, eps_list=(0.05, 0.025))
    assert not bad.agree_all


def test_gateaux_check_with_huge_se_is_inconclusive():
    # zero-mean noise of +-50 on zeta(T) leaves the mean difference where
    # it was, inside the tolerance, but 3 SE(diff) then dwarfs the value
    import dataclasses
    cfg = Example1Config(steps=80, paths=300, seed=37)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    spec = SpikeSpec(t0=0.3, eps=0.05, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    assert gateaux_check(problem, p).agree_all
    zeta = p.zeta.copy()
    zeta[:, -1] += 50.0 * (-1.0) ** np.arange(cfg.paths)
    noisy = gateaux_check(problem, dataclasses.replace(p, zeta=zeta))
    for entry in noisy.entries:
        assert abs(entry.mean_diff) <= entry.tol
        assert 3.0 * entry.se_diff > 0.5 * max(1.0, abs(noisy.adjoint_value))
        assert not entry.agree


def test_within_3se_with_tolerance_is_never_vacuous():
    ok = pmp.within_3se("a", 0.4, 0.1, 1.3, "value", "d", tol=0.5)
    assert ok.passed and ok.detail == "d"
    assert not pmp.within_3se("a", 0.6, 0.1, 1.3, "value", "d",
                              tol=0.5).passed
    vacuous = pmp.within_3se("a", 0.4, 0.3, 1.3, "value", "d", tol=5.0)
    assert not vacuous.passed
    assert vacuous.detail.startswith("inconclusive: 3*SE exceeds half of "
                                     "max(1, |value|) = 1.30e+00; d")


def test_gateaux_check_spikes_at_the_first_variations_own_start():
    cfg = Example1Config(steps=80, paths=300, seed=37)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    v = np.array([0.65, 0.45])
    p = integrate_variational(problem, traj, SpikeSpec(t0=0.5, eps=0.05, v=v))
    eps_list = (0.05, 0.025)
    rep = gateaux_check(problem, p, eps_list=eps_list)
    # t0 = 0.5 is step 40 of 80
    base_cost = evaluate_cost(problem, traj, running_at=(40,))
    for entry, eps in zip(rep.entries, eps_list):
        spiked = spiked_cost(problem, traj, base_cost,
                             SpikeSpec(t0=0.5, eps=eps, v=v))
        quotient = (spiked.per_path - base_cost.per_path) / eps
        assert entry.fd_quotient == float(np.mean(quotient))


def test_rate_experiments_pass_and_fault_detection():
    # default eps ladder bottoms out at 0.025, so dt must divide it
    cfg = Example1Config(steps=200, paths=4000, seed=33)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    spec = SpikeSpec(t0=0.25, eps=0.2, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    rep = rate_experiments(problem, p)
    assert rep.passed
    assert rep.slope >= 1.5
    assert np.all(np.diff(rep.exi) < 0.0)
    assert rep.exi[-1] < 0.25 * rep.exi[0]
    # eps ladder is reported largest first
    assert np.all(np.diff(rep.eps) < 0.0)
    import dataclasses
    wrong = dataclasses.replace(p, states=2.0 * p.states)
    bad = rate_experiments(problem, wrong)
    assert not bad.passed


def test_rate_experiments_match_stored_spiked_states():
    cfg = Example1Config(steps=80, paths=300, seed=35, drift_gain=0.25)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    v = np.array([0.65, 0.45])
    ladder = (0.2, 0.1, 0.05)
    p = integrate_variational(problem, traj, SpikeSpec(t0=0.25, eps=0.2, v=v))
    rep = rate_experiments(problem, p, eps_ladder=ladder)
    # the same statistics from stored spiked states, step by step
    p_term = p.states[:, -1]
    for i, eps in enumerate(ladder):
        spec = SpikeSpec(t0=0.25, eps=eps, v=v)
        k0, _ = spec.window(grid)
        spiked = integrate_forward(problem,
                                   apply_spike(traj.policy, spec, grid),
                                   bundle, np.asarray(cfg.x0))
        msq = np.zeros(traj.paths)
        for k in range(k0, grid.steps + 1):
            diff = spiked.states[:, k, :] - traj.states[:, k, :]
            np.maximum(msq, np.einsum("pi,pi->p", diff, diff), out=msq)
        xi = (spiked.states[:, -1, :] - traj.states[:, -1, :]) / eps - p_term
        xi_sq = np.einsum("pi,pi->p", xi, xi)
        assert rep.esup[i] == float(np.mean(msq))
        assert rep.esup_se[i] == float(np.std(msq, ddof=1)
                                       / np.sqrt(traj.paths))
        assert rep.exi[i] == float(np.mean(xi_sq))
        assert rep.exi_se[i] == float(np.std(xi_sq, ddof=1)
                                      / np.sqrt(traj.paths))


def test_default_spike_family_layout():
    cfg = Example1Config(steps=100, paths=10, seed=1)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    specs = default_spike_family(grid, u_star, problem.control_set, count=20)
    assert len(specs) == 20
    assert FAR_THRESHOLD == pytest.approx(0.25)
    noop = [s for s in specs if np.allclose(s.v, u_star)]
    assert len(noop) == 2
    for s in specs:
        k0, k1 = s.window(grid)  # validates alignment and horizon fit
        assert 0 <= k0 < k1 <= grid.steps
        assert problem.control_set.contains(s.v)
    displaced = [s for s in specs if not np.allclose(s.v, u_star)]
    assert len(displaced) == 18
    dists = np.array([float(np.linalg.norm(s.v - u_star)) for s in displaced])
    # displacement magnitudes are drawn inside a fixed annulus whose inner
    # radius clears the far threshold
    assert np.all(dists >= 0.6 - 1e-12)
    assert np.all(dists <= 1.8 + 1e-12)
    assert np.all(dists >= FAR_THRESHOLD)


def test_named_feedback():
    u_star = np.array([-0.35, -0.05])
    zero = named_feedback("zero", u_star, 2)
    states = np.ones((4, 4))
    assert np.allclose(zero.fn(0.0, states), 0.0)
    stat = named_feedback("stationary", u_star, 2)
    assert np.allclose(stat.fn(0.0, states), u_star)
    with pytest.raises(ValueError):
        named_feedback("bang-bang", u_star, 2)


def test_run_example1_small_scale_report():
    cfg = Example1Config(steps=60, paths=1200, seed=12022, spike_count=6,
                         sample_times=4, sample_paths=30, convexity_pairs=150)
    result = run_example1(cfg)
    report = result.report
    assert report.scenario == "example1"
    assert report.passed
    names = [a.name for a in report.assertions]
    assert names == ["cost_matches_analytic", "spike_costs_dominate",
                     "spike_gaps_positive", "necessary_margins", "sufficiency"]
    assert abs(result.cost.mean - 0.55) <= 3.0 * result.cost.stderr
    assert result.analytic_cost == pytest.approx(0.55)
    assert result.margin_report.min_margin >= -1e-8
    assert "spike_gaps" in report.tables


@pytest.mark.parametrize("overrides, name, start", [
    # the cost SE is ~1e24 against an analytic cost of -5.6
    ({"horizon": 50.0, "alpha_slope": 10.0}, "cost_matches_analytic",
     "inconclusive"),
    # the first two spikes of the family sit at u* itself
    ({"spike_count": 2}, "spike_gaps_positive", "no displaced spikes"),
], ids=["huge-cost-se", "no-displaced-spikes"])
def test_run_example1_fails_vacuous_verdicts(overrides, name, start):
    small = dict(steps=40, paths=200, spike_count=3, sample_times=2,
                 sample_paths=10, probe_points_per_dim=3, convexity_pairs=20)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_example1(Example1Config(**{**small, **overrides}))
    verdict = {a.name: a for a in result.report.assertions}[name]
    assert not verdict.passed
    assert verdict.detail.startswith(start), verdict.detail
    assert not result.report.passed


def test_run_example1_zero_feedback_fails_optimality():
    cfg = Example1Config(steps=60, paths=600, seed=7, spike_count=4,
                         sample_times=3, sample_paths=20, convexity_pairs=60,
                         feedback="zero")
    result = run_example1(cfg)
    assert not result.report.passed
    by_name = {a.name: a for a in result.report.assertions}
    assert not by_name["necessary_margins"].passed
    assert result.margin_report.min_margin == pytest.approx(-0.125, abs=1e-9)


def test_run_example1_rejects_nonlinear_drift_variant():
    # the scenario pipeline checks the closed-form candidate, which only
    # exists for the linear drift; the tanh variant must be refused up front
    cfg = Example1Config(steps=60, paths=600, seed=5, spike_count=4,
                         sample_times=3, sample_paths=20, convexity_pairs=60,
                         drift_gain=0.25)
    with pytest.raises(ValueError, match="drift_gain"):
        run_example1(cfg)


def test_run_example2_small_scale_report():
    cfg = Example2Config(steps=40, paths=1000, seed=30303, sweeps=2,
                         duality_t0=0.25, duality_eps=0.1)
    result = run_example2(cfg)
    report = result.report
    assert report.scenario == "example2"
    assert report.passed
    names = [a.name for a in report.assertions]
    assert names == ["cost_nonincreasing", "stationarity_residual_decreases",
                     "duality_within_3se"]
    costs = [s.cost.mean for s in result.sweeps]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    residuals = [s.residual for s in result.sweeps]
    assert residuals[-1] < residuals[0]
    assert result.duality is not None
    assert result.duality.within(3.0)


def test_run_example2_duality_with_huge_se_is_inconclusive():
    # 3*(SE_L + SE_R) = 0.80 against lhs = 0.62: the difference 0.20 sat
    # inside it, but agreement within 3 SE would say nothing
    result = run_example2(Example2Config(steps=20, paths=70, sweeps=1,
                                         alpha_slope=200.0))
    verdict = {a.name: a for a in result.report.assertions}[
        "duality_within_3se"]
    assert result.duality.within(3.0)
    assert not verdict.passed
    assert verdict.detail.startswith("inconclusive"), verdict.detail


def test_example2_sweep_records_fresh_policy_controls():
    cfg = Example2Config(steps=20, paths=300, seed=8, sweeps=1,
                         run_duality=False)
    result = run_example2(cfg)
    sweep = result.sweeps[1]
    trajectories = sweep.adjoint.trajectories
    policy = trajectories.policy
    assert isinstance(policy, FeedbackPolicy)
    # finished sweeps release their record
    assert trajectories.recorded is None
    again = integrate_forward(result.problem, policy, trajectories.bundle,
                              np.asarray(cfg.x0))
    assert np.array_equal(again.states, trajectories.states)
    times = result.grid.times
    for k in range(result.grid.steps):
        fresh = policy.controls_at(k, times[k], again.states[:, k, :])
        assert np.array_equal(again.recorded[k], fresh), k


def test_run_example2_evaluates_each_policy_once_per_step(monkeypatch):
    steps, sweeps = 20, 3
    calls = []
    controls_at = FeedbackPolicy.controls_at

    def counted_controls_at(self, k, t, states):
        calls.append(k)
        return controls_at(self, k, t, states)

    roots = []

    def counted_sqrt(c, *args, **kwargs):
        roots.append(np.array(c))
        return hilbert.psd_sqrt(c, *args, **kwargs)

    monkeypatch.setattr(FeedbackPolicy, "controls_at", counted_controls_at)
    for module in (martingale, adjoint, pmp):
        if hasattr(module, "psd_sqrt"):
            monkeypatch.setattr(module, "psd_sqrt", counted_sqrt)
    run_example2(Example2Config(steps=steps, paths=300, sweeps=sweeps))
    # sweep s integrates once through its policy, whose every call walks
    # back through the s - 1 feedback policies before it (sweep 0 is open
    # loop); cost, adjoint and residual read the recorded controls
    assert len(calls) == steps * sweeps * (sweeps + 1) // 2
    # one root per distinct grid time of the one driver
    assert 0 < len(roots) <= steps
    assert len({r.tobytes() for r in roots}) == len(roots)


def test_stationarity_residual_near_zero_at_fitted_optimum():
    # after policy improvement the residual C^T Y + R u collapses
    cfg = Example2Config(steps=40, paths=1500, seed=21, sweeps=3,
                         run_duality=False)
    result = run_example2(cfg)
    res = [s.residual for s in result.sweeps]
    assert res[-1] < 0.05 * res[0]


def test_build_example2_rejects_asymmetric_weights():
    cfg = Example2Config(p_weight=((0.5, 0.1), (0.0, 0.5)))
    with pytest.raises(ValueError, match="symmetric"):
        build_example2_problem(cfg)
