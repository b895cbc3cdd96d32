"""Optimality checks, spike experiments, and the two packaged scenarios."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from martctrl import pmp
from martctrl.adjoint import (RegressionBasis, duality_check, hamiltonian,
                              solve_adjoint_explicit, solve_adjoint_lsmc)
from martctrl.dynamics import (BallSet, BlowUpError, BoxSet, FeedbackPolicy,
                               FiniteSet, FirstVariation, OpenLoopPolicy,
                               SpikeSpec, apply_spike, evaluate_cost,
                               integrate_forward, integrate_variational,
                               spiked_costs, stream_spiked)
from martctrl.martingale import (PathGrid, mean_se, sample_increments,
                                 step_major)
from martctrl.pmp import (FAR_THRESHOLD, Example1Config, Example2Config,
                          build_example1_problem, build_example2_problem,
                          default_spike_family, example1_analytic_cost,
                          gateaux_check, necessary_check, rate_experiments,
                          run_example1, run_example2, stationarity_residual,
                          sufficient_check)
from test_adjoint import undeclared
from test_dynamics import noiseless_problem


def gateaux_verdicts(rep):
    """The ``within_3se`` verdict on each entry, as the gateaux scenario
    asserts it."""
    return [pmp.within_3se(f"eps_{e.eps:g}", e.mean_diff, e.se_diff,
                           rep.adjoint_value, "adjoint", "", tol=e.tol)
            for e in rep.entries]


def candidate_for(cfg, policy=None):
    """Scenario-1 problem and trajectories of ``policy`` (default u*)."""
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    pol = policy if policy is not None else OpenLoopPolicy(u_star)
    traj = integrate_forward(problem, pol, bundle, np.asarray(cfg.x0))
    return problem, driver, grid, u_star, bundle, traj


def adjoint_for(cfg, policy=None):
    """As ``candidate_for``, with the explicit adjoint in place of the
    trajectories it was solved along."""
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg, policy)
    return (problem, driver, grid, u_star, bundle,
            solve_adjoint_explicit(problem, traj))


def test_example1_closed_form_constants():
    cfg = Example1Config()
    problem, driver, grid, u_star = build_example1_problem(cfg)
    c = np.asarray(Example1Config().c)
    f_tilde = np.asarray(Example1Config().f_tilde)
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
    rep = necessary_check(problem, adj, sample_times=5,
                          sample_paths=10, points_per_dim=5)
    assert rep.passed
    expected = np.sum((rep.probes - u_star) ** 2, axis=1)
    assert np.allclose(rep.margins, expected[None, None, :], atol=1e-10)
    assert rep.min_margin >= -1e-8
    assert rep.margins.shape == (5, 10, rep.probes.shape[0])


def test_necessary_check_flags_suboptimal_candidate():
    cfg = Example1Config(steps=50, paths=60, seed=11)
    zero_pol = OpenLoopPolicy(np.zeros(2))
    problem, driver, grid, u_star, bundle, adj = adjoint_for(
        cfg, policy=zero_pol)
    rep = necessary_check(problem, adj, sample_times=5,
                          sample_paths=10, points_per_dim=11)
    assert not rep.passed
    # the minimum sits at the probe closest to u*, with value -|u*|^2
    assert rep.min_margin == pytest.approx(-0.125, abs=1e-10)
    t_w, path_w, v_w = rep.witness
    assert 0.0 <= t_w <= cfg.horizon
    assert isinstance(path_w, int)
    assert np.allclose(v_w, u_star)
    assert rep.frac_negative > 0.0


def test_necessary_check_reads_the_recorded_controls():
    # the margins compare probes with the controls the candidate applied,
    # read off its record, so a feedback candidate's policy is not called
    calls = []

    def fn(t, x):
        calls.append(t)
        return np.broadcast_to(np.array([-0.35, -0.05]), (x.shape[0], 2))

    cfg = Example1Config(steps=50, paths=60, seed=11)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(
        cfg, policy=FeedbackPolicy(fn=fn))
    assert len(calls) == grid.steps
    rep = necessary_check(problem, adj, sample_times=5, sample_paths=10,
                          points_per_dim=5)
    assert len(calls) == grid.steps
    expected = np.sum((rep.probes - u_star) ** 2, axis=1)
    assert np.allclose(rep.margins, expected[None, None, :], atol=1e-10)


def test_necessary_check_margins_equal_full_hamiltonian_gaps():
    # on the regression adjoint Z != 0, yet the Z term of H does not see
    # the control, so the margins read without it equal the full
    # H(v) - H(u*) up to roundoff
    cfg = Example2Config(steps=20, paths=400, seed=9)
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    traj = integrate_forward(problem, OpenLoopPolicy(np.zeros(2)), bundle,
                             np.asarray(cfg.x0))
    adj = solve_adjoint_lsmc(problem, traj, basis=RegressionBasis(1))
    rep = necessary_check(problem, adj, sample_times=4,
                          sample_paths=10, points_per_dim=5)
    full = np.empty_like(rep.margins)
    z_term = 0.0
    for i, t in enumerate(rep.times):
        k = grid.index_of(t)
        xs = traj.states[rep.path_indices, k]
        ys = adj.y_at(k)[rep.path_indices]
        zs = adj.z_at(k, states=xs)
        us = traj.control_at(k)[rep.path_indices]
        factor = driver.cov_rate_factor(t)
        h_star = hamiltonian(problem, factor, t, xs, us, ys, zs)
        z_term = max(z_term, float(np.max(np.abs(
            h_star - hamiltonian(problem, factor, t, xs, us, ys,
                                 np.zeros_like(zs))))))
        for j, v in enumerate(rep.probes):
            vs = np.broadcast_to(v, us.shape)
            full[i, :, j] = hamiltonian(problem, factor, t, xs, vs, ys,
                                        zs) - h_star
    assert z_term > 1e-3
    assert np.max(np.abs(rep.margins - full)) \
        <= 1e-12 * np.max(np.abs(full))


def test_necessary_check_evaluates_no_diffusion():

    def refuse(*args):
        raise AssertionError("the minimum condition read the diffusion")

    cfg = Example1Config(steps=20, paths=30, seed=2)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    blind = dataclasses.replace(problem, G=refuse, G_x=refuse)
    opts = dict(sample_times=3, sample_paths=5, points_per_dim=3)
    rep = necessary_check(blind, adj, **opts)
    assert rep.passed
    assert np.array_equal(rep.margins,
                          necessary_check(problem, adj, **opts).margins)


def test_sufficient_check_passes_on_convex_problem():
    cfg = Example1Config(steps=50, paths=60, seed=13)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    rep = sufficient_check(problem, adj, pairs=300)
    assert rep.applicable
    assert rep.terminal_passed
    assert rep.terminal_violation <= 1e-10
    assert rep.joint_passed
    assert rep.overall
    assert rep.margin_report is not None


def test_sufficient_check_fails_on_concave_running_cost():
    cfg = Example1Config(steps=50, paths=60, seed=13)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    concave = dataclasses.replace(
        problem,
        ell=lambda t, x, u: -np.einsum("pi,pi->p", u, u),
        ell_u=lambda t, x, u: -2.0 * u)
    rep = sufficient_check(concave, adj, pairs=1000)
    assert rep.applicable
    assert not rep.joint_passed
    assert not rep.overall
    assert rep.joint_violation > 1e-10
    assert rep.joint_witness is not None


def test_sufficient_check_inapplicable_for_finite_control_set():
    cfg = Example1Config(steps=20, paths=30, seed=5)
    problem, driver, grid, u_star, bundle, adj = adjoint_for(cfg)
    finite = dataclasses.replace(
        problem, control_set=FiniteSet(points=np.array([[0.0, 0.0],
                                                        [1.0, 1.0]])))
    rep = sufficient_check(finite, adj, pairs=10)
    assert not rep.applicable
    assert "not convex" in rep.note
    assert not rep.overall


# no shrink phase: each failing example keeps megabytes of paths alive
# through its traceback, and shrinking retries hundreds of them
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_finite_control_set_meets_its_exact_oracle(data):
    # the paper's control domain need not be convex.  With linear drift
    # Y = c and Z = 0, so over a finite U the problem separates per step:
    # the optimal control is the constant v* minimizing
    # g(v) = |v|^2 + <F~^T c, v>, and J(v) = <c, x0> + T g(v) exactly
    cfg = Example1Config(steps=50, paths=2000, seed=8)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    coord = st.floats(-1.5, 1.5, allow_nan=False)
    points = data.draw(st.lists(st.tuples(coord, coord), min_size=3,
                                max_size=5, unique=True), label="points")
    if data.draw(st.booleans(), label="with u*"):
        points[0] = tuple(u_star)
    points = np.array(points)
    c = np.asarray(Example1Config().c)
    ftc = np.asarray(Example1Config().f_tilde).T @ c
    g = np.sum(points ** 2, axis=1) + points @ ftc
    # distinct values of g: a unique v* and no two points to confuse
    assume(np.min(np.diff(np.sort(g))) > 1e-6)
    best = int(np.argmin(g))
    finite = dataclasses.replace(problem, control_set=FiniteSet(points))
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)
    for i, v in enumerate(points):
        traj = integrate_forward(finite, OpenLoopPolicy(v), bundle, x0)
        rep = necessary_check(finite, solve_adjoint_explicit(finite, traj))
        if i == best:
            assert rep.passed
        else:
            assert not rep.passed
            assert rep.min_margin == pytest.approx(g[best] - g[i], abs=1e-12)
            assert np.array_equal(rep.witness[2], points[best])
        cost = evaluate_cost(finite, traj)
        exact = float(c @ x0) + cfg.horizon * g[i]
        assert abs(cost.mean - exact) <= 3.0 * cost.stderr


# no shrink phase, as above
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_finite_control_set_spikes_meet_their_oracle(data):
    # the spike half of the oracle above: with Y = c and Z = 0 a spike to
    # v on the constant base w moves the expected cost by eps (g(v) - g(w)),
    # and g(v) - g(u*) = |v - u*|^2.  So no spike from u* to another point
    # of U pays, and from any other point the spike back to u* does
    cfg = Example1Config(steps=50, paths=2000, seed=8)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    coord = st.floats(-1.5, 1.5, allow_nan=False)
    others = data.draw(st.lists(st.tuples(coord, coord), min_size=2,
                                max_size=4, unique=True), label="others")
    points = np.array([u_star, *others])
    # the gap eps |v - u*|^2 outgrows its SE, which grows like |v - u*|,
    # only away from u*
    assume(np.min(np.linalg.norm(points[1:] - u_star, axis=1)) > 0.1)
    finite = dataclasses.replace(problem, control_set=FiniteSet(points))
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    x0 = np.asarray(cfg.x0)

    def gaps(w, targets):
        traj = integrate_forward(finite, OpenLoopPolicy(w), bundle, x0)
        cost, spiked = spiked_costs(
            finite, traj, [SpikeSpec(t0=0.3, eps=0.1, v=v) for v in targets])
        return [mean_se(c.per_path - cost.per_path) for c in spiked]

    for gap, se in gaps(u_star, points[1:]):
        assert gap >= -3.0 * se
    for w in points[1:]:
        [(gap, se)] = gaps(w, [u_star])
        assert gap < -3.0 * se


def test_gateaux_check_agreement_and_fault_detection():
    # steps must make every eps in the list a whole number of grid cells
    cfg = Example1Config(steps=200, paths=4000, seed=31)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    spec = SpikeSpec(t0=0.3, eps=0.05, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    rep = gateaux_check(problem, p, eps_list=(0.05, 0.025))
    assert len(rep.entries) == 2
    assert all(v.passed for v in gateaux_verdicts(rep))
    for entry in rep.entries:
        assert abs(entry.fd_quotient - rep.adjoint_value) <= entry.tol
    # doubled first variation must be flagged, by the difference itself
    # and not by an SE too large to judge
    wrong = dataclasses.replace(p, states=2.0 * p.states)
    bad = gateaux_check(problem, wrong, eps_list=(0.05, 0.025))
    for verdict in gateaux_verdicts(bad):
        assert not verdict.passed
        assert not verdict.detail.startswith("inconclusive"), verdict.detail


def test_gateaux_check_with_huge_se_is_inconclusive():
    # zero-mean noise of +-50 on zeta(T) leaves the mean difference where
    # it was, inside the tolerance, but 3 SE(diff) then dwarfs the value
    cfg = Example1Config(steps=80, paths=300, seed=37)
    problem, driver, grid, u_star, bundle, traj = candidate_for(cfg)
    spec = SpikeSpec(t0=0.3, eps=0.05, v=np.array([0.65, 0.45]))
    p = integrate_variational(problem, traj, spec)
    assert all(v.passed for v in gateaux_verdicts(gateaux_check(problem, p)))
    zeta = p.zeta.copy()
    zeta[:, -1] += 50.0 * (-1.0) ** np.arange(cfg.paths)
    noisy = gateaux_check(problem, dataclasses.replace(p, zeta=zeta))
    for entry, verdict in zip(noisy.entries, gateaux_verdicts(noisy)):
        assert abs(entry.mean_diff) <= entry.tol
        assert 3.0 * entry.se_diff > 0.5 * max(1.0, abs(noisy.adjoint_value))
        assert not verdict.passed
        assert verdict.detail.startswith("inconclusive"), verdict.detail


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
    base_cost, costs = spiked_costs(
        problem, traj, [SpikeSpec(t0=0.5, eps=eps, v=v) for eps in eps_list])
    for entry, eps, spiked in zip(rep.entries, eps_list, costs):
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


def test_rate_ladder_block_that_blows_up_reruns_each_spike_alone():
    # the ladder's two spikes run as one block, and the shorter one blows
    # up first; the error is the one the first spike of the ladder raises
    # alone, as when each spike ran on its own, not a row of the block
    def drift(t, x, u):
        # back on the base control u = 0 away from the base state 0
        return np.where((u == 0.0) & (x > 0.0), np.inf, u)

    problem, policy, bundle = noiseless_problem(drift, paths=2, steps=10)
    base = integrate_forward(problem, policy, bundle, np.zeros(1))
    spike = SpikeSpec(t0=0.2, eps=0.4, v=np.ones(1))
    p = FirstVariation(states=np.zeros((2, 2, 1)), zeta=np.zeros((2, 2)),
                       optimal=base, spike=spike)
    with np.errstate(invalid="ignore"):
        with pytest.raises(BlowUpError) as alone:
            stream_spiked(problem, base, [spike], lambda rows: ())
        with pytest.raises(BlowUpError) as ladder:
            rate_experiments(problem, p, eps_ladder=(0.4, 0.2))
    assert (alone.value.path, alone.value.step) == (0, 7)
    assert (ladder.value.path, ladder.value.step, ladder.value.time) \
        == (alone.value.path, alone.value.step, alone.value.time)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), paths=st.integers(1, 6), points=st.integers(1, 6),
       n=st.integers(1, 4), layout=st.sampled_from(["step-major",
                                                    "path-major"]))
def test_state_box_matches_the_reduction_over_paths_and_steps(
        data, paths, points, n, layout):
    # folding each step's states in as a rider's x_next, after the first
    # step's x, then reducing over paths, gives the box of min/max over
    # axes (0, 1), specials included
    values = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0]),
                       st.floats(width=64))
    states = data.draw(arrays(np.float64, (paths, points, n),
                              elements=values), label="states")
    if layout == "step-major":
        states = step_major(states)
    with np.errstate(invalid="ignore"):
        box = pmp.StateBox()
        for k in range(points):
            box.visit(k, states[:, 0, :], None, states[:, k, :], None)
        lo, hi = box.bounds()
        low, high = states.min(axis=(0, 1)), states.max(axis=(0, 1))
        pad = 0.5 * np.maximum(high - low, 1.0)
    np.testing.assert_array_equal(lo, low - pad)
    np.testing.assert_array_equal(hi, high + pad)


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 7, 13, 100, 401])
def test_default_spike_family_layout(steps):
    # every start step and width fits the grid, the smallest ones included
    cfg = Example1Config(steps=steps, paths=10, seed=1)
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


@pytest.mark.parametrize("control_set", [
    FiniteSet(points=np.array([[0.0, 0.0], [1.0, 1.0]])),
    BallSet(center=np.array([0.1, -0.2]), radius=0.5),
    BoxSet(lower=np.array([-0.1, -0.3]), upper=np.array([0.2, 0.4]))],
    ids=["finite", "ball", "box"])
def test_default_spike_family_stays_in_any_control_set(control_set):
    grid = PathGrid(horizon=1.0, steps=100)
    # the stationary value lies outside each set
    u_star = np.array([0.4, 0.6])
    specs = default_spike_family(grid, u_star, control_set, count=20)
    assert len(specs) == 20
    assert all(control_set.contains(s.v) for s in specs)


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
                         schedule=(0.0, 0.0))
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
    duality = result.duality
    assert pmp.within_3se("duality", duality.difference,
                          duality.se_lhs + duality.se_rhs, duality.lhs,
                          "lhs", "").passed
    assert report.sections["duality"]["se_diff"] == result.duality.se_diff
    assert result.duality.se_diff < (result.duality.se_lhs
                                     + result.duality.se_rhs)


def test_run_example2_duality_with_huge_se_is_inconclusive():
    # 3*(SE_L + SE_R) = 0.80 against lhs = 0.62: the difference 0.20 sat
    # inside it, but agreement within 3 SE would say nothing
    result = run_example2(Example2Config(steps=20, paths=70, sweeps=1,
                                         alpha_slope=200.0))
    verdict = {a.name: a for a in result.report.assertions}[
        "duality_within_3se"]
    duality = result.duality
    assert abs(duality.difference) <= 3.0 * (duality.se_lhs + duality.se_rhs)
    assert not verdict.passed
    assert verdict.detail.startswith("inconclusive"), verdict.detail


def test_run_example2_cost_nonincreasing_with_huge_se_is_inconclusive():
    # every sweep difference has 3 SE above half of max(1, |earlier cost|):
    # dJ <= 2 SE held, but it would say nothing
    result = run_example2(Example2Config(gamma=(3.5, 0.0), steps=20,
                                         paths=100, basis_degree=1,
                                         run_duality=False))
    verdict = {a.name: a for a in result.report.assertions}[
        "cost_nonincreasing"]
    assert not verdict.passed
    assert verdict.detail.startswith("inconclusive"), verdict.detail
    assert "at sweep 1, 2, 3;" in verdict.detail


@pytest.mark.xfail(strict=True, reason=(
    "the policy-improvement step is fitted in sample and near its fixed "
    "point can raise the cost; the one-sided 2-SE gate counts path noise "
    "only, not the noise of fitting the policy (sweep 3 reads dJ = +5.5e-4 "
    "against SE 1.2e-4)"))
def test_example2_sweeps_at_seed_30348_do_not_raise_the_cost():
    # the lsmc-sweeps benchmark workload at its seed 45: 5 of the benchmark
    # seeds 0-399 fail this gate, and an oracle gate should pass them all
    cfg = Example2Config(steps=40, paths=4000, seed=30348, basis_degree=2,
                         sweeps=3, run_duality=True)
    verdict = {a.name: a for a in run_example2(cfg).report.assertions}[
        "cost_nonincreasing"]
    assert verdict.passed, verdict.detail


def test_example2_sweep_records_fresh_policy_controls():
    cfg = Example2Config(steps=20, paths=300, seed=8, sweeps=1,
                         run_duality=False)
    result = run_example2(cfg)
    trajectories = result.adjoint.trajectories
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

    monkeypatch.setattr(FeedbackPolicy, "controls_at", counted_controls_at)
    run_example2(Example2Config(steps=steps, paths=300, sweeps=sweeps))
    # sweep s integrates once through its policy (sweep 0 is open loop);
    # example2 declares grad_x_ignores_u, so the fitted Y the policy reads
    # needs no control and no call walks back through the policies before
    # it; cost, adjoint and residual read the recorded controls
    assert len(calls) == steps * sweeps


def test_undeclared_example2_walks_the_chain_bit_for_bit(monkeypatch):
    # a copy of example2 that declares nothing: a plain-lambda G takes the
    # generic Gamma loop, and without grad_x_ignores_u every fitted Y reads
    # the policy of its sweep, which walks back through the s - 1 feedback
    # policies before it; the numbers are those recorded before either
    # declaration existed (numpy 2.4, OpenBLAS 0.3.31, as tests/test_golden)
    steps, sweeps = 20, 3
    build = pmp.build_example2_problem

    def build_undeclared(cfg):
        problem, driver, grid = build(cfg)
        return undeclared(problem), driver, grid

    calls = []
    controls_at = FeedbackPolicy.controls_at

    def counted_controls_at(self, k, t, states):
        calls.append(k)
        return controls_at(self, k, t, states)

    monkeypatch.setattr(pmp, "build_example2_problem", build_undeclared)
    monkeypatch.setattr(FeedbackPolicy, "controls_at", counted_controls_at)
    result = run_example2(Example2Config(steps=steps, paths=300,
                                         sweeps=sweeps))
    assert len(calls) == steps * sweeps * (sweeps + 1) // 2
    assert [s.cost.mean for s in result.sweeps] == [
        0.4694735471405941, 0.40635928693788964, 0.3488349097981356,
        0.3433164999412472]
    assert [s.residual for s in result.sweeps] == [
        0.6277315547236536, 0.38120032511843044, 0.10817235176104786,
        0.028916562497931893]
    assert (result.duality.lhs, result.duality.rhs) == (
        0.11663667766292204, 0.1151740273767514)
    assert result.adjoint.n_residual_ratio == 0.03253733190322413


def example2_first_sweep(cfg):
    """Sweep 0 of ``run_example2(cfg)`` recomputed through the public API:
    the problem and the LSMC adjoint along the run under the zero control."""
    problem, driver, grid = build_example2_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    trajectories = integrate_forward(
        problem, OpenLoopPolicy(np.zeros(cfg.control_dim)), bundle,
        np.asarray(cfg.x0, dtype=float))
    return problem, solve_adjoint_lsmc(
        problem, trajectories, basis=RegressionBasis(degree=cfg.basis_degree))


def test_example2_frees_every_sweep_but_the_last(monkeypatch):
    # the duality check runs on sweep 0 as it finishes and each improved
    # policy keeps only the fitted regression of the sweep before it, so
    # only the last sweep's states and Y, which the result reports, outlive
    # their sweep
    states, ys = [], []
    forward, solve = pmp.integrate_forward, pmp.solve_adjoint_lsmc

    def tracked_forward(*args, **kwargs):
        trajectories = forward(*args, **kwargs)
        states.append(weakref.ref(trajectories.states))
        return trajectories

    def tracked_solve(*args, **kwargs):
        adjoint = solve(*args, **kwargs)
        ys.append(weakref.ref(adjoint.Y))
        return adjoint

    monkeypatch.setattr(pmp, "integrate_forward", tracked_forward)
    monkeypatch.setattr(pmp, "solve_adjoint_lsmc", tracked_solve)
    result = run_example2(Example2Config(steps=20, paths=300, sweeps=3))
    gc.collect()
    for refs in (states, ys):
        assert [ref() is not None for ref in refs] == [False, False, False,
                                                       True]
    assert result.adjoint.Y is ys[-1]()
    assert result.adjoint.trajectories.states is states[-1]()
    assert not any(hasattr(s, "adjoint") for s in result.sweeps)


PEAK_CFG = Example2Config(steps=40, paths=2000)
# one sweep's paths there: its states and its Y
ONE_SWEEP = 2 * PEAK_CFG.paths * (PEAK_CFG.steps + 1) * PEAK_CFG.state_dim * 8
# the controls a feedback sweep records there (open-loop ones are views)
FEEDBACK_CONTROLS = PEAK_CFG.paths * PEAK_CFG.steps * PEAK_CFG.control_dim * 8


def example2_traced_peak(sweeps):
    """tracemalloc peak of ``run_example2`` on ``PEAK_CFG`` with ``sweeps``."""
    tracemalloc.start()
    try:
        run_example2(dataclasses.replace(PEAK_CFG, sweeps=sweeps))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_example2_peak_memory_does_not_grow_with_the_sweeps():
    # with the sweeps between the first and the last freed, two more
    # sweeps add less than half of one sweep's paths to the traced peak,
    # where two more sweeps that kept their paths would add about two
    assert example2_traced_peak(3) < example2_traced_peak(1) + 0.5 * ONE_SWEEP


def test_example2_first_sweep_dies_before_the_second_runs():
    # sweep 0's duality check runs as it finishes, so sweep 1 runs beside
    # sweep 0's fitted regression only: it adds its own recorded controls
    # and less than half of one sweep's paths, where sweep 0's paths kept
    # to the end add one more sweep.  The 1-sweep run goes first, so the
    # 0-sweep run does not carry the one-time allocations of a first run
    assert example2_traced_peak(1) < (example2_traced_peak(0)
                                      + FEEDBACK_CONTROLS + 0.5 * ONE_SWEEP)


def test_example2_duality_is_sweep_0s():
    cfg = Example2Config(steps=20, paths=300, seed=11, sweeps=2)
    result = run_example2(cfg)
    problem, first = example2_first_sweep(cfg)
    spec = SpikeSpec(t0=cfg.duality_t0, eps=cfg.duality_eps,
                     v=np.asarray(cfg.duality_v, dtype=float))
    assert result.duality == duality_check(
        first, integrate_variational(problem, first.trajectories, spec))


def test_example2_bad_duality_window_raises_before_sampling(monkeypatch):
    # a library call skips the CLI's parse-time window check: the window
    # past the horizon raises before any noise is drawn or sweep runs
    calls = []
    sample = pmp.sample_increments

    def counted_sample(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(pmp, "sample_increments", counted_sample)
    with pytest.raises(ValueError, match="past the horizon"):
        run_example2(Example2Config(steps=20, paths=300, duality_t0=0.95,
                                    duality_eps=0.1))
    assert calls == []


def test_stationarity_residual_near_zero_at_fitted_optimum():
    # after policy improvement the residual C^T Y + R u collapses
    cfg = Example2Config(steps=40, paths=1500, seed=21, sweeps=3,
                         run_duality=False)
    result = run_example2(cfg)
    res = [s.residual for s in result.sweeps]
    assert res[-1] < 0.05 * res[0]


def test_stationarity_residual_reads_a_per_path_f_u():
    # no packaged problem has a (P, n, m) F_u; give example2 one that
    # varies with the state and compare with a plain einsum of F_u^T Y
    cfg = Example2Config(steps=10, paths=300, seed=23)
    problem, driver, grid = build_example2_problem(cfg)
    c_op = np.asarray(cfg.c_op, dtype=float).reshape(cfg.state_dim,
                                                     cfg.control_dim)

    def f_u(t, x, u):
        return (1.0 + x[:, :1, None]) * c_op

    problem = dataclasses.replace(problem, F_u=f_u)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    traj = integrate_forward(problem,
                             OpenLoopPolicy(np.zeros(2)),
                             bundle, np.asarray(cfg.x0))
    adj = solve_adjoint_lsmc(problem, traj, basis=RegressionBasis(1))
    squares = []
    for k in range(grid.steps):
        t, xk, uk = grid.times[k], traj.states[:, k], traj.control_at(k)
        resid = problem.ell_u(t, xk, uk) \
            + np.einsum("pnm,pn->pm", f_u(t, xk, uk), adj.y_at(k))
        squares.append(np.sum(resid ** 2, axis=1))
    reference = float(np.sqrt(np.mean(squares)))
    assert reference > 0.0
    assert stationarity_residual(problem, adj) == pytest.approx(reference,
                                                                rel=1e-12)


def test_build_example2_rejects_asymmetric_weights():
    cfg = Example2Config(p_weight=((0.5, 0.1), (0.0, 0.5)))
    with pytest.raises(ValueError, match="symmetric"):
        build_example2_problem(cfg)
