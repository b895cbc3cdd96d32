"""Acceptance suite: one test per shipped acceptance criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a single pass/fail
line per criterion.  Every test runs at the stated scale and tolerance; the
slow fixtures (full 20 000-path scenario runs) are module-scoped so the
whole file stays inside the criterion-1 runtime budget.
"""

import dataclasses
import textwrap
import time

import numpy as np
import pytest

from martctrl.adjoint import duality_check
from martctrl.cli import EXIT_OK, parse_config, run
from martctrl.dynamics import (OpenLoopPolicy, SpikeSpec, finite_diff_check,
                               integrate_forward, integrate_variational,
                               sample_controls)
from martctrl.martingale import sample_increments, verify_isometry
from martctrl.pmp import (Example1Config, Example2Config,
                          build_example1_problem, build_example2_problem,
                          gateaux_check, rate_experiments, run_example1,
                          run_example2, sufficient_check, within_3se)
from test_pmp import gateaux_verdicts


# ---------------------------------------------------------------------------
# Module-scoped full-scale runs shared across criteria.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def example1_full():
    tic = time.perf_counter()
    result = run_example1(Example1Config())
    wall = time.perf_counter() - tic
    return result, wall


@pytest.fixture(scope="module")
def example2_full():
    return run_example2(Example2Config())


def stationary_candidate(drift_gain, seed):
    """Scenario-1 stationary trajectories at full 20 000-path scale."""
    cfg = Example1Config(steps=400, paths=20000, seed=seed,
                         drift_gain=drift_gain)
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    policy = OpenLoopPolicy(u_star)
    traj = integrate_forward(problem, policy, bundle,
                             np.asarray(cfg.x0, dtype=float))
    return problem, driver, grid, u_star, traj


@pytest.fixture(scope="module")
def linear_candidate_20k():
    return stationary_candidate(drift_gain=0.0, seed=31415)


# ---------------------------------------------------------------------------
# Criteria 1-4: the closed-form scenario at its default full scale.
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_cost_within_3se(example1_full):
    result, wall = example1_full
    assert result.cost.per_path.shape[0] == 20000
    delta = abs(result.cost.mean - result.analytic_cost)
    assert result.analytic_cost == pytest.approx(0.55, abs=1e-12)
    assert delta <= 3.0 * result.cost.stderr, \
        f"|{result.cost.mean} - 0.55| = {delta} > 3*SE = {3 * result.cost.stderr}"
    assert wall < 120.0, f"scenario run took {wall:.1f}s (budget 120s)"


def test_criterion_02_spike_costs_dominate(example1_full):
    result, _ = example1_full
    spikes = result.spikes
    assert len(spikes) >= 20
    assert all(s.gap >= -3.0 * s.se for s in spikes), \
        "a spiked control undercut the candidate by more than 3 SE"
    far = [s for s in spikes if s.far]
    assert far, "spike family contains no displaced specs"
    frac = np.mean([s.gap > s.se for s in far])
    assert frac >= 0.9, \
        f"only {frac:.0%} of displaced spikes exceed the candidate by 1 SE"


def test_criterion_03_necessary_margins_nonnegative(example1_full):
    result, _ = example1_full
    rep = result.margin_report
    # 11 probe points per control dimension, 20 sampled times, 100 paths
    assert rep.margins.shape == (20, 100, 121)
    assert rep.min_margin >= -1e-8, \
        f"min Hamiltonian margin {rep.min_margin} < -1e-8"
    assert rep.passed


def test_criterion_04_sufficiency_and_concave_fault(example1_full):
    result, _ = example1_full
    rep = result.sufficiency
    assert rep.pairs == 1000
    assert rep.applicable
    assert rep.terminal_passed
    assert rep.joint_passed
    assert rep.overall
    concave = dataclasses.replace(
        result.problem,
        ell=lambda t, x, u: -np.einsum("pi,pi->p", u, u),
        ell_u=lambda t, x, u: -2.0 * u)
    bad = sufficient_check(concave, result.adjoint, pairs=1000, seed=404)
    assert bad.applicable
    assert not bad.joint_passed, \
        "midpoint probing missed the concave running cost"
    assert not bad.overall


# ---------------------------------------------------------------------------
# Criterion 5: difference quotient vs first-variation value, both drifts.
# ---------------------------------------------------------------------------

def test_criterion_05_gateaux_identity_linear_and_tanh(linear_candidate_20k):
    spec = SpikeSpec(t0=0.3, eps=0.025, v=np.array([0.65, 0.45]))

    problem, _, _, _, traj = linear_candidate_20k
    rep = gateaux_check(problem, integrate_variational(problem, traj, spec),
                        eps_list=(0.025,), bias_fraction=0.1)
    entry = rep.entries[0]
    verdict, = gateaux_verdicts(rep)
    assert verdict.passed, \
        (f"linear drift: |fd - adjoint| = {abs(entry.mean_diff):.3e} "
         f"> tol {entry.tol:.3e} {verdict.detail}")

    problem_t, _, _, _, traj_t = stationary_candidate(drift_gain=0.25,
                                                      seed=31415)
    rep_t = gateaux_check(problem_t,
                          integrate_variational(problem_t, traj_t, spec),
                          eps_list=(0.025,), bias_fraction=0.1)
    entry_t = rep_t.entries[0]
    verdict_t, = gateaux_verdicts(rep_t)
    assert verdict_t.passed, \
        (f"tanh drift: |fd - adjoint| = {abs(entry_t.mean_diff):.3e} "
         f"> tol {entry_t.tol:.3e} {verdict_t.detail}")


# ---------------------------------------------------------------------------
# Criterion 6: spike-remainder decay on the fixed eps ladder, 20 000 paths.
# ---------------------------------------------------------------------------

def test_criterion_06_spike_rates_ladder(linear_candidate_20k):
    problem, _, _, _, traj = linear_candidate_20k
    assert traj.paths == 20000
    p = integrate_variational(
        problem, traj, SpikeSpec(t0=0.25, eps=0.2, v=np.array([0.65, 0.45])))
    rep = rate_experiments(problem, p, eps_ladder=(0.2, 0.1, 0.05, 0.025))
    assert rep.slope >= 1.5, f"sup-gap log-log slope {rep.slope:.3f} < 1.5"
    assert np.all(np.diff(rep.exi) < 0.0), \
        f"remainder ladder not strictly decreasing: {rep.exi}"
    assert rep.exi[-1] < 0.25 * rep.exi[0], \
        f"final remainder {rep.exi[-1]:.3e} >= 1/4 of {rep.exi[0]:.3e}"


# ---------------------------------------------------------------------------
# Criterion 7: stochastic-integral isometry against exact quadrature.
# ---------------------------------------------------------------------------

def test_criterion_07_isometry_quadrature():
    cfg = Example1Config(steps=400, paths=20000, seed=7071)
    _, driver, grid, _ = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    report = verify_isometry(np.eye(cfg.state_dim), bundle)
    # trapezoid quadrature is exact for the linear intensity 1 + t/2:
    # |beta|^2 (T + T^2/4) with |beta|^2 = 1.3125, T = 1
    assert report.quadrature_value == pytest.approx(1.640625, abs=1e-12)
    verdict = within_3se(
        "isometry", report.difference, report.mc_stderr,
        report.quadrature_value, "quadrature",
        f"MC {report.mc_estimate} vs quadrature {report.quadrature_value}, "
        f"3*SE = {3 * report.mc_stderr:.2e}")
    assert verdict.passed, verdict.detail


# ---------------------------------------------------------------------------
# Criterion 8: duality identity with both adjoint routes.
# ---------------------------------------------------------------------------

def test_criterion_08_duality_both_examples(example1_full, example2_full):
    result, _ = example1_full
    spec = SpikeSpec(t0=0.3, eps=0.1, v=np.array([0.65, 0.45]))
    p = integrate_variational(result.problem, result.adjoint.trajectories,
                              spec)
    explicit = duality_check(result.adjoint, p)
    # with the constant costate the right side is exact: <c, F~ (v - u*)>
    assert explicit.rhs == pytest.approx(0.75, abs=1e-10)
    assert explicit.se_rhs == 0.0
    lsmc = example2_full.duality
    assert lsmc is not None
    for route, rep in (("explicit", explicit), ("regression", lsmc)):
        se = rep.se_lhs + rep.se_rhs
        verdict = within_3se(
            "duality", rep.difference, se, rep.lhs, "lhs",
            f"{route}-adjoint duality gap {rep.difference:.3e} vs "
            f"3*(SE_L+SE_R) = {3 * se:.3e}")
        assert verdict.passed, verdict.detail


# ---------------------------------------------------------------------------
# Criterion 9: regression adjoint vs scalar closed form, plus policy sweeps.
# ---------------------------------------------------------------------------

def test_criterion_09_lsmc_scalar_oracle_and_sweeps():
    a, c_op, r, p1, d, f = -0.5, 1.0, 1.0, 0.5, 0.4, 0.1
    cfg = Example2Config(a=((a,),), c_op=((c_op,),), f=(f,), gamma=(0.0,),
                         g_tilde=((0.0,),), d=((d,),), p_weight=((0.0,),),
                         r_weight=((r,),), p1=((p1,),), x0=(1.0,),
                         beta=(1.0,), steps=50, paths=20000, seed=4242,
                         sweeps=3, run_duality=False)
    result = run_example2(cfg)
    first = result.sweeps[0]
    grid = result.grid
    horizon = cfg.horizon

    # closed-form conditional expectations under the zero initial policy:
    #   Y(t) = P1 e^{A(T-t)} (e^{A(T-t)} X(t) + g(t)),
    #   g(t) = f/A (e^{A(T-t)} - 1),  Z(t) = P1 e^{2A(T-t)} D
    y_num = y_den = z_num = z_den = 0.0
    for k in range(grid.steps + 1):
        tau = horizon - grid.times[k]
        xk = first.adjoint.trajectories.states[:, k, 0]
        g_t = f / a * (np.exp(a * tau) - 1.0)
        y_true = p1 * np.exp(a * tau) * (np.exp(a * tau) * xk + g_t)
        y_num += np.mean((first.adjoint.Y[:, k, 0] - y_true) ** 2)
        y_den += np.mean(y_true ** 2)
        if k < grid.steps:
            z_true = p1 * np.exp(2.0 * a * tau) * d
            z_num += np.mean((first.adjoint.z_at(k)[:, 0, 0] - z_true) ** 2)
            z_den += z_true ** 2
    y_rms = float(np.sqrt(y_num / y_den))
    z_rms = float(np.sqrt(z_num / z_den))
    assert y_rms < 0.05, f"costate RMS error {y_rms:.4f} >= 5%"
    assert z_rms < 0.10, f"noise-sensitivity RMS error {z_rms:.4f} >= 10%"

    res0 = result.sweeps[0].residual
    res3 = result.sweeps[3].residual
    assert res3 < 0.05 * res0, \
        f"stationarity residual {res0:.4e} -> {res3:.4e} not below 5%"


# ---------------------------------------------------------------------------
# Criterion 10: derivative contract on every packaged problem.
# ---------------------------------------------------------------------------

def packaged_problems():
    x0_1 = np.asarray(Example1Config().x0, dtype=float)
    x0_2 = np.asarray(Example2Config().x0, dtype=float)
    p1, _, _, _ = build_example1_problem(Example1Config())
    p1t, _, _, _ = build_example1_problem(Example1Config(drift_gain=0.25))
    p2, _, _ = build_example2_problem(Example2Config())
    return [(p1, x0_1), (p1t, x0_1), (p2, x0_2)]


def probe_points(problem, x0, rng, count=25):
    probes = []
    for t in np.linspace(0.0, 1.0, count):
        x = x0 + rng.standard_normal(x0.shape[0])
        u = sample_controls(problem.control_set, 1, rng)[0]
        probes.append((float(t), x, u))
    return probes


def test_criterion_10_derivative_contract():
    rng = np.random.default_rng(np.random.SeedSequence(entropy=99))
    for problem, x0 in packaged_problems():
        rep = finite_diff_check(problem, probe_points(problem, x0, rng),
                                tol=1e-4)
        assert rep.passed, \
            f"{problem.name}: flagged derivatives {rep.flagged}"
        assert max(rep.max_rel_error.values()) <= 1e-4

    # doctored gradients must be caught
    problem, x0 = packaged_problems()[0]
    orig_lx = problem.ell_x
    bad_ell = dataclasses.replace(
        problem, ell_x=lambda t, x, u: 1.5 * np.asarray(
            orig_lx(t, x, u), dtype=float) + 0.01)
    rep = finite_diff_check(bad_ell, probe_points(bad_ell, x0, rng), tol=1e-4)
    assert not rep.passed and "ell_x" in rep.flagged

    problem2, x02 = packaged_problems()[2]
    orig_hx = problem2.h_x
    bad_h = dataclasses.replace(
        problem2, h_x=lambda x: 1.5 * np.asarray(orig_hx(x), dtype=float)
        + 0.01)
    rep2 = finite_diff_check(bad_h, probe_points(bad_h, x02, rng), tol=1e-4)
    assert not rep2.passed and "h_x" in rep2.flagged


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical CSV artifacts across worker thread counts.
# ---------------------------------------------------------------------------

def test_criterion_11_thread_determinism(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(textwrap.dedent("""\
        [run]
        scenario = example1
        steps = 80
        paths = 2000
        dump_trajectories = 5

        [example1]
        spike_count = 6
        sample_times = 4
        sample_paths = 30
        convexity_pairs = 150
        """), encoding="utf-8")
    config = parse_config(ini)
    outs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        assert run(config, output_dir=out, threads=threads,
                   verbosity=0) == EXIT_OK
        outs[threads] = out
    names = sorted(p.name for p in outs[1].glob("*.csv"))
    assert names, "run emitted no CSV artifacts"
    for threads in (4, 8):
        assert sorted(p.name for p in outs[threads].glob("*.csv")) == names
        for name in names:
            assert (outs[threads] / name).read_bytes() \
                == (outs[1] / name).read_bytes(), \
                f"{name} differs between 1 and {threads} threads"
