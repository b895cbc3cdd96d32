"""Optimality checks built on spike variations and the adjoint pair.

necessary_check probes the Hamiltonian margin H(t, X, v, Y, Z) -
H(t, X, u, Y, Z) over a lattice of admissible controls: along an optimal
pair the margin is nonnegative for a.e. time, almost surely.  G(t, X) does
not see the control, so the Z term cancels from the margin.
necessary_check(problem, adjoint) and sufficient_check(problem, adjoint)
take the adjoint, whose trajectories carry the noise bundle and that bundle
its driver.
sufficient_check verifies the convexity package that upgrades a stationary
candidate to a minimizer: convex control set, midpoint-convex terminal cost,
joint midpoint convexity of (x, v) -> H at the candidate's adjoint pair, and
the minimum condition.  gateaux_check compares the common-random-number
difference quotient of the cost along a spike against the first-variation
representation E[<h_x(X_T), p(T)> + zeta(T)].  rate_experiments measures the
decay of E sup |X_eps - X|^2 and of the normalized remainder
E |(X_eps(T) - X(T))/eps - p(T)|^2 along an eps ladder.

run_example1 and run_example2 assemble the two packaged scenarios: a linear
drift / terminal-linear-cost problem whose optimal control and cost are in
closed form, and a linear-quadratic problem solved by the regression adjoint
with stationarity policy-improvement sweeps (the sweeps are a tooling
addition on top of the underlying theory; they are labeled as such in the
report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .adjoint import (AdjointSolution, RegressionBasis, _control_terms,
                      duality_check, hamiltonian, solve_adjoint_explicit,
                      solve_adjoint_lsmc)
from .dynamics import (AffineDiffusion, BallSet, BoxSet, ControlProblem,
                       CostWalk, FeedbackPolicy, OpenLoopPolicy, SpikeSpec,
                       evaluate_cost, integrate_forward, integrate_variational,
                       sample_controls, spiked_costs, stream_spiked)
from .hilbert import DiagonalBatch, apply_operator
from .martingale import (MartingaleDriver, PathGrid, ScalarIntensity,
                         mean_se, sample_increments)


# Largest midpoint-convexity violation that sufficient_check still passes.
CONVEXITY_TOL = 1e-10
# Most negative Hamiltonian margin that necessary_check still passes.
MARGIN_TOL = 1e-8
# Smallest |v - u*| at which a spike of the default family counts as
# displaced from the stationary control.
FAR_THRESHOLD = 0.25
# Times at which sufficient_check probes joint convexity by default.
JOINT_SAMPLE_TIMES = 8


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str = ""


def _informative(stderr, target):
    """Whether 3 SE is at most half of max(1, |target|).

    Agreement within 3 SE says nothing once 3 SE dwarfs the scale of the
    target value, so every Monte Carlo agreement verdict requires this.
    """
    return 3.0 * stderr <= 0.5 * max(1.0, abs(target))


def within_3se(name, difference, stderr, target, label, detail, tol=None):
    """Assertion that |difference| <= tol, never passed vacuously.

    ``tol`` defaults to 3 SE.  The verdict fails, its detail starting with
    ``inconclusive``, when 3 SE exceeds half of max(1, |target|);
    ``label`` names the target in that detail.
    """
    tol = 3.0 * stderr if tol is None else tol
    ok = _informative(stderr, target)
    if not ok:
        detail = (f"inconclusive: 3*SE exceeds half of max(1, |{label}|) = "
                  f"{max(1.0, abs(target)):.2e}; {detail}")
    return Assertion(name=name, detail=detail,
                     passed=ok and abs(difference) <= tol)


@dataclass
class ScenarioReport:
    scenario: str
    sections: dict
    assertions: list
    tables: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(a.passed for a in self.assertions)


@dataclass
class MarginReport:
    """Hamiltonian margins over sampled times, paths, and control probes."""

    times: np.ndarray
    path_indices: np.ndarray
    probes: np.ndarray
    margins: np.ndarray          # (n_times, n_paths, n_probes)
    min_margin: float
    frac_negative: float
    tol: float
    witness: tuple               # (time, path index, probe control)

    @property
    def passed(self):
        return self.min_margin >= -self.tol

    def verdict(self, name, suffix=""):
        """The ``[margins]`` report section and the minimum-condition
        assertion ``name``, whose detail ends with ``suffix``."""
        return ({"min_margin": self.min_margin,
                 "frac_negative": self.frac_negative, "tol": self.tol},
                Assertion(name, self.passed,
                          f"min margin {self.min_margin:.3e} vs tol "
                          f"{self.tol:.1e}{suffix}"))


def _spread_indices(total, count):
    count = max(1, min(int(count), total))
    return np.unique(np.round(np.linspace(0, total - 1, count)).astype(int))


def necessary_check(problem, adjoint, sample_times=20, sample_paths=100,
                    points_per_dim=11):
    """Minimum-condition margins of the Hamiltonian over a probe lattice.

    The candidate is ``adjoint.trajectories`` with the adjoint pair along
    it, and the probes are ``problem.control_set.probe_grid(points_per_dim)``.
    The margin at probe v is ell(v) - ell(u) + <F(v) - F(u), Y>, so
    neither Z nor the diffusion is evaluated.  Passes when the smallest
    margin over all sampled (time, path, probe) triples is >= -MARGIN_TOL.
    """
    traj = adjoint.trajectories
    grid = traj.grid
    times = grid.times
    probes = problem.control_set.probe_grid(points_per_dim)
    t_idx = _spread_indices(grid.steps, sample_times)   # steps index < steps
    p_idx = _spread_indices(traj.paths, sample_paths)
    n_v = probes.shape[0]

    margins = np.empty((t_idx.size, p_idx.size, n_v))
    for i, k in enumerate(t_idx):
        t = times[k]
        xs = traj.state_at(k)[p_idx]
        ys = adjoint.y_at(k)[p_idx]
        u_star = traj.control_at(k)[p_idx]
        h_star = _control_terms(problem, t, xs, u_star, ys)
        xr = np.repeat(xs, n_v, axis=0)
        yr = np.repeat(ys, n_v, axis=0)
        ur = np.tile(probes, (xs.shape[0], 1))
        h_probe = _control_terms(problem, t, xr, ur, yr)
        margins[i] = h_probe.reshape(xs.shape[0], n_v) - h_star[:, None]

    flat_arg = int(np.argmin(margins))
    wi, wp, wv = np.unravel_index(flat_arg, margins.shape)
    witness = (float(times[t_idx[wi]]), int(p_idx[wp]), probes[wv].copy())
    return MarginReport(
        times=times[t_idx], path_indices=p_idx,
        probes=probes, margins=margins, min_margin=float(margins.min()),
        frac_negative=float(np.mean(margins < 0.0)), tol=MARGIN_TOL,
        witness=witness)


@dataclass
class SufficiencyReport:
    """Convexity package verdicts for the sufficient optimality conditions."""

    applicable: bool
    terminal_violation: float
    terminal_passed: bool
    joint_violation: float
    joint_passed: bool
    joint_witness: dict | None
    margin_report: MarginReport | None
    pairs: int
    tol: float
    note: str = ""

    @property
    def minimum_passed(self):
        return self.margin_report is not None and self.margin_report.passed

    @property
    def overall(self):
        return (self.applicable and self.terminal_passed
                and self.joint_passed and self.minimum_passed)


class StateBox:
    """Rider that bounds every state of a run; :meth:`bounds` widens the
    box by half its span (at least 1) on each side.  Each step's (paths,
    n) states fold into elementwise min and max, reduced over paths last:
    min and max are exact, so this is the box of all the states."""

    def visit(self, k, x, u, x_next, dm):
        if k == 0:
            self.lo, self.hi = x.copy(), x.copy()
        np.minimum(self.lo, x_next, out=self.lo)
        np.maximum(self.hi, x_next, out=self.hi)

    def bounds(self):
        lo, hi = self.lo.min(axis=0), self.hi.max(axis=0)
        pad = 0.5 * np.maximum(hi - lo, 1.0)
        return lo - pad, hi + pad


def sufficient_check(problem, adjoint, pairs=1000, seed=77,
                     sample_times=JOINT_SAMPLE_TIMES, margin_report=None):
    """Midpoint-convexity and minimum-condition package.

    Aborts as inapplicable when the declared control set is not convex.
    Terminal and joint convexity run on ``pairs`` random midpoint probes
    and pass up to ``CONVEXITY_TOL``; the joint check holds the adjoint's
    (Y, Z) fixed at sampled (time, path) points of its trajectories
    while perturbing (x, v).
    """
    if not problem.control_set.is_convex:
        return SufficiencyReport(
            applicable=False, terminal_violation=float("nan"),
            terminal_passed=False, joint_violation=float("nan"),
            joint_passed=False, joint_witness=None, margin_report=None,
            pairs=0, tol=CONVEXITY_TOL,
            note="inapplicable: control set is not convex")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    traj = adjoint.trajectories
    grid = traj.grid
    driver = traj.bundle.driver
    lo, hi = (next((r for r in traj.riders if isinstance(r, StateBox)), None)
              or traj.replay(StateBox())).bounds()
    n = lo.shape[0]

    def draw_states(count):
        return lo + rng.random((count, n)) * (hi - lo)

    xa = draw_states(pairs)
    xb = draw_states(pairs)
    h_mid = np.asarray(problem.h(0.5 * (xa + xb)), dtype=float)
    h_avg = 0.5 * (np.asarray(problem.h(xa), dtype=float)
                   + np.asarray(problem.h(xb), dtype=float))
    terminal_violation = float(np.max(h_mid - h_avg))
    terminal_passed = terminal_violation <= CONVEXITY_TOL

    t_idx = _spread_indices(grid.steps, sample_times)
    per_time = int(np.ceil(pairs / t_idx.size))
    joint_violation = -float("inf")
    joint_witness = None
    for k in t_idx:
        t = grid.times[k]
        p_sel = rng.integers(0, traj.paths, size=per_time)
        xs = traj.state_at(k)[p_sel]
        ys = adjoint.y_at(k)[p_sel]
        zs = adjoint.z_at(k, states=xs)
        x1 = draw_states(per_time)
        x2 = draw_states(per_time)
        v1 = sample_controls(problem.control_set, per_time, rng)
        v2 = sample_controls(problem.control_set, per_time, rng)
        factor = driver.cov_rate_factor(t)
        h1 = hamiltonian(problem, factor, t, x1, v1, ys, zs)
        h2 = hamiltonian(problem, factor, t, x2, v2, ys, zs)
        hm = hamiltonian(problem, factor, t, 0.5 * (x1 + x2),
                         0.5 * (v1 + v2), ys, zs)
        viol = hm - 0.5 * (h1 + h2)
        worst = int(np.argmax(viol))
        if float(viol[worst]) > joint_violation:
            joint_violation = float(viol[worst])
            joint_witness = {"t": float(t), "x1": x1[worst].copy(),
                             "v1": v1[worst].copy(), "x2": x2[worst].copy(),
                             "v2": v2[worst].copy()}
    joint_passed = joint_violation <= CONVEXITY_TOL

    if margin_report is None:
        margin_report = necessary_check(problem, adjoint)

    return SufficiencyReport(
        applicable=True,
        terminal_violation=terminal_violation,
        terminal_passed=terminal_passed, joint_violation=joint_violation,
        joint_passed=joint_passed,
        joint_witness=None if joint_passed else joint_witness,
        margin_report=margin_report, pairs=pairs, tol=CONVEXITY_TOL)


@dataclass(frozen=True)
class GateauxEntry:
    eps: float
    fd_quotient: float
    se_fd: float
    mean_diff: float
    se_diff: float
    tol: float


@dataclass
class GateauxReport:
    """CRN difference quotient of the cost vs the first-variation value."""

    adjoint_value: float
    se_adjoint: float
    entries: list


def gateaux_check(problem, p, eps_list=(0.05, 0.025), bias_fraction=0.1):
    """Spike difference quotient of the cost vs E[<h_x(X_T), p(T)> + zeta(T)].

    The spikes start at p's own t0 with p's own v, one per eps, and re-run
    p's optimal trajectory on its noise bundle (common random numbers).
    Per eps the entry reports the mean paired difference, its SE and the
    tolerance 3 * SE(paired diff) + bias_fraction * eps * |first-variation
    value|; ``within_3se`` with that tolerance gives the verdict.
    Fault-detection self-tests pass a doctored p.
    """
    traj = p.optimal
    spec = p.spike
    hx = np.asarray(problem.h_x(traj.state_at(traj.grid.steps)), dtype=float)
    adj_pp = np.einsum("pi,pi->p", hx, p.states[:, -1, :]) + p.zeta[:, -1]
    adj, se_adj = mean_se(adj_pp)

    base_cost, costs = spiked_costs(
        problem, traj,
        [SpikeSpec(t0=spec.t0, eps=float(eps), v=spec.v) for eps in eps_list])
    entries = []
    for eps, cost_eps in zip(eps_list, costs):
        fd_pp = (cost_eps.per_path - base_cost.per_path) / float(eps)
        fd, se_fd = mean_se(fd_pp)
        mean_diff, se_diff = mean_se(fd_pp - adj_pp)
        entries.append(GateauxEntry(
            eps=float(eps), fd_quotient=fd, se_fd=se_fd, mean_diff=mean_diff,
            se_diff=se_diff,
            tol=3.0 * se_diff + bias_fraction * float(eps) * abs(adj)))
    return GateauxReport(adjoint_value=adj, se_adjoint=se_adj,
                         entries=entries)


@dataclass
class RateReport:
    """Spike-remainder decay along an eps ladder (largest eps first)."""

    eps: np.ndarray
    esup: np.ndarray
    esup_se: np.ndarray
    exi: np.ndarray
    exi_se: np.ndarray
    slope: float
    slope_ok: bool
    xi_decreasing: bool
    xi_final_ok: bool

    @property
    def passed(self):
        return self.slope_ok and self.xi_decreasing and self.xi_final_ok


def rate_experiments(problem, p, eps_ladder=(0.2, 0.1, 0.05, 0.025)):
    """Measure E sup_t |X_eps - X|^2 and E |(X_eps(T)-X(T))/eps - p(T)|^2.

    The spikes start at p's own t0 with p's own v, one per eps, and re-run
    p's optimal trajectory on its noise bundle in one ``stream_spiked``
    call, which names a blown-up spike's own path; each block carries one
    rider that compares its rows with the base states.  Passes when the
    log-log slope of the sup curve is >= 1.5 and the remainder sequence
    is strictly decreasing with final value < 1/4 of the initial one.
    """
    traj = p.optimal
    t0, v = p.spike.t0, p.spike.v
    ladder = np.sort(np.asarray(eps_ladder, dtype=float))[::-1]
    p_term = p.states[:, -1, :]
    specs = [SpikeSpec(t0=float(t0), eps=float(eps), v=v) for eps in ladder]
    paths = traj.paths
    msq = np.zeros(ladder.size * paths)
    xi_sq = np.empty(ladder.size * paths)

    def riders(rows):
        # each spike's copy of the paths is read against the base states
        eps = ladder[rows.start // paths:rows.stop // paths, None, None]

        def visit(k, x, u, x_next, dm):
            spiked = x_next.reshape(-1, paths, x_next.shape[1])
            diff = (spiked - traj.state_at(k + 1)).reshape(x_next.shape)
            np.maximum(msq[rows], np.einsum("pi,pi->p", diff, diff),
                       out=msq[rows])
            if k == traj.grid.steps - 1:
                xi = ((spiked - traj.state_at(k + 1)) / eps
                      - p_term).reshape(x_next.shape)
                xi_sq[rows] = np.einsum("pi,pi->p", xi, xi)

        return (SimpleNamespace(visit=visit),)

    stream_spiked(problem, traj, specs, riders)
    esup, esup_se = np.transpose(
        [mean_se(row) for row in msq.reshape(ladder.size, -1)])
    exi, exi_se = np.transpose(
        [mean_se(row) for row in xi_sq.reshape(ladder.size, -1)])

    slope = float(np.polyfit(np.log(ladder), np.log(esup), 1)[0])
    decreasing = bool(np.all(np.diff(exi) < 0.0))
    final_ok = bool(exi[-1] < 0.25 * exi[0])
    return RateReport(eps=ladder, esup=esup, esup_se=esup_se, exi=exi,
                      exi_se=exi_se, slope=slope, slope_ok=slope >= 1.5,
                      xi_decreasing=decreasing, xi_final_ok=final_ok)


# ---------------------------------------------------------------------------
# Packaged scenario 1: linear drift, bilinear noise, terminal linear cost.
# ---------------------------------------------------------------------------

@dataclass
class Example1Config:
    """Scenario with closed-form optimal control -0.5 * F~^T c.

    With drift_gain > 0 the drift gains a bounded smooth nonlinearity
    (gain * tanh(x), componentwise).  That variant has no closed-form
    adjoint, so it is exercised through the difference-quotient and rate
    experiments rather than the full scenario pipeline.
    """

    beta: tuple = (1.0, -0.5, 0.25, 0.0)
    c: tuple = (0.8, -0.3, 0.5, 0.2)
    f_tilde: tuple = ((1.0, 0.2), (0.0, 0.7), (-0.4, 0.3), (0.5, 0.0))
    g_tilde: tuple = ((0.3, 0.06, 0.0, 0.03), (0.0, 0.3, 0.09, 0.0),
                      (0.06, 0.0, 0.3, 0.0), (0.0, 0.03, 0.0, 0.3))
    x0: tuple = (1.0, 0.5, -0.25, 0.75)
    alpha0: float = 1.0
    alpha_slope: float = 0.5
    horizon: float = 1.0
    steps: int = 400
    paths: int = 20000
    seed: int = 12022
    control_box_radius: float = 2.0
    spike_count: int = 20
    probe_points_per_dim: int = 11
    sample_times: int = 20
    sample_paths: int = 100
    convexity_pairs: int = 1000
    drift_gain: float = 0.0
    schedule: tuple | None = None     # constant open-loop override

    @property
    def state_dim(self):
        """Length of ``x0``."""
        return len(self.x0)

    @property
    def control_dim(self):
        """Column count of ``f_tilde``."""
        return np.size(self.f_tilde) // self.state_dim


def _driver_and_grid(cfg, beta):
    """A packaged scenario's driver (``beta``, linear intensity) and grid."""
    driver = MartingaleDriver(
        state_dim=cfg.state_dim, horizon=cfg.horizon,
        components=((beta, ScalarIntensity.linear(cfg.alpha0, cfg.alpha_slope,
                                                  cfg.horizon)),))
    return driver, PathGrid(horizon=cfg.horizon, steps=cfg.steps)


def build_example1_problem(cfg):
    """Problem, driver, grid, and the stationary control of scenario 1."""
    n, m = cfg.state_dim, cfg.control_dim
    beta = np.asarray(cfg.beta, dtype=float)
    c = np.asarray(cfg.c, dtype=float)
    f_tilde = np.asarray(cfg.f_tilde, dtype=float).reshape(n, m)
    diffusion = AffineDiffusion(beta, np.reshape(cfg.g_tilde, (n, n)))
    gain = float(cfg.drift_gain)
    u_star = -0.5 * (f_tilde.T @ c)
    control_set = BoxSet(u_star - cfg.control_box_radius,
                         u_star + cfg.control_box_radius)

    def drift(t, x, u):
        base = u @ f_tilde.T
        if gain != 0.0:
            base = base + gain * np.tanh(x)
        return base

    def drift_x(t, x, u):
        if gain == 0.0:
            return np.zeros((n, n))
        return DiagonalBatch(gain * (1.0 - np.tanh(x) ** 2))

    def running_cost(t, x, u):
        # |u|^2 column by column: the einsum's bits for m <= 2 at a third
        # of its time
        total = u[:, 0] * u[:, 0]
        for column in u.T[1:]:
            total += column * column
        return total

    problem = ControlProblem(
        F=drift,
        G=diffusion,
        ell=running_cost,
        h=lambda x: x @ c,
        F_x=drift_x,
        F_u=lambda t, x, u: f_tilde,
        G_x=diffusion.derivative,
        ell_x=lambda t, x, u: np.zeros_like(x),
        ell_u=lambda t, x, u: 2.0 * u,
        h_x=lambda x: np.broadcast_to(c, x.shape),
        control_set=control_set,
        name="example1" if gain == 0.0 else "example1-tanh",
        grad_x_ignores_u=True)
    return problem, *_driver_and_grid(cfg, beta), u_star


def example1_analytic_cost(cfg):
    """Closed-form optimal cost <c, x0> - (T/4)|F~^T c|^2 (linear drift)."""
    c = np.asarray(cfg.c, dtype=float)
    x0 = np.asarray(cfg.x0, dtype=float)
    f_tilde = np.asarray(cfg.f_tilde, dtype=float).reshape(cfg.state_dim,
                                                           cfg.control_dim)
    return float(c @ x0 - cfg.horizon / 4.0 * np.sum((f_tilde.T @ c) ** 2))


def initial_policy(cfg, u_default):
    """The constant ``cfg.schedule``, else the constant ``u_default``."""
    return OpenLoopPolicy(u_default if cfg.schedule is None
                          else cfg.schedule)


def example1_candidate(cfg):
    """Scenario-1 problem and the candidate run ``cfg`` selects, unrun.

    Returns (problem, u_star, bundle, policy): the noise bundle carries the
    driver and the grid, and the candidate follows ``policy =
    initial_policy(cfg, u_star)`` from ``cfg.x0``.  Each caller runs it
    with ``integrate_forward``, keeping the steps and carrying the riders
    its readers need.
    """
    problem, driver, grid, u_star = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    return problem, u_star, bundle, initial_policy(cfg, u_star)


@dataclass(frozen=True)
class SpikeOutcome:
    spec: SpikeSpec
    gap: float
    se: float
    far: bool


def default_spike_family(grid, u_star, control_set, count=20, seed=0):
    """Deterministic family of spike specs around the stationary control.

    Two specs spike with the stationary value itself (expected zero gap);
    the rest displace the control by magnitudes in [0.3, 0.9] of the box
    radius (a ball's radius, 1 for other sets) in random directions.  A
    value outside the control set is replaced by its nearest admissible
    control, so every spec spikes with an admissible v.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(1001,)))
    steps = grid.steps
    m = u_star.shape[0]
    eps_opts = [max(1, round(0.05 * steps)), max(1, round(0.1 * steps)),
                max(1, round(0.2 * steps))]
    t0_opts = [round(f * steps) for f in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)]
    radius = None
    if isinstance(control_set, BoxSet):
        radius = float(np.min(control_set.upper - control_set.lower)) / 2.0
    elif isinstance(control_set, BallSet):
        radius = control_set.radius
    if radius is None or radius <= 0:
        radius = 1.0
    specs = []
    for i in range(count):
        # a one-step grid has no step 1 to start at; k0 + span <= steps
        k0 = min(t0_opts[int(rng.integers(0, len(t0_opts)))], steps - 1)
        span = eps_opts[int(rng.integers(0, len(eps_opts)))]
        t0 = grid.times[k0]
        eps = span * grid.dt
        if i < 2:
            v = u_star.copy()
        else:
            direction = rng.standard_normal(m)
            direction /= max(np.linalg.norm(direction), 1e-12)
            mag = radius * (0.3 + 0.6 * rng.random())
            v = u_star + mag * direction
        if not control_set.contains(v):
            v = control_set.nearest(v)
        specs.append(SpikeSpec(t0=float(t0), eps=float(eps), v=v))
    return specs


@dataclass
class Example1Result:
    """Scenario-1 outcome; the candidate is ``adjoint.trajectories``."""

    report: ScenarioReport
    problem: ControlProblem
    grid: PathGrid
    adjoint: AdjointSolution
    cost: object
    analytic_cost: float
    u_star: np.ndarray
    spikes: list
    margin_report: MarginReport
    sufficiency: SufficiencyReport


def run_example1(cfg=None, keep_all=False):
    """Run packaged scenario 1 end to end and assemble its report.  Its
    forward run carries the cost walk and the state box and keeps only the
    steps the checks read, or every step with ``keep_all``."""
    cfg = cfg if cfg is not None else Example1Config()
    if cfg.drift_gain != 0.0:
        raise ValueError(
            "the packaged scenario-1 pipeline verifies the closed-form "
            "candidate and requires drift_gain = 0; exercise the nonlinear "
            "drift variant through the difference-quotient or rate "
            "experiments instead")
    problem, u_star, bundle, policy = example1_candidate(cfg)
    grid = bundle.grid
    specs = default_spike_family(grid, u_star, problem.control_set,
                                 count=cfg.spike_count, seed=cfg.seed)
    starts = [spec.window(grid)[0] for spec in specs]
    keep = None if keep_all else {
        0, grid.steps, *starts, *_spread_indices(grid.steps, cfg.sample_times),
        *_spread_indices(grid.steps, JOINT_SAMPLE_TIMES)}
    trajectories = integrate_forward(
        problem, policy, bundle, cfg.x0, keep=keep,
        riders=(CostWalk(problem, grid, starts), StateBox()))
    adjoint = solve_adjoint_explicit(problem, trajectories)
    cost, spiked = spiked_costs(problem, trajectories, specs)

    analytic = example1_analytic_cost(cfg)

    spikes = []
    for spec, cost_eps in zip(specs, spiked):
        gap, se = mean_se(cost_eps.per_path - cost.per_path)
        far = float(np.linalg.norm(spec.v - u_star)) >= FAR_THRESHOLD
        spikes.append(SpikeOutcome(spec=spec, gap=gap, se=se, far=far))

    margin_report = necessary_check(
        problem, adjoint, sample_times=cfg.sample_times,
        sample_paths=cfg.sample_paths,
        points_per_dim=cfg.probe_points_per_dim)
    sufficiency = sufficient_check(
        problem, adjoint, pairs=cfg.convexity_pairs,
        seed=cfg.seed + 3, margin_report=margin_report)

    delta = abs(cost.mean - analytic)
    assertions = [within_3se(
        "cost_matches_analytic", delta, cost.stderr, analytic, "analytic",
        f"|{cost.mean:.6f} - {analytic:.6f}| = {delta:.2e} "
        f"vs 3*SE = {3.0 * cost.stderr:.2e}")]
    worst_gap = min((s.gap + 3.0 * s.se for s in spikes), default=0.0)
    assertions.append(Assertion(
        name="spike_costs_dominate",
        passed=all(s.gap >= -3.0 * s.se for s in spikes),
        detail=f"min (gap + 3*SE) = {worst_gap:.3e} over {len(spikes)} spikes"))
    far_specs = [s for s in spikes if s.far]
    if far_specs:
        frac = float(np.mean([s.gap > s.se for s in far_specs]))
        detail = f"{frac:.2%} of {len(far_specs)} displaced spikes exceed 1 SE"
    else:
        frac = 0.0
        detail = f"no displaced spikes among {len(spikes)} spikes"
    assertions.append(Assertion(name="spike_gaps_positive", passed=frac >= 0.9,
                                detail=detail))
    margins, verdict = margin_report.verdict("necessary_margins")
    assertions.append(verdict)
    assertions.append(Assertion(
        name="sufficiency",
        passed=sufficiency.overall,
        detail=f"terminal viol {sufficiency.terminal_violation:.2e}, "
               f"joint viol {sufficiency.joint_violation:.2e}"))

    sections = {
        "cost": {
            "mc_mean": cost.mean,
            "mc_stderr": cost.stderr,
            "analytic": analytic,
            "paths": cfg.paths,
        },
        "stationary_control": {
            "u_star": np.array2string(u_star, precision=10),
        },
        "margins": margins,
        "sufficiency": {
            "applicable": sufficiency.applicable,
            "terminal_violation": sufficiency.terminal_violation,
            "joint_violation": sufficiency.joint_violation,
            "overall": sufficiency.overall,
        },
    }
    spike_rows = [
        (s.spec.t0, s.spec.eps,
         *[float(x) for x in s.spec.v], s.gap, s.se, int(s.far))
        for s in spikes]
    m = u_star.shape[0]
    spike_header = (["t0", "eps"] + [f"v{j}" for j in range(m)]
                    + ["gap", "stderr", "far"])
    margin_rows = []
    for i, t in enumerate(margin_report.times):
        for j, probe in enumerate(margin_report.probes):
            col = margin_report.margins[i, :, j]
            margin_rows.append((float(t),
                                *[float(x) for x in probe],
                                float(col.min()), float(col.mean())))
    margin_header = (["t"] + [f"v{j}" for j in range(m)]
                     + ["min_margin", "mean_margin"])
    report = ScenarioReport(
        scenario="example1", sections=sections, assertions=assertions,
        tables={"spike_gaps": (spike_header, spike_rows),
                "margins_summary": (margin_header, margin_rows)})
    return Example1Result(
        report=report, problem=problem, grid=grid,
        adjoint=adjoint, cost=cost, analytic_cost=analytic,
        u_star=u_star, spikes=spikes, margin_report=margin_report,
        sufficiency=sufficiency)


# ---------------------------------------------------------------------------
# Packaged scenario 2: linear-quadratic problem with regression adjoint.
# ---------------------------------------------------------------------------

@dataclass
class Example2Config:
    """Linear-quadratic scenario solved with the regression adjoint."""

    a: tuple = ((-0.5, 0.2), (0.0, -0.3))
    c_op: tuple = ((1.0, 0.0), (0.0, 1.0))
    f: tuple = (0.1, 0.0)
    gamma: tuple = (0.2, 0.0)
    g_tilde: tuple = ((0.3, 0.0), (0.0, 0.2))
    d: tuple = ((0.2, 0.0), (0.0, 0.15))
    p_weight: tuple = ((0.5, 0.0), (0.0, 0.5))
    r_weight: tuple = ((1.0, 0.0), (0.0, 1.0))
    p1: tuple = ((0.6, 0.0), (0.0, 0.4))
    x0: tuple = (1.0, 0.5)
    beta: tuple = (1.0, 0.4)
    alpha0: float = 1.0
    alpha_slope: float = 0.5
    horizon: float = 1.0
    steps: int = 100
    paths: int = 4000
    seed: int = 30303
    basis_degree: int = 2
    sweeps: int = 3
    control_box_radius: float = 5.0
    schedule: tuple | None = None     # constant open-loop initial candidate
    run_duality: bool = True
    duality_t0: float = 0.25
    duality_eps: float = 0.1
    duality_v: tuple = (0.5, -0.25)

    @property
    def state_dim(self):
        """Length of ``x0``."""
        return len(self.x0)

    @property
    def control_dim(self):
        """Column count of ``c_op``."""
        return np.size(self.c_op) // self.state_dim


def build_example2_problem(cfg):
    """Linear-quadratic problem and driver for scenario 2."""
    n, m = cfg.state_dim, cfg.control_dim
    a = np.asarray(cfg.a, dtype=float).reshape(n, n)
    c_op = np.asarray(cfg.c_op, dtype=float).reshape(n, m)
    f = np.asarray(cfg.f, dtype=float).reshape(n)
    diffusion = AffineDiffusion(np.reshape(cfg.gamma, n),
                                np.reshape(cfg.g_tilde, (n, n)),
                                np.reshape(cfg.d, (n, n)))
    p_w = np.asarray(cfg.p_weight, dtype=float).reshape(n, n)
    r_w = np.asarray(cfg.r_weight, dtype=float).reshape(m, m)
    p1 = np.asarray(cfg.p1, dtype=float).reshape(n, n)
    for name, mat in (("p_weight", p_w), ("r_weight", r_w), ("p1", p1)):
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValueError(f"{name} must be symmetric")
    beta = np.asarray(cfg.beta, dtype=float).reshape(n)

    def quadratic(z, w):
        return np.einsum("pi,pi->p", z @ w, z)

    problem = ControlProblem(
        F=lambda t, x, u: x @ a.T + u @ c_op.T + f,
        G=diffusion,
        ell=lambda t, x, u: 0.5 * quadratic(x, p_w) + 0.5 * quadratic(u, r_w),
        h=lambda x: 0.5 * quadratic(x, p1),
        F_x=lambda t, x, u: a,
        F_u=lambda t, x, u: c_op,
        G_x=diffusion.derivative,
        ell_x=lambda t, x, u: x @ p_w,
        ell_u=lambda t, x, u: u @ r_w,
        h_x=lambda x: x @ p1,
        control_set=BoxSet(-cfg.control_box_radius * np.ones(m),
                           cfg.control_box_radius * np.ones(m)),
        name="example2",
        grad_x_ignores_u=True)
    return problem, *_driver_and_grid(cfg, beta)


def stationarity_residual(problem, adjoint):
    """RMS of grad_u H = ell_u + F_u^T Y along ``adjoint.trajectories``."""
    trajectories = adjoint.trajectories
    grid = trajectories.grid
    times = grid.times
    total = 0.0
    count = 0
    for k in range(grid.steps):
        xk = trajectories.state_at(k)
        uk = trajectories.control_at(k)
        yk = adjoint.y_at(k)
        fu = np.asarray(problem.F_u(times[k], xk, uk), dtype=float)
        futy = apply_operator(np.swapaxes(fu, -1, -2), yk)
        resid = np.asarray(problem.ell_u(times[k], xk, uk), dtype=float) + futy
        sq = np.einsum("pi,pi->p", resid, resid)
        total += float(np.sum(sq))
        count += sq.shape[0]
    return float(np.sqrt(total / count))


@dataclass
class SweepRecord:
    """One policy-improvement sweep, run and solved along
    ``adjoint.trajectories`` (whose ``policy`` is the sweep's)."""

    adjoint: AdjointSolution
    cost: object
    residual: float


@dataclass
class Example2Result:
    """Scenario-2 outcome; every sweep ran on the noise bundle of sweep 0."""

    report: ScenarioReport
    problem: ControlProblem
    grid: PathGrid
    sweeps: list
    duality: object | None


def _improvement_policy(adjoint, c_op, r_inv, grid):
    """Feedback u = -R^{-1} C^T E-hat[Y | X], from the fitted adjoint."""

    def fn(t, states):
        y = adjoint.y_eval(grid.index_of(t, what="policy time"), states)
        return -(y @ c_op) @ r_inv

    return FeedbackPolicy(fn=fn)


def run_example2(cfg=None):
    """Run packaged scenario 2: regression adjoint plus stationarity sweeps.

    The policy-improvement sweeps (u <- -R^{-1} C^T E-hat[Y|X]) are a tooling
    addition layered on the stationarity condition C^T Y + R u = 0; they are
    reported as such and are not part of the underlying optimality theory.
    """
    cfg = cfg if cfg is not None else Example2Config()
    problem, driver, grid = build_example2_problem(cfg)
    n, m = cfg.state_dim, cfg.control_dim
    c_op = np.asarray(cfg.c_op, dtype=float).reshape(n, m)
    r_w = np.asarray(cfg.r_weight, dtype=float).reshape(m, m)
    r_inv = np.linalg.inv(r_w)
    x0 = np.asarray(cfg.x0, dtype=float)
    basis = RegressionBasis(degree=cfg.basis_degree)

    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    policy = initial_policy(cfg, np.zeros(m))

    sweeps = []
    for s in range(cfg.sweeps + 1):
        trajectories = integrate_forward(problem, policy, bundle, x0,
                                         riders=(CostWalk(problem, grid),))
        adjoint = solve_adjoint_lsmc(problem, trajectories, basis=basis)
        cost = evaluate_cost(problem, trajectories)
        residual = stationarity_residual(problem, adjoint)
        # nothing reads this record again: later sweeps call the policy
        # at their own states
        trajectories.drop_controls()
        sweeps.append(SweepRecord(adjoint=adjoint, cost=cost,
                                  residual=residual))
        if s < cfg.sweeps:
            policy = _improvement_policy(adjoint, c_op, r_inv, grid)

    duality = None
    if cfg.run_duality:
        spec = SpikeSpec(t0=cfg.duality_t0, eps=cfg.duality_eps,
                         v=np.asarray(cfg.duality_v, dtype=float))
        first = sweeps[0].adjoint
        duality = duality_check(
            first, integrate_variational(problem, first.trajectories, spec))

    assertions = []
    cost_ok = True
    details = []
    vague = []
    for s in range(1, len(sweeps)):
        earlier = sweeps[s - 1].cost
        mean_diff, se_diff = mean_se(sweeps[s].cost.per_path
                                     - earlier.per_path)
        if not _informative(se_diff, earlier.mean):
            vague.append(str(s))
        cost_ok = cost_ok and mean_diff <= 2.0 * se_diff
        details.append(f"sweep {s}: dJ = {mean_diff:.3e} (SE {se_diff:.1e})")
    detail = "; ".join(details) if details else "no sweeps"
    if vague:
        detail = (f"inconclusive: 3*SE exceeds half of max(1, |previous "
                  f"cost|) at sweep {', '.join(vague)}; {detail}")
    assertions.append(Assertion(
        name="cost_nonincreasing", passed=cost_ok and not vague,
        detail=detail))
    res_first = sweeps[0].residual
    res_last = sweeps[-1].residual
    assertions.append(Assertion(
        name="stationarity_residual_decreases",
        passed=(res_last < res_first) or res_first == 0.0,
        detail=f"residual {res_first:.4e} -> {res_last:.4e}"))
    if duality is not None:
        se = duality.se_lhs + duality.se_rhs
        assertions.append(within_3se(
            "duality_within_3se", duality.difference, se, duality.lhs, "lhs",
            f"|{duality.lhs:.5f} - {duality.rhs:.5f}| = "
            f"{abs(duality.difference):.2e} vs "
            f"3*(SE_L+SE_R) = {3.0 * se:.2e}"))

    sections = {
        "sweeps": {
            "count": cfg.sweeps,
            "note": "policy-improvement sweeps are a tooling addition "
                    "layered on the stationarity condition",
            "costs": [round(s.cost.mean, 8) for s in sweeps],
            "cost_stderr": [round(s.cost.stderr, 8) for s in sweeps],
            "residuals": [round(s.residual, 10) for s in sweeps],
        },
        "adjoint": {
            "method": "lsmc",
            "basis_degree": cfg.basis_degree,
            "n_residual_ratio": sweeps[-1].adjoint.n_residual_ratio,
        },
    }
    if duality is not None:
        sections["duality"] = {
            "lhs": duality.lhs, "rhs": duality.rhs,
            "difference": duality.difference,
            "se_lhs": duality.se_lhs, "se_rhs": duality.se_rhs,
            "se_diff": duality.se_diff,
        }
    sweep_rows = [(s, sweeps[s].cost.mean, sweeps[s].cost.stderr,
                   sweeps[s].residual) for s in range(len(sweeps))]
    report = ScenarioReport(
        scenario="example2", sections=sections, assertions=assertions,
        tables={"sweeps": (["sweep", "cost", "cost_stderr",
                            "stationarity_residual"], sweep_rows)})
    return Example2Result(report=report, problem=problem, grid=grid,
                          sweeps=sweeps, duality=duality)
