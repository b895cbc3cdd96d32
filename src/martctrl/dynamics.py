"""Controlled forward dynamics, spike perturbations, and first variations.

The controlled state follows dX = F(t, X, u) dt + G(t, X) dM with M a
martingale driver, discretized by Euler-Maruyama with left-point coefficient
evaluation.  A spike perturbation replaces the control by a fixed value v on
a grid-aligned window [t0, t0 + eps).  The first variation p of the state
with respect to the spike and the running-cost variation zeta follow linear
equations driven by the frozen optimal trajectory and the same noise;
integrate_variational steps both in one walk along that trajectory.

Problem callables are vectorized over paths:

    F(t, X, U) -> (P, n)          F_x(t, X, U) -> (n, n) or (P, n, n)
    G(t, X, dM) -> (P, n)         the increment G(t, X) dM
    G_x(t, X, D, dM) -> (P, n)    (G_x(t, X)[D]) dM, derivative along D
    ell(t, X, U) -> (P,)          ell_x -> (P, n), ell_u -> (P, m)
    h(X) -> (P,)                  h_x(X) -> (P, n)
    F_u(t, X, U) -> (n, m) or (P, n, m)

with X, D and dM of shape (P, n), U of shape (P, m) and scalar t.  The
diffusion is only ever applied, so G and G_x return its action on the
driver directions dM and never an operator per path.  An AffineDiffusion
declares the form (X . gamma) G~ + D and serves as both G and G_x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hilbert import apply_operator, as_vector
from .martingale import NoiseBundle, mean_se, step_major, step_major_zeros


class BlowUpError(RuntimeError):
    """Forward integration produced a non-finite state."""

    def __init__(self, path, step, time):
        self.path = int(path)
        self.step = int(step)
        self.time = float(time)
        super().__init__(
            f"state blew up on path {self.path} at step {self.step} "
            f"(t={self.time:.6g})")


class ControlSet:
    """Admissible control region; see BoxSet, BallSet, FiniteSet."""

    is_convex = False

    def contains(self, v, tol=1e-9):
        raise NotImplementedError

    def nearest(self, v):
        """The admissible control closest to v in the Euclidean norm."""
        raise NotImplementedError

    def probe_grid(self, points_per_dim=11, cap=10000):
        raise NotImplementedError


@dataclass(frozen=True)
class BoxSet(ControlSet):
    lower: np.ndarray
    upper: np.ndarray
    is_convex = True

    def __post_init__(self):
        lo = as_vector(self.lower, name="lower")
        hi = as_vector(self.upper, dim=lo.shape[0], name="upper")
        if np.any(hi < lo):
            raise ValueError("box upper bound below lower bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.shape[0]

    def contains(self, v, tol=1e-9):
        v = np.asarray(v, dtype=float)
        span = np.maximum(self.upper - self.lower, 1.0)
        return bool(np.all(v >= self.lower - tol * span)
                    and np.all(v <= self.upper + tol * span))

    def nearest(self, v):
        return np.clip(v, self.lower, self.upper)

    def probe_grid(self, points_per_dim=11, cap=10000):
        m = self.dim
        pts = max(2, int(points_per_dim))
        while pts ** m > cap and pts > 2:
            pts -= 1
        axes = [np.linspace(self.lower[j], self.upper[j], pts)
                for j in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


@dataclass(frozen=True)
class BallSet(ControlSet):
    center: np.ndarray
    radius: float
    is_convex = True

    def __post_init__(self):
        c = as_vector(self.center, name="center")
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", c)

    @property
    def dim(self):
        return self.center.shape[0]

    def contains(self, v, tol=1e-9):
        v = np.asarray(v, dtype=float)
        return bool(np.linalg.norm(v - self.center)
                    <= self.radius * (1.0 + tol))

    def nearest(self, v):
        v = np.asarray(v, dtype=float)
        dist = float(np.linalg.norm(v - self.center))
        if dist <= self.radius:
            return v.copy()
        return self.center + (v - self.center) * (self.radius / dist)

    def probe_grid(self, points_per_dim=11, cap=10000):
        box = BoxSet(self.center - self.radius, self.center + self.radius)
        pts = box.probe_grid(points_per_dim, cap)
        keep = np.linalg.norm(pts - self.center, axis=1) <= self.radius + 1e-12
        pts = pts[keep]
        if not any(np.allclose(p, self.center) for p in pts):
            pts = np.vstack([self.center, pts])
        return pts


@dataclass(frozen=True)
class FiniteSet(ControlSet):
    points: np.ndarray
    is_convex = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, m) array")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    def contains(self, v, tol=1e-9):
        v = np.asarray(v, dtype=float)
        return bool(np.min(np.linalg.norm(self.points - v, axis=1)) <= tol)

    def nearest(self, v):
        dists = np.linalg.norm(self.points - np.asarray(v, dtype=float), axis=1)
        return self.points[int(np.argmin(dists))].copy()

    def probe_grid(self, points_per_dim=11, cap=10000):
        return np.array(self.points, copy=True)


def sample_controls(control_set, count, rng):
    """Draw admissible controls uniformly-ish from a control set."""
    if isinstance(control_set, BoxSet):
        span = control_set.upper - control_set.lower
        return control_set.lower + rng.random((count, control_set.dim)) * span
    if isinstance(control_set, BallSet):
        raw = rng.standard_normal((count, control_set.dim))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
        radii = control_set.radius * rng.random(count) ** (1.0 / control_set.dim)
        return control_set.center + raw * radii[:, None]
    if isinstance(control_set, FiniteSet):
        idx = rng.integers(0, control_set.points.shape[0], size=count)
        return control_set.points[idx]
    raise TypeError(f"unsupported control set {type(control_set).__name__}")


class AffineDiffusion:
    """The diffusion G(t, X) = (X . gamma) G~ + D, declared by its data.

    The object is the ``G`` callable, ``derivative`` is the matching
    ``G_x`` (G_x(t, X)[D'] = (D' . gamma) G~), and :meth:`state_gradient`
    gives the diffusion part of grad_x H in closed form.  ``d`` is
    optional: an absent D adds nothing rather than zeros.
    """

    def __init__(self, gamma, g_tilde, d=None):
        self.gamma = np.asarray(gamma, dtype=float)
        self.g_tilde = np.asarray(g_tilde, dtype=float)
        # transposed once: the actions apply them as dM G~^T and dM D^T
        self._g_tilde_t = self.g_tilde.T.copy()
        self._d_t = None if d is None else np.asarray(d, dtype=float).T.copy()

    def __call__(self, t, x, dm):
        out = (x @ self.gamma)[:, None] * (dm @ self._g_tilde_t)
        if self._d_t is not None:
            out = out + dm @ self._d_t
        return out

    def derivative(self, t, x, dirs, dm):
        return (dirs @ self.gamma)[:, None] * (dm @ self._g_tilde_t)

    def state_gradient(self, factor, z):
        """Gamma = gamma * sum_j <G~ l_j, z l_j> over the columns l_j of
        ``factor``, for (P, n, n) ``z``; shape (P, n).  The sum is the
        Frobenius product of z with G~ L L^T, L = ``factor``."""
        paired = np.einsum("ik,pik->p", self.g_tilde @ factor @ factor.T, z)
        return paired[:, None] * self.gamma


@dataclass
class ControlProblem:
    """Coefficients, costs, and analytic derivatives of one control problem.

    The diffusion enters through its action: ``G(t, X, dM)`` returns
    G(t, X) dM and ``G_x(t, X, D, dM)`` returns (G_x(t, X)[D]) dM, the
    directional derivative of G at X along the state directions D applied
    to dM, one row per path.  ``F_x`` stays an operator because grad_x H
    needs its transpose.  ``grad_x_ignores_u`` declares that ``ell_x`` and
    ``F_x`` do not read the control (:func:`finite_diff_check` audits it).
    The state size is read off the states, the control size off
    ``control_set.dim``.
    """

    F: Callable
    G: Callable
    ell: Callable
    h: Callable
    F_x: Callable
    F_u: Callable
    G_x: Callable
    ell_x: Callable
    ell_u: Callable
    h_x: Callable
    control_set: ControlSet
    name: str = ""
    grad_x_ignores_u: bool = False


class ControlPolicy:
    """Control rule evaluated per grid step on the current batch of states."""

    def controls_at(self, k, t, states):
        raise NotImplementedError


@dataclass(frozen=True)
class OpenLoopPolicy(ControlPolicy):
    """The constant control u at every step and on every path.

    Keeps its own copy of u, so the caller may reuse its array.
    """

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", as_vector(self.u, name="control").copy())

    def controls_at(self, k, t, states):
        return np.broadcast_to(self.u, (states.shape[0], self.u.shape[0]))


@dataclass(frozen=True)
class FeedbackPolicy(ControlPolicy):
    """State feedback u = fn(t, X) with X batched over paths.

    Trajectories keep the arrays ``fn`` returns, so it must not write into
    an array it has returned before.
    """

    fn: Callable

    def controls_at(self, k, t, states):
        u = np.asarray(self.fn(t, states), dtype=float)
        if u.ndim != 2 or u.shape[0] != states.shape[0]:
            raise ValueError(f"feedback returned shape {u.shape} for "
                             f"{states.shape[0]} paths")
        return u


@dataclass(frozen=True)
class SpikeSpec:
    """Needle perturbation: control value v on the window [t0, t0 + eps)."""

    t0: float
    eps: float
    v: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.t0) or self.t0 < 0.0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")
        if not np.isfinite(self.eps) or self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        object.__setattr__(self, "v", as_vector(self.v, name="spike control"))

    def window(self, grid):
        """Resolve (k0, k1) grid-step indices; validates alignment."""
        k0 = grid.index_of(self.t0, what="spike start t0")
        span = grid.span_of(self.eps, what="spike width eps")
        if span < 1:
            raise ValueError(f"spike width {self.eps} spans zero grid steps "
                             f"(dt={grid.dt})")
        if k0 + span > grid.steps:
            raise ValueError(
                f"spike window [{self.t0}, {self.t0 + self.eps}) extends "
                f"past the horizon {grid.horizon}")
        return k0, k0 + span


@dataclass(frozen=True)
class SpikedPolicy(ControlPolicy):
    base: ControlPolicy
    spec: SpikeSpec
    k0: int
    k1: int

    def controls_at(self, k, t, states):
        if self.k0 <= k < self.k1:
            return np.broadcast_to(self.spec.v,
                                   (states.shape[0], self.spec.v.shape[0]))
        return self.base.controls_at(k, t, states)


def apply_spike(policy, spec, grid):
    """Policy equal to spec.v on the spike window and to ``policy`` elsewhere."""
    k0, k1 = spec.window(grid)
    return SpikedPolicy(base=policy, spec=spec, k0=k0, k1=k1)


@dataclass
class TrajectoryBundle:
    """One run of one policy: states on the full grid for every path of one
    noise bundle.

    ``recorded[k]`` is the (paths, control_dim) control the integrator
    applied at step k, kept so that costs, adjoints and residuals read it
    instead of evaluating the policy again.  Open-loop and spike rows are
    the broadcast views the policy returns and cost no memory; feedback
    rows cost paths * control_dim doubles per step.  Without a record (a
    ``recorded`` of None) reads evaluate the policy at the stored states,
    which gives the same values.

    ``states`` is indexed (paths, steps + 1, dim) but stored step-major, as
    the noise is: ``states[:, k, :]`` is one contiguous block, and states
    given in any other layout are copied into it.
    """

    states: np.ndarray
    policy: ControlPolicy
    bundle: NoiseBundle = field(repr=False)
    recorded: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 3:
            raise ValueError(f"states must be (paths, steps+1, dim), got "
                             f"shape {s.shape}")
        self.states = step_major(s)

    @property
    def paths(self):
        return self.states.shape[0]

    @property
    def grid(self):
        return self.bundle.grid

    def control_at(self, k):
        """Control applied at step k, shape (paths, control_dim)."""
        if self.recorded is not None:
            return self.recorded[k]
        return self.policy.controls_at(k, self.grid.times[k],
                                       self.states[:, k, :])

    def controls(self):
        """Realized controls per step, shape (paths, steps, control_dim)."""
        return np.stack([self.control_at(k) for k in range(self.grid.steps)],
                        axis=1)

    def drop_controls(self):
        """Release the recorded controls; later reads evaluate the policy."""
        self.recorded = None


def _euler(problem, policy, bundle, x, start, visit):
    """Euler steps from grid step ``start`` at state ``x``; returns X_T.

    ``visit(k, x_k, u_k, x_next)`` sees every step: the state at step k,
    the control applied there and the state at step k + 1.  Raises
    BlowUpError at the first non-finite state.
    """
    grid = bundle.grid
    times = grid.times
    dt = grid.dt
    for k in range(start, grid.steps):
        t = times[k]
        u = policy.controls_at(k, t, x)
        drift = problem.F(t, x, u)
        x_next = x + drift * dt + problem.G(t, x, bundle.increments[:, k, :])
        if not np.all(np.isfinite(x_next)):
            bad = np.argwhere(~np.isfinite(x_next).all(axis=1))[0, 0]
            raise BlowUpError(path=bad, step=k + 1, time=times[k + 1])
        visit(k, x, u, x_next)
        x = x_next
    return x


def integrate_forward(problem, policy, bundle, x0):
    """Euler-Maruyama forward run with left-point coefficients.

    X_{k+1} = X_k + F(t_k, X_k, u_k) dt + G(t_k, X_k) dM_k.  Raises
    BlowUpError naming the first offending path and step if the state
    leaves the finite range.
    """
    n = bundle.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(as_vector(x0, dim=n, name="x0"),
                             (bundle.paths, n))
    elif x0.shape != (bundle.paths, n):
        raise ValueError(f"x0 must have shape ({n},) or ({bundle.paths}, {n})")
    states = step_major_zeros(bundle.paths, bundle.steps + 1, n)
    states[:, 0, :] = x0
    recorded = [None] * bundle.steps

    def store(k, x, u, x_next):
        recorded[k] = u
        states[:, k + 1, :] = x_next

    _euler(problem, policy, bundle, states[:, 0, :].copy(), 0, store)
    trajectories = TrajectoryBundle(states=states, policy=policy,
                                    bundle=bundle)
    trajectories.recorded = recorded
    return trajectories


def stream_spiked(problem, base, spec, visit):
    """Re-run a base trajectory under a spike, keeping only the current state.

    Starts at the window start k0 from the base state there, which the
    spiked run shares with the base, so ``visit(k, x_k, u_k, x_next)`` sees,
    for k >= k0, the states and controls of the full re-integration
    ``integrate_forward(problem, apply_spike(base.policy, spec, grid),
    base.bundle, x0)``, bit for bit.  Returns the terminal state X_T, shape
    (paths, dim).
    """
    grid = base.grid
    k0, _ = spec.window(grid)
    policy = apply_spike(base.policy, spec, grid)
    return _euler(problem, policy, base.bundle, base.states[:, k0, :].copy(),
                  k0, visit)


@dataclass(frozen=True)
class FirstVariation:
    """First variations p of the state and zeta of the running cost along
    ``spike``, on ``optimal``.

    ``states`` has shape (paths, 2, n) and ``zeta`` (paths, 2): p and zeta
    at the window start t0 (column 0) and at T (column 1), the only times
    the duality identity and the cost derivative read.  They read only the
    spike's start and value v, never its width, so one first variation
    serves every eps of a difference quotient or rate ladder.
    """

    states: np.ndarray
    zeta: np.ndarray
    optimal: TrajectoryBundle = field(repr=False)
    spike: SpikeSpec


def integrate_variational(problem, optimal, spec):
    """First variations p and zeta along a spike, on the frozen trajectory.

    p(t0) = F(t0, X(t0), v) - F(t0, X(t0), u(t0)) and
    zeta(t0) = ell(t0, X(t0), v) - ell(t0, X(t0), u(t0)), then
    zeta_{k+1} = zeta_k + <ell_x(t_k, X_k, u_k), p_k> dt and
    p_{k+1} = p_k + F_x(t_k, X_k, u_k) p_k dt + (G_x(t_k, X_k)[p_k]) dM_k,
    driven by the optimal trajectory's own noise bundle and controls.
    Keeps only the running p and zeta, as ``stream_spiked`` keeps only
    the running state, and returns them at t0 and T.
    """
    bundle = optimal.bundle
    grid = bundle.grid
    times = grid.times
    dt = grid.dt
    k0, _ = spec.window(grid)
    x_at = optimal.states
    t0 = times[k0]
    x0 = x_at[:, k0, :]
    u0 = optimal.control_at(k0)
    v = np.broadcast_to(spec.v, u0.shape)
    p_start = p = problem.F(t0, x0, v) - problem.F(t0, x0, u0)
    z_start = z = problem.ell(t0, x0, v) - problem.ell(t0, x0, u0)
    for k in range(k0, grid.steps):
        t = times[k]
        xk = x_at[:, k, :]
        uk = optimal.control_at(k)
        z = z + np.einsum("pi,pi->p", problem.ell_x(t, xk, uk), p) * dt
        fx = problem.F_x(t, xk, uk)
        p = p + apply_operator(fx, p) * dt \
            + problem.G_x(t, xk, p, bundle.increments[:, k, :])
    return FirstVariation(states=np.stack((p_start, p), axis=1),
                          zeta=np.stack((z_start, z), axis=1),
                          optimal=optimal, spike=spec)


@dataclass(frozen=True)
class CostReport:
    """Monte Carlo cost estimate with per-path values for paired comparisons."""

    mean: float
    stderr: float
    per_path: np.ndarray = field(repr=False)

    @property
    def paths(self):
        return self.per_path.shape[0]


def _cost_report(total):
    mean, se = mean_se(total)
    return CostReport(mean=mean, stderr=se, per_path=total)


def evaluate_cost(problem, trajectories):
    """Left-Riemann running cost plus terminal cost, averaged over paths."""
    return spiked_costs(problem, trajectories, ())[0]


def spiked_costs(problem, base, specs):
    """Cost of a base run and, lazily, of its re-runs under each spike.

    Returns (base cost, costs): ``costs`` yields, for each spec in order and
    when it is read, the cost of the base run re-run under
    ``apply_spike(base.policy, spec, grid)``, without its states.  Each is
    bit-identical to ``evaluate_cost`` of the full re-integration: its
    running cost starts from the base run's cost over the shared prefix
    before the window start k0, kept from the one walk along the base run,
    and adds the terms of the steps from k0 on in the same order while
    ``stream_spiked`` steps.
    """
    grid = base.grid
    times = grid.times
    dt = grid.dt
    specs = tuple(specs)
    starts = {spec.window(grid)[0] for spec in specs}
    run = np.zeros(base.paths)
    prefix = {}
    for k in range(grid.steps):
        if k in starts:
            prefix[k] = run.copy()
        run += problem.ell(times[k], base.states[:, k, :],
                           base.control_at(k)) * dt
    base_cost = _cost_report(run + problem.h(base.states[:, -1, :]))

    def costs():
        for spec in specs:
            spiked = prefix[spec.window(grid)[0]].copy()

            def accumulate(k, x, u, x_next):
                np.add(spiked, problem.ell(times[k], x, u) * dt, out=spiked)

            x_end = stream_spiked(problem, base, spec, accumulate)
            yield _cost_report(spiked + problem.h(x_end))

    return base_cost, costs()


@dataclass(frozen=True)
class DerivativeReport:
    """Central-difference audit of the problem's analytic derivatives."""

    max_rel_error: dict
    flagged: tuple
    tol: float
    probes: int

    @property
    def passed(self):
        return not self.flagged


def _rel_err(analytic, fd):
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))),
                1e-8)
    return float(np.max(np.abs(analytic - fd))) / scale


def _central_diff(fn, point, rel_step):
    """Central differences of fn at a batch of one point, coordinate j last.

    Entry j is (fn(z + s_j e_j) - fn(z - s_j e_j)) / (2 s_j) with the step
    s_j = rel_step * max(1, |z_j|).
    """
    steps = rel_step * np.maximum(1.0, np.abs(point[0]))
    cols = []
    for j, step in enumerate(steps):
        dz = np.zeros_like(point)
        dz[0, j] = step
        cols.append((np.asarray(fn(point + dz), dtype=float)
                     - np.asarray(fn(point - dz), dtype=float)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _operator(action, basis):
    """(1, n, n) operator whose column j is action(basis[j])."""
    return np.stack([np.asarray(action(e), dtype=float) for e in basis],
                    axis=-1)


def finite_diff_check(problem, probes, rel_step=1e-5, tol=1e-4):
    """Check every analytic derivative at the probe points.

    ``probes`` is a sequence of (t, x, u) with 1-d x and u, u of the
    control set's dimension.  Central differences of F, G, ell and h, with
    steps rel_step * max(1, |coord|), audit the derivatives independently:
    no analytic derivative enters them.  Derivatives whose max relative
    error exceeds ``tol`` are flagged; G_x is compared one direction at a
    time, each on its own scale.  The diffusion operators are read off
    their actions on the basis vectors, column by column.  A problem declaring ``grad_x_ignores_u``
    gets one more entry of that name: the relative change of ell_x and F_x
    when every control coordinate moves by max(1, |u_j|).
    """
    m = problem.control_set.dim
    worst = dict.fromkeys(("F_x", "F_u", "G_x", "ell_x", "ell_u", "h_x"), 0.0)
    count = 0
    for t, x, u in probes:
        count += 1
        X = as_vector(x, name="probe state")[None, :]
        U = as_vector(u, dim=m, name="probe control")[None, :]
        n = X.shape[1]
        basis = np.eye(n)[:, None, :]
        g_x = np.stack([_operator(lambda e, d=d: problem.G_x(t, X, d, e),
                                  basis) for d in basis], axis=-1)
        # (name, analytic value, function of the perturbed point, the point
        # it perturbs); batch axes of length one broadcast away
        table = (
            ("F_x", problem.F_x(t, X, U), lambda z: problem.F(t, z, U), X),
            ("F_u", problem.F_u(t, X, U), lambda z: problem.F(t, X, z), U),
            ("G_x", g_x,
             lambda z: _operator(lambda e: problem.G(t, z, e), basis), X),
            ("ell_x", problem.ell_x(t, X, U),
             lambda z: problem.ell(t, z, U), X),
            ("ell_u", problem.ell_u(t, X, U),
             lambda z: problem.ell(t, X, z), U),
            ("h_x", problem.h_x(X), problem.h, X),
        )
        for name, analytic, fn, point in table:
            an = np.asarray(analytic, dtype=float)
            fd = _central_diff(fn, point, rel_step)
            if name == "G_x":
                err = max(_rel_err(an[..., j], fd[..., j]) for j in range(n))
            else:
                err = _rel_err(an, fd)
            worst[name] = max(worst[name], err)
        if problem.grad_x_ignores_u:
            moved = U + np.maximum(1.0, np.abs(U))
            worst["grad_x_ignores_u"] = max(
                worst.get("grad_x_ignores_u", 0.0),
                *(_rel_err(np.asarray(f(t, X, U), dtype=float),
                           np.asarray(f(t, X, moved), dtype=float))
                  for f in (problem.ell_x, problem.F_x)))

    flagged = tuple(name for name, err in worst.items() if err > tol)
    return DerivativeReport(max_rel_error=worst, flagged=flagged, tol=tol,
                            probes=count)
