"""Hamiltonian and adjoint backward equation solvers.

The Hamiltonian of the control problem is

    H(t, x, u, y, z) = ell(t, x, u) + <F(t, x, u), y>
                       + <G(t, x) Q^(1/2)(t), z Q^(1/2)(t)>_HS

with (y, z) a value of the adjoint pair (Y, Z).  The Hilbert-Schmidt term
is tr(G^T z Q), so it is read through any factor L with L L^T = Q; the
driver's own columns l_j = sqrt(alpha_j) beta_j give
sum_j <G(t, x) l_j, z l_j>, one diffusion action per driver component.
Its state gradient Gamma, <Gamma, e_d> = sum_j <(G_x[e_d]) l_j, z l_j>,
costs n actions of G_x per component in general.  An AffineDiffusion
(x . gamma) G~ + D has G_x[e_d] = gamma_d G~, so there
Gamma = gamma * sum_j <G~ l_j, z l_j>, one einsum.
The adjoint backward equation

    -dY = grad_x H(t, X, u, Y, Z) dt - Z dM - dN,   Y(T) = h_x(X(T))

is solved either explicitly (terminal gradient constant and the Hamiltonian
state-gradient vanishing at Z = 0, verified by probing) or by least-squares
Monte Carlo backward induction over a basis of state polynomials:

    Y_T = h_x(X_T)
    Z_k from the cross-moment identity E[Y_{k+1} (x) dM_k | X_k] = Z_k C_k,
        with C_k the step-integrated covariance; the regression target is
        centered by E-hat[Y_{k+1} | X_k], which changes nothing in the
        identity (the centering term is X_k-measurable and increments are
        conditionally mean-zero) and suppresses the variance of the
        estimator; the off-range part of Z_k is set to zero through the
        covariance pseudo-inverse
    Y_k = E-hat[Y_{k+1} | X_k] + grad_x H(t_k, X_k, u_k, Y-hat_k, Z_k) dt
        with a two-iteration Picard pass for the implicit Y-hat_k.

Each per-step projection E-hat[. | X_k] fits an intercept plus centered,
unit-variance features, keeping only singular directions above a relative
cutoff.  The cutoff matters because the paths all start at one point and
the driving noise has low rank, so for the first steps the realized states
sit on a thin manifold: polynomial features are then collinear to near
machine precision, and the unidentified directions would otherwise pick up
noise-amplified coefficients that explode when the fit is evaluated away
from the fitted cloud (as policy-improvement sweeps do).  Dropped
directions get zero coefficient, i.e. the flattest least-squares fit that
is exact on the retained directions.

The orthogonal-martingale part N is never represented pathwise; its
increments show up as the regression residual, recorded per step as a
diagnostic and flagged when they dominate the explained martingale energy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AffineDiffusion, sample_controls
from .hilbert import apply_operator
from .martingale import mean_se, step_covariances, step_major_zeros

# Largest condition number of a retained regression design.
CONDITION_LIMIT = 1e12
# Relative singular-value cutoff for the per-step feature regression.
# Directions below the cutoff carry under cutoff^2 of the design energy and
# are statistically unidentifiable at desk-scale path counts.
FEATURE_RCOND = 1e-3
# Picard iterations for the implicit Y-hat_k of each backward step.
PICARD_ITERS = 2
# Random probes, their seed and the relative tolerance with which the
# explicit solver confirms its preconditions.
EXPLICIT_PROBES = 16
EXPLICIT_PROBE_SEED = 2024
EXPLICIT_TOL = 1e-9
# Warn when the unexplained martingale energy exceeds this multiple of the
# energy explained by Z dM.
N_RESIDUAL_WARN_RATIO = 0.5


class RegressionRankError(RuntimeError):
    """The regression design matrix is numerically rank-deficient."""

    def __init__(self, step, cond, limit):
        self.step = int(step)
        self.cond = float(cond)
        super().__init__(
            f"regression design at step {self.step} has condition number "
            f"{cond:.3e} above the limit {limit:.1e}; enrich the paths or "
            f"shrink the basis")


def _paired(action, factor, zl):
    """sum_j <action(l_j), z l_j> per path, over the columns l_j of the
    covariance-rate factor; ``zl`` holds the (P, n, r) products z l_j."""
    total = np.zeros(zl.shape[0])
    for j, col in enumerate(factor.T):
        acted = action(np.broadcast_to(col, zl.shape[:2]))
        total += np.einsum("pi,pi->p", acted, zl[:, :, j])
    return total


def _control_terms(problem, t, x, u, y):
    """ell + <F, y>: the terms of H that depend on the control, shape (P,)."""
    return np.asarray(problem.ell(t, x, u), dtype=float) \
        + np.einsum("pi,pi->p", np.asarray(problem.F(t, x, u), dtype=float), y)


def hamiltonian(problem, factor, t, x, u, y, z):
    """Evaluate H at P points: ``x`` and ``y`` are (P, n), ``u`` is (P, m)
    and ``z`` is (P, n, n); returns shape (P,).  ``factor`` is
    ``driver.cov_rate_factor(t)``, the (n, r) factor of Q(t)."""
    return _control_terms(problem, t, x, u, y) \
        + _paired(lambda dm: problem.G(t, x, dm), factor, z @ factor)


def grad_x_hamiltonian(problem, factor, t, x, u, y, z):
    """State gradient of H.

    grad_x H = ell_x + F_x^T y + Gamma where Gamma is assembled against the
    basis directions: <Gamma, e_d> = sum_j <(G_x(x)[e_d]) l_j, z l_j> over
    the columns l_j of ``factor``.  An :class:`AffineDiffusion`
    ``problem.G`` gives Gamma in closed form instead.  Takes the arguments
    :func:`hamiltonian` takes; returns shape (P, n).
    """
    fx = np.asarray(problem.F_x(t, x, u), dtype=float)
    fxty = apply_operator(np.swapaxes(fx, -1, -2), y)
    grad = np.asarray(problem.ell_x(t, x, u), dtype=float) + fxty
    if isinstance(problem.G, AffineDiffusion):
        return grad + problem.G.state_gradient(factor, z)
    n = x.shape[1]
    zl = z @ factor
    gamma = np.empty((x.shape[0], n))
    for d, direction in enumerate(np.eye(n)):
        direction = np.broadcast_to(direction, x.shape)
        gamma[:, d] = _paired(lambda dm: problem.G_x(t, x, direction, dm),
                              factor, zl)
    return grad + gamma


@dataclass(frozen=True)
class RegressionBasis:
    """State polynomials up to the given degree (0, 1, or 2), with constant."""

    degree: int = 2

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise ValueError(f"supported degrees are 0, 1, 2; "
                             f"got {self.degree}")

    def feature_count(self, dim):
        count = 1
        if self.degree >= 1:
            count += dim
        if self.degree >= 2:
            count += dim * (dim + 1) // 2
        return count

    def min_paths(self, dim):
        """Fewest paths for a stable fit: more than 10 per basis feature."""
        return 10 * self.feature_count(dim) + 1

    def features(self, states):
        x = np.asarray(states, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"states must be (paths, dim), got {x.shape}")
        cols = [np.ones((x.shape[0], 1))]
        if self.degree >= 1:
            cols.append(x)
        if self.degree >= 2:
            ii, jj = np.triu_indices(x.shape[1])
            cols.append(x[:, ii] * x[:, jj])
        return np.concatenate(cols, axis=1)


@dataclass(frozen=True)
class _StepFit:
    """One backward-induction step's regression state.

    Predictions are intercept + centered/scaled features times
    coefficients; features whose sample spread vanished keep scale 1 so
    their centered column is zero and they drop out.
    """

    mu: np.ndarray       # (nb - 1,) feature means, constant column excluded
    scale: np.ndarray    # (nb - 1,) feature scales, 1.0 where degenerate
    y_mean: np.ndarray   # (n,)
    y_coef: np.ndarray   # (nb - 1, n)
    w_mean: np.ndarray   # (n * n,)
    w_coef: np.ndarray   # (nb - 1, n * n)


@dataclass
class AdjointSolution:
    """Adjoint pair along ``trajectories``, the candidate it was solved on.

    ``Y`` has shape (paths, steps + 1, n); the regression solver stores it
    step-major, like the states, and the explicit solver as a read-only
    broadcast view of its one constant row.  Z is exposed through
    :meth:`z_at` (per-step evaluation) rather than one dense array so the
    desk-scale memory stays bounded; ``n_residual_energy[k]`` records the
    mean squared unexplained martingale increment at step k (zero for the
    explicit method, whose orthogonal part vanishes by construction).
    """

    trajectories: object = field(repr=False)
    Y: np.ndarray
    method: str
    n_residual_energy: np.ndarray
    explained_energy: np.ndarray
    basis: RegressionBasis | None = None
    _problem: object = field(default=None, repr=False)
    _fits: list = field(default=None, repr=False)
    _c_pinv: np.ndarray = field(default=None, repr=False)

    @property
    def grid(self):
        return self.trajectories.grid

    @property
    def steps(self):
        return self.Y.shape[1] - 1

    @property
    def state_dim(self):
        return self.Y.shape[2]

    def y_at(self, k):
        """Y at grid index k, shape (paths, n), along the trajectories."""
        return self.Y[:, k, :]

    def _centered_features(self, k, states):
        fit = self._fits[k]
        phi = self.basis.features(np.asarray(states, dtype=float))
        return (phi[:, 1:] - fit.mu) / fit.scale

    def _z_fitted(self, k, xc):
        # one (paths * n, n) @ (n, n) product: a batched (paths, n, n) @
        # (n, n) matmul runs one small product per path
        fit = self._fits[k]
        n = self.state_dim
        w = (fit.w_mean + xc @ fit.w_coef).reshape(-1, n)
        return (w @ self._c_pinv[k]).reshape(xc.shape[0], n, n)

    def _step(self, k, states, xc, u):
        """Backward-induction (Y_k, Z_k) at ``states`` from fit k.

        Y_k is the projection E-hat[Y_{k+1} | X_k] plus the
        Hamiltonian-gradient correction, with a Picard pass for the implicit
        Y-hat_k.  The solver and :meth:`y_eval` both use this, so they agree
        bit for bit.  ``xc`` holds the centered features of ``states`` and
        ``u`` the policy's controls there.
        """
        fit = self._fits[k]
        t = self.grid.times[k]
        factor = self.trajectories.bundle.driver.cov_rate_factor(t)
        yhat0 = fit.y_mean + xc @ fit.y_coef
        z = self._z_fitted(k, xc)
        y = yhat0
        for _ in range(PICARD_ITERS):
            grad = grad_x_hamiltonian(self._problem, factor, t, states,
                                      u, y, z)
            y = yhat0 + grad * self.grid.dt
        return y, z

    def z_at(self, k, states=None):
        """Z at grid index k, shape matching the requested states.

        For the regression solution Z_k is a fitted function of the state;
        by default it is evaluated along the solution's own trajectories.
        """
        if self.method == "explicit" or k >= self.steps:
            count = self.Y.shape[0] if states is None \
                else np.asarray(states).shape[0]
            return np.zeros((count, self.state_dim, self.state_dim))
        if states is None:
            states = self.trajectories.states[:, k, :]
        return self._z_fitted(k, self._centered_features(k, states))

    def y_eval(self, k, states):
        """Evaluate the fitted Y_k at arbitrary states (regression method).

        On the solution's own states at step k this returns ``Y[:, k]``.
        The controls at ``states`` come from the trajectories' policy, the
        one place where a solution evaluates it, unless the problem
        declares ``grad_x_ignores_u`` and grad_x H needs no control.
        """
        states = np.asarray(states, dtype=float)
        if self.method == "explicit":
            return np.broadcast_to(self.Y[0, k, :],
                                   (states.shape[0], self.state_dim))
        if k >= self.steps:
            return np.asarray(self._problem.h_x(states), dtype=float)
        u = None if self._problem.grad_x_ignores_u \
            else self.trajectories.policy.controls_at(k, self.grid.times[k],
                                                      states)
        return self._step(k, states, self._centered_features(k, states),
                          u)[0]

    @property
    def n_residual_ratio(self):
        resid = float(np.sum(self.n_residual_energy))
        # dead-band: residual energy at the roundoff scale of the terminal
        # gradient is a zero, not a diagnostic (Z = 0 solutions would
        # otherwise report a ratio of pure noise)
        yk = self.Y[:, -1, :]
        y_scale = 1.0 + float(np.mean(np.einsum("pi,pi->p", yk, yk)))
        floor = 1e-24 * y_scale * max(1, self.steps)
        if resid <= floor:
            return 0.0
        explained = float(np.sum(self.explained_energy))
        if explained <= 0.0:
            return float("inf")
        return resid / explained


def solve_adjoint_explicit(problem, trajectories):
    """Closed-form adjoint along ``trajectories`` when probing confirms it.

    Preconditions, each checked by random probing at the scale
    max(1, max|X_0|) of the initial states: the terminal-cost gradient is
    state-independent, and grad_x H vanishes whenever the Z argument is
    zero.  Then Y is the constant terminal gradient, Z = 0 and N = 0 solve
    the backward equation exactly.
    """
    grid = trajectories.grid
    x0_scale = max(1.0, float(np.max(np.abs(trajectories.states[:, 0, :]))))
    n = trajectories.states.shape[2]
    driver = trajectories.bundle.driver
    rng = np.random.default_rng(np.random.SeedSequence(EXPLICIT_PROBE_SEED))
    states = x0_scale * rng.standard_normal((EXPLICIT_PROBES, n))
    hx = np.asarray(problem.h_x(states), dtype=float)
    dev = float(np.max(np.abs(hx - hx[0])))
    scale = 1.0 + float(np.max(np.abs(hx)))
    if dev > EXPLICIT_TOL * scale:
        raise ValueError(
            f"terminal cost gradient varies with the state (max deviation "
            f"{dev:.3e}); the explicit adjoint solution does not apply")
    y0 = hx[0].copy()
    controls = sample_controls(problem.control_set, EXPLICIT_PROBES, rng)
    ys = np.broadcast_to(y0, states.shape)
    z0 = np.zeros((EXPLICIT_PROBES, n, n))
    for t in np.linspace(0.0, grid.horizon, 5).tolist():
        grad = grad_x_hamiltonian(problem, driver.cov_rate_factor(t), t,
                                  states, controls, ys, z0)
        if float(np.max(np.abs(grad))) \
                > EXPLICIT_TOL * (1.0 + float(np.max(np.abs(y0)))):
            raise ValueError(
                "the Hamiltonian state-gradient does not vanish at Z = 0; "
                "the explicit adjoint solution does not apply")
    y_path = np.broadcast_to(y0, (trajectories.paths, grid.steps + 1, n))
    zeros = np.zeros(grid.steps)
    return AdjointSolution(trajectories=trajectories, Y=y_path,
                           method="explicit", n_residual_energy=zeros.copy(),
                           explained_energy=zeros.copy(), _problem=problem)


def solve_adjoint_lsmc(problem, trajectories, basis=None):
    """Least-squares Monte Carlo backward induction for the adjoint pair.

    Per-step conditional expectations are least-squares fits of an
    intercept plus centered, unit-variance basis features, restricted to
    singular directions above ``FEATURE_RCOND`` relative to the largest
    (see the module docstring for why the early steps make this
    necessary).  A design whose retained directions are still conditioned
    worse than ``CONDITION_LIMIT`` raises :class:`RegressionRankError`, and
    a residual ratio above ``N_RESIDUAL_WARN_RATIO`` warns.  The controls
    are the ones ``trajectories`` recorded when the states were integrated.
    """
    basis = basis if basis is not None else RegressionBasis(2)
    grid = trajectories.grid
    bundle = trajectories.bundle
    x = trajectories.states
    paths, _, n = x.shape
    if paths < basis.min_paths(n):
        raise ValueError(
            f"basis has {basis.feature_count(n)} features for {paths} paths; "
            f"need feature count < paths / 10 for a stable regression")
    eps = np.finfo(float).eps

    c_pinv = np.linalg.pinv(step_covariances(bundle.driver, grid),
                            rcond=1e-12, hermitian=True)

    y = step_major_zeros(paths, grid.steps + 1, n)
    y[:, grid.steps, :] = np.asarray(problem.h_x(x[:, grid.steps, :]),
                                     dtype=float)
    fits = [None] * grid.steps
    n_energy = np.zeros(grid.steps)
    explained = np.zeros(grid.steps)
    solution = AdjointSolution(
        trajectories=trajectories, Y=y, method="lsmc",
        n_residual_energy=n_energy, explained_energy=explained, basis=basis,
        _problem=problem, _fits=fits, _c_pinv=c_pinv)

    for k in range(grid.steps - 1, -1, -1):
        phi = basis.features(x[:, k, :])
        xfeat = phi[:, 1:]
        mu = xfeat.mean(axis=0) if xfeat.shape[1] else np.zeros(0)
        sd = xfeat.std(axis=0) if xfeat.shape[1] else np.zeros(0)
        scale = np.where(sd > 0.0, sd, 1.0)
        xc = (xfeat - mu) / scale

        u_k = s_k = vt_k = None
        if xc.shape[1]:
            u_svd, s_svd, vt_svd = np.linalg.svd(xc, full_matrices=False)
            if s_svd.size and s_svd[0] > 0.0:
                # never solve along directions indistinguishable from roundoff
                machine = max(xc.shape) * eps * s_svd[0]
                keep = s_svd > max(FEATURE_RCOND * s_svd[0], machine)
                if np.any(keep):
                    u_k = u_svd[:, keep]
                    s_k = s_svd[keep]
                    vt_k = vt_svd[keep]
                    # condition number of the design actually solved
                    cond = float(s_k[0] / s_k[-1])
                    if cond > CONDITION_LIMIT:
                        raise RegressionRankError(step=k, cond=cond,
                                                  limit=CONDITION_LIMIT)

        def fit(target):
            """Intercept plus retained-direction least squares."""
            t_mean = target.mean(axis=0)
            if u_k is None:
                return t_mean, np.zeros((xc.shape[1], target.shape[1]))
            coef = vt_k.T @ ((u_k.T @ (target - t_mean)) / s_k[:, None])
            return t_mean, coef

        y_mean, y_coef = fit(y[:, k + 1, :])
        yhat0 = y_mean + xc @ y_coef
        centered = y[:, k + 1, :] - yhat0
        dm = bundle.increments[:, k, :]
        target = (centered[:, :, None] * dm[:, None, :]).reshape(paths, n * n)
        w_mean, w_coef = fit(target)
        fits[k] = _StepFit(mu=mu, scale=scale, y_mean=y_mean, y_coef=y_coef,
                           w_mean=w_mean, w_coef=w_coef)
        y[:, k, :], z = solution._step(k, x[:, k, :], xc,
                                       trajectories.control_at(k))

        zdm = apply_operator(z, dm)
        resid = centered - zdm
        n_energy[k] = float(np.mean(np.einsum("pi,pi->p", resid, resid)))
        explained[k] = float(np.mean(np.einsum("pi,pi->p", zdm, zdm)))

    ratio = solution.n_residual_ratio
    if np.isfinite(ratio) and ratio > N_RESIDUAL_WARN_RATIO:
        warnings.warn(
            f"unexplained martingale residual energy is {ratio:.2f} of the "
            f"explained energy; the basis or path count may be too small",
            RuntimeWarning, stacklevel=2)
    return solution


@dataclass(frozen=True)
class DualityReport:
    """Both sides of the adjoint/first-variation duality identity.

    ``se_diff`` is the SE of the per-path lhs - rhs.  The report gives no
    verdict: scenario 2 passes ``difference`` and the unpaired
    SE_L + SE_R to ``pmp.within_3se``.
    """

    lhs: float
    rhs: float
    difference: float
    se_lhs: float
    se_rhs: float
    se_diff: float
    paths: int


def duality_check(adjoint, p):
    """Monte Carlo check of the duality identity

    E<Y(T), p(T)> = -E int_{t0}^{T} <ell_x(t, X, u), p> dt
                    + E<Y(t0), F(t0, X(t0), v) - F(t0, X(t0), u(t0))>

    for the spike that the first variation ``p`` follows, which must have
    been taken along the adjoint's own trajectories.  The last term reads
    p(t0), which is that difference of drifts, and the integral is
    zeta(T) - zeta(t0), the running-cost variation p carries at t0 and T.
    Reports both sides with standard errors and no verdict.
    """
    optimal = adjoint.trajectories
    if p.optimal is not optimal:
        raise ValueError("duality check needs the first variation taken "
                         "along the adjoint's own trajectories")
    grid = optimal.grid
    k0, _ = p.spike.window(grid)

    lhs_pp = np.einsum("pi,pi->p", adjoint.y_at(grid.steps),
                       p.states[:, -1, :])
    rhs_pp = np.einsum("pi,pi->p", adjoint.y_at(k0), p.states[:, 0, :]) \
        - (p.zeta[:, -1] - p.zeta[:, 0])

    lhs, se_lhs = mean_se(lhs_pp)
    rhs, se_rhs = mean_se(rhs_pp)
    return DualityReport(lhs=lhs, rhs=rhs, difference=lhs - rhs,
                         se_lhs=se_lhs, se_rhs=se_rhs,
                         se_diff=mean_se(lhs_pp - rhs_pp)[1],
                         paths=optimal.paths)
