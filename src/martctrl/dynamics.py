"""Controlled forward dynamics, spike perturbations, and first variations.

The controlled state follows dX = F(t, X, u) dt + G(t, X) dM with M a
martingale driver, discretized by Euler-Maruyama with left-point coefficient
evaluation.  A spike perturbation replaces the control by a fixed value v on
a grid-aligned window [t0, t0 + eps).  The first variation p of the state
with respect to the spike and the running-cost variation zeta follow linear
equations driven by the frozen optimal trajectory and the same noise;
one walk steps both along that trajectory.  A walk over every step is a
rider (:class:`CostWalk`, :class:`VariationWalk`): its ``visit(k, x_k,
u_k, x_next, dM_k)`` rides the forward run, which then keeps only the
steps its readers ask for, or is replayed over a stored run, with the
same bits; either way dM_k is formed once per step.

Problem callables are vectorized over paths:

    F(t, X, U) -> (P, n)          F_x -> (n, n), (P, n, n), DiagonalBatch
    G(t, X, dM) -> (P, n)         the increment G(t, X) dM
    G_x(t, X, D, dM) -> (P, n)    (G_x(t, X)[D]) dM, derivative along D
    ell(t, X, U) -> (P,)          ell_x -> (P, n), ell_u -> (P, m)
    h(X) -> (P,)                  h_x(X) -> (P, n)
    F_u(t, X, U) -> (n, m) or (P, n, m)

with X, D and dM of shape (P, n), U of shape (P, m) and scalar t.  The
diffusion is only ever applied, so G and G_x return its action on the
driver directions dM and never an operator per path.  An AffineDiffusion
declares the form (X . gamma) G~ + D and serves as both G and G_x.

The callables and policies must act row by row: a row's result may not
depend on the other rows of the batch.  ``stream_spiked`` relies on it
when it steps spikes that share a start step in blocks, the bundle's
paths stacked once per spike.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
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
    optional: an absent D adds nothing rather than zeros.  The call takes
    an ``out`` buffer, which the Euler loop reuses across steps.

    Both actions scale the rows of dM G~^T one column at a time, in
    place: the same products as a broadcast ``[:, None]`` multiply, bit
    for bit, at about half its cost for the few columns of a state.  X may
    stack whole copies of dM's rows (a block of spikes): dM G~^T and dM D^T
    are then formed once and copied into each, the bits of the tiled call.
    """

    def __init__(self, gamma, g_tilde, d=None):
        self.gamma = np.asarray(gamma, dtype=float)
        self.g_tilde = np.asarray(g_tilde, dtype=float)
        # transposed once: the actions apply them as dM G~^T and dM D^T
        self._g_tilde_t = self.g_tilde.T.copy()
        self._d_t = None if d is None else np.asarray(d, dtype=float).T.copy()

    def _scaled(self, dm, scale, out=None):
        """dM G~^T with row p scaled by scale[p]; into ``out`` if given."""
        copies, rest = divmod(len(scale), len(dm))
        if rest:
            raise ValueError(f"{len(scale)} states are not whole copies of "
                             f"{len(dm)} increments")
        if copies == 1:
            out = np.matmul(dm, self._g_tilde_t, out=out)
        else:
            if out is None:
                out = np.empty((len(scale), self.g_tilde.shape[0]))
            out.reshape(copies, len(dm), -1)[:] = dm @ self._g_tilde_t
        for column in out.T:
            np.multiply(column, scale, out=column)
        return out

    def __call__(self, t, x, dm, out=None):
        """G(t, X) dM as dM G~^T scaled by X . gamma, plus dM D^T; written
        into ``out`` when it is given."""
        out = self._scaled(dm, x @ self.gamma, out=out)
        if self._d_t is not None:
            stacked = out.reshape(-1, *dm.shape)
            stacked += dm @ self._d_t
        return out

    def derivative(self, t, x, dirs, dm):
        return self._scaled(dm, dirs @ self.gamma)

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
    needs its transpose; a ``DiagonalBatch`` is its own.
    ``grad_x_ignores_u`` declares that ``ell_x`` and ``F_x`` do not read
    the control (:func:`finite_diff_check` audits it).
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
    """``base`` under a block of spikes that share the start step k0.

    The states stack one copy of the paths per member: member i owns the
    i-th run of rows and applies ``v[i]`` on its window [k0, k1[i]) and
    the base control elsewhere.  ``stream_spiked`` builds one per block of
    its specs; ``apply_spike`` builds the one-member case, whose rows
    inside the window are a broadcast view of v.  Several members all
    inside their windows get one C-contiguous ``np.repeat`` of v, the
    bytes of a broadcast reshaped, at a tenth of its cost.
    """

    base: ControlPolicy
    v: np.ndarray        # (members, control_dim)
    k0: int
    k1: np.ndarray       # (members,)

    def controls_at(self, k, t, states):
        on = (self.k0 <= k) & (k < self.k1)
        if not on.any():
            return self.base.controls_at(k, t, states)
        members, m = self.v.shape
        rows = states.shape[0] // members
        if on.all():
            if members == 1:
                return np.broadcast_to(self.v, (rows, m))
            return np.repeat(self.v, rows, axis=0)
        u = np.array(self.base.controls_at(k, t, states), dtype=float)
        u.reshape(members, rows, m)[on] = self.v[on, None, :]
        return u


def apply_spike(policy, spec, grid):
    """Policy equal to spec.v on the spike window and to ``policy`` elsewhere."""
    k0, k1 = spec.window(grid)
    return SpikedPolicy(base=policy, v=np.stack([spec.v]), k0=k0,
                        k1=np.array([k1]))


@dataclass
class TrajectoryBundle:
    """One run of one policy: its states at the kept grid steps for every
    path of one noise bundle, and the ``riders`` that rode the run.

    ``recorded[k]`` is the (paths, control_dim) control the integrator
    applied at step k, kept so that costs, adjoints and residuals read it
    instead of evaluating the policy again.  Open-loop and spike rows are
    the broadcast views the policy returns and cost no memory; feedback
    rows cost paths * control_dim doubles per step.  Without a record (a
    ``recorded`` of None) reads evaluate the policy at the stored states,
    which gives the same values.

    ``states[:, j]`` holds step ``kept[j]`` (every step if ``kept`` is
    None), read through :meth:`state_at` and one step-to-slot map.
    It is indexed (paths, kept steps, dim) but stored step-major, as the
    noise is: ``states[:, j, :]`` is one contiguous block, and states
    given in any other layout are copied into it.
    """

    states: np.ndarray
    policy: ControlPolicy
    bundle: NoiseBundle = field(repr=False)
    kept: tuple | None = None
    riders: tuple = ()
    recorded: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 3 or (self.kept is not None
                           and s.shape[1] != len(self.kept)):
            raise ValueError(f"states must be (paths, kept steps, dim), got "
                             f"shape {s.shape}")
        self.states = step_major(s)
        self._slot = {k: j for j, k in enumerate(
            range(s.shape[1]) if self.kept is None else self.kept)}

    @property
    def paths(self):
        return self.states.shape[0]

    @property
    def grid(self):
        return self.bundle.grid

    def state_at(self, k):
        """States at grid step k, (paths, dim); ValueError if not kept."""
        if k not in self._slot:
            raise ValueError(f"step {k} was not kept; the run kept steps "
                             f"{list(self._slot)}")
        return self.states[:, self._slot[k], :]

    def replay(self, rider, start=0):
        """Walk ``rider`` over the steps from ``start`` on as if it rode the
        forward run (a step not kept raises); returns the rider."""
        dm = np.empty((self.bundle.paths, self.bundle.dim))
        for k in range(start, self.grid.steps):
            rider.visit(k, self.state_at(k), self.control_at(k),
                        self.state_at(k + 1), self.bundle.step(k, out=dm))
        return rider

    def control_at(self, k):
        """Control applied at step k, shape (paths, control_dim)."""
        if self.recorded is not None:
            return self.recorded[k]
        return self.policy.controls_at(k, self.grid.times[k],
                                       self.state_at(k))

    def controls(self):
        """Realized controls per step, shape (paths, steps, control_dim)."""
        return np.stack([self.control_at(k) for k in range(self.grid.steps)],
                        axis=1)

    def drop_controls(self):
        """Release the recorded controls; later reads evaluate the policy."""
        self.recorded = None


def _euler(problem, policy, bundle, x, start, visit):
    """Euler steps from grid step ``start`` at state ``x``; returns X_T.

    ``x`` holds the bundle's paths, or whole copies of them stacked along
    the path axis (a block of spikes).  An AffineDiffusion takes each
    step's ``bundle.step`` as it is; for any other G it is tiled to
    match.  Both go into buffers reused across steps.  ``visit(k, x_k, u_k,
    x_next, dm)`` sees every step: the state at step k, the control
    applied there, the state at step k + 1 (a fresh array the visitor may
    keep) and step k's untiled increments (a buffer reused across steps).
    Raises BlowUpError at the first non-finite state.

    X_{k+1} = X_k + F dt + G dM is built in place as F dt, then + X_k,
    then + G dM: the same operations on the same operands, so the same
    bits.  An AffineDiffusion writes G dM into one buffer reused across
    steps.
    """
    grid = bundle.grid
    times = grid.times
    dt = grid.dt
    copies = x.shape[0] // bundle.paths
    affine = isinstance(problem.G, AffineDiffusion)
    tiled = np.empty(x.shape) if copies > 1 and not affine else None
    action = {"out": np.empty(x.shape)} if affine else {}
    step_dm = np.empty((bundle.paths, bundle.dim))
    for k in range(start, grid.steps):
        t = times[k]
        u = policy.controls_at(k, t, x)
        dm = bundle.step(k, out=step_dm)
        if tiled is not None:
            tiled.reshape(copies, bundle.paths, -1)[:] = dm
        x_next = problem.F(t, x, u) * dt
        x_next += x
        x_next += problem.G(t, x, dm if tiled is None else tiled, **action)
        if not np.all(np.isfinite(x_next)):
            bad = np.argwhere(~np.isfinite(x_next).all(axis=1))[0, 0]
            raise BlowUpError(path=bad, step=k + 1, time=times[k + 1])
        visit(k, x, u, x_next, dm)
        x = x_next
    return x


def _step_index(k):
    """A ``keep`` entry as an integer step; numpy integers pass."""
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"keep names {k!r}, not an integer step") from None


def integrate_forward(problem, policy, bundle, x0, keep=None, riders=()):
    """Euler-Maruyama forward run with left-point coefficients.

    X_{k+1} = X_k + F(t_k, X_k, u_k) dt + G(t_k, X_k) dM_k.  Raises
    BlowUpError naming the first offending path and step if the state
    leaves the finite range.

    The result keeps the states of the integer steps in ``keep`` (None:
    all), and each of ``riders`` visits every step as the run makes it.
    """
    n = bundle.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(as_vector(x0, dim=n, name="x0"),
                             (bundle.paths, n))
    elif x0.shape != (bundle.paths, n):
        raise ValueError(f"x0 must have shape ({n},) or ({bundle.paths}, {n})")
    steps, riders = range(bundle.steps + 1), tuple(riders)
    kept = steps if keep is None else sorted({_step_index(k) for k in keep})
    if kept and not 0 <= kept[0] <= kept[-1] <= bundle.steps:
        raise ValueError(f"keep {kept} names steps outside 0..{bundle.steps}")
    run = TrajectoryBundle(
        states=step_major_zeros(bundle.paths, len(kept), n), policy=policy,
        bundle=bundle, riders=riders,
        kept=None if len(kept) == len(steps) else tuple(kept))
    run.recorded, slot = [None] * bundle.steps, run._slot
    if 0 in slot:
        run.states[:, 0, :] = x0

    def store(k, x, u, x_next, dm):
        run.recorded[k] = u
        if k + 1 in slot:
            run.states[:, slot[k + 1], :] = x_next
        for rider in riders:
            rider.visit(k, x, u, x_next, dm)

    _euler(problem, policy, bundle, np.array(x0, order="C"), 0, store)
    return run


# Rows of one block of spikes stepped together, each block forming its
# steps' increments anew.  On example1 at 2000 paths x 200 steps with 100
# spikes, 8192 rows ran 7% slower and 16384 2% faster, with 0.6 MB more
# peak RSS and 4% more page faults, than these 12288.
BLOCK_ROWS = 12288


def stream_spiked(problem, base, specs, visit):
    """Re-run a base trajectory under spikes that share their window start
    k0 (a ValueError otherwise), keeping only the current state.

    The stacked rows hold the base run's paths once per spec, in spec
    order.  They step in consecutive blocks of at most BLOCK_ROWS rows,
    one spec per block on a one-path bundle (numpy multiplies a one-row
    batch with its matrix-vector kernel, a larger one would move the last
    bits).  Each block starts at k0 from the base states there, which
    each spiked run shares with the base, and ``visit(rows, k, x_k, u_k,
    x_next, dm)`` sees each of its steps k >= k0: ``rows`` is the slice of
    the stacked rows the block holds, and in the rows of spec i the
    states and controls are those of the full re-integration
    ``integrate_forward(problem, apply_spike(base.policy, specs[i],
    grid), base.bundle, x0)``, bit for bit, if the problem and the policy
    act row by row.  X(T) is the ``x_next`` of the last step.

    A block of several specs that blows up re-runs each of them alone, in
    order, and raises the first BlowUpError of those runs, which names a
    path of the spec's own copy of the paths.
    """
    windows = [spec.window(base.grid) for spec in specs]
    starts = sorted({start for start, _ in windows})
    if len(starts) != 1:
        raise ValueError(f"a block of spikes needs one start step, got "
                         f"{starts}")
    k0 = starts[0]
    paths = base.paths
    size = 1 if paths == 1 else max(1, BLOCK_ROWS // paths)
    x_start = base.state_at(k0)
    for first in range(0, len(specs), size):
        chunk = slice(first, first + size)
        block = SpikedPolicy(
            base=base.policy, v=np.stack([spec.v for spec in specs[chunk]]),
            k0=k0, k1=np.array([end for _, end in windows[chunk]]))
        members = len(block.k1)
        rows = slice(first * paths, (first + members) * paths)
        try:
            _euler(problem, block, base.bundle, np.tile(x_start, (members, 1)),
                   k0, partial(visit, rows))
        except BlowUpError:
            if members == 1:
                raise
            for spec in specs[chunk]:
                stream_spiked(problem, base, [spec], lambda *step: None)
            raise


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


class VariationWalk:
    """Rider that steps the first variations p and zeta along ``spec``.

    p(t0) = F(t0, X(t0), v) - F(t0, X(t0), u(t0)) and
    zeta(t0) = ell(t0, X(t0), v) - ell(t0, X(t0), u(t0)), then
    zeta_{k+1} = zeta_k + <ell_x(t_k, X_k, u_k), p_k> dt and
    p_{k+1} = p_k + F_x(t_k, X_k, u_k) p_k dt + (G_x(t_k, X_k)[p_k]) dM_k,
    driven by the run's increments dM_k and controls (a ``DiagonalBatch``
    F_x steps p by its diagonals) on the run's ``grid``.  Keeps only the
    running p and zeta, as ``stream_spiked`` keeps only the running state;
    :meth:`first_variation` gives them at t0 and T.
    """

    def __init__(self, problem, grid, spec):
        self.problem, self.grid, self.spec = problem, grid, spec
        self.k0, _ = spec.window(grid)

    def visit(self, k, x, u, x_next, dm):
        if k < self.k0:
            return
        f, t, dt = self.problem, self.grid.times[k], self.grid.dt
        if k == self.k0:
            v = np.broadcast_to(self.spec.v, u.shape)
            self.start = self.p, self.z = (f.F(t, x, v) - f.F(t, x, u),
                                           f.ell(t, x, v) - f.ell(t, x, u))
        p = self.p
        self.z = self.z + np.einsum("pi,pi->p", f.ell_x(t, x, u), p) * dt
        self.p = p + apply_operator(f.F_x(t, x, u), p) * dt \
            + f.G_x(t, x, p, dm)

    def first_variation(self, optimal):
        """The walk's p and zeta, taken along the run ``optimal``."""
        return FirstVariation(states=np.stack((self.start[0], self.p), axis=1),
                              zeta=np.stack((self.start[1], self.z), axis=1),
                              optimal=optimal, spike=self.spec)


def integrate_variational(problem, optimal, spec):
    """First variations p and zeta along a spike, on the frozen trajectory:
    a :class:`VariationWalk` replayed over ``optimal``."""
    walk = VariationWalk(problem, optimal.grid, spec)
    return optimal.replay(walk, walk.k0).first_variation(optimal)


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


class CostWalk:
    """Rider that adds a run's left-Riemann running cost and its terminal
    cost per path into ``total`` (zeros unless given; a spike's walk
    starts from the base's sum), and keeps in ``prefix[k]`` the sum before
    step k for each k of ``starts``: a spike starting at k shares it."""

    def __init__(self, problem, grid, starts=(), total=None):
        self.problem, self.grid, self.total = problem, grid, total
        self.prefix = dict.fromkeys(starts)

    def visit(self, k, x, u, x_next, dm):
        if self.total is None:
            self.total = np.zeros(x.shape[0])
        if k in self.prefix:
            self.prefix[k] = self.total.copy()
        self.total += self.problem.ell(self.grid.times[k], x, u) * self.grid.dt
        if k == self.grid.steps - 1:
            self.total += self.problem.h(x_next)


def spiked_costs(problem, base, specs):
    """Cost of a base run and of its re-runs under each spike.

    Returns (base cost, costs): ``costs`` lists, for each spec in order,
    the cost of the base run re-run under
    ``apply_spike(base.policy, spec, grid)``, without its states.  Each is
    bit-identical to ``evaluate_cost`` of the full re-integration: its
    running cost starts from the base run's cost over the shared prefix
    before the window start k0, kept from the one :class:`CostWalk` along
    the base run (one for ``problem`` that rode it, else one replayed over
    its stored steps), and adds the terms of the steps from k0 on in the
    same order.

    A spec whose ``v`` has the bytes of an ``OpenLoopPolicy`` base's
    ``u`` changes no control, so its re-run would repeat the base run
    operation for operation: its cost is the base cost, without stepping.
    The other specs re-run in one ``stream_spiked`` call per start step,
    the start steps in the order of their first spec; the first
    BlowUpError that call raises propagates.
    """
    grid = base.grid
    specs = tuple(specs)
    starts = [spec.window(grid)[0] for spec in specs]
    walk = next((r for r in base.riders if isinstance(r, CostWalk)
                 and r.problem is problem and set(starts) <= r.prefix.keys()),
                None) or base.replay(CostWalk(problem, grid, starts))
    base_cost = _cost_report(walk.total)

    groups = {}
    for i, (spec, k0) in enumerate(zip(specs, starts)):
        if not (isinstance(base.policy, OpenLoopPolicy)
                and spec.v.tobytes() == base.policy.u.tobytes()):
            groups.setdefault(k0, []).append(i)
    costs = [base_cost] * len(specs)
    for k0, members in groups.items():
        total = np.tile(walk.prefix[k0], len(members))
        # one walk per block, so h too is added per block: on one path a
        # block is one row, which numpy multiplies with another kernel
        walks = {}

        def accumulate(rows, k, x, u, x_next, dm):
            if rows.start not in walks:
                walks[rows.start] = CostWalk(problem, grid, total=total[rows])
            walks[rows.start].visit(k, x, u, x_next, dm)

        stream_spiked(problem, base, [specs[i] for i in members], accumulate)
        for i, row in zip(members, total.reshape(len(members), -1)):
            costs[i] = _cost_report(row)
    return base_cost, costs


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
