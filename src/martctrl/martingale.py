"""Martingale drivers with a prescribed covariance-rate process.

A driver is a finite sum of rank-one components ``beta_i m_i(t)`` where the
``m_i`` are independent scalar continuous square-integrable martingales with
quadratic variation ``<m_i>_t = int_0^t alpha_i(s) ds``.  The covariance
rate of the vector-valued driver is then

    Q(t) = sum_i alpha_i(t) beta_i beta_i^T,

a symmetric PSD matrix dominated (in the PSD order) by the constant operator
``Q_bar = sum_i alpha_i_max beta_i beta_i^T``.  On a uniform grid the
increments are exact Gaussian draws: each component contributes
``beta_i * sqrt(int_{t_k}^{t_{k+1}} alpha_i(s) ds) * xi`` with iid standard
normal ``xi`` and the per-step integral computed by the trapezoid rule.

Noise bundles serialize to a flat binary file: a header of four little-endian
int64 fields (state_dim, steps, paths, seed) followed by the increments as
row-major (path, step, coordinate) little-endian float64.  The horizon is not
stored; the grid must be supplied again at load time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _parallel
from .hilbert import as_vector, psd_sqrt

_HEADER_STRUCT = struct.Struct("<qqqq")


def _as_time_array(t):
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class ScalarIntensity:
    """Deterministic intensity alpha(t) of one scalar component.

    ``alpha`` must accept float or ndarray arguments; ``alpha_max`` is the
    declared upper bound on [0, horizon].  Values are validated (positive,
    <= alpha_max) wherever the intensity is evaluated on a grid.
    """

    alpha: Callable[[np.ndarray], np.ndarray]
    alpha_max: float

    def __post_init__(self):
        if not np.isfinite(self.alpha_max) or self.alpha_max <= 0.0:
            raise ValueError(f"alpha_max must be positive, got {self.alpha_max}")

    @classmethod
    def constant(cls, value):
        value = float(value)
        return cls(alpha=lambda t: np.full_like(_as_time_array(t), value,
                                                dtype=float),
                   alpha_max=value)

    @classmethod
    def linear(cls, base, slope, horizon):
        """alpha(t) = base + slope * t on [0, horizon]."""
        base = float(base)
        slope = float(slope)
        horizon = float(horizon)
        bound = max(base, base + slope * horizon)
        return cls(alpha=lambda t: base + slope * _as_time_array(t),
                   alpha_max=bound)

    def values(self, times):
        """Evaluate on an array of times, enforcing 0 < alpha <= alpha_max."""
        t = _as_time_array(times)
        vals = np.asarray(self.alpha(t), dtype=float)
        if vals.shape != t.shape:
            vals = np.broadcast_to(vals, t.shape).astype(float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("intensity produced non-finite values")
        if np.any(vals <= 0.0):
            raise ValueError("intensity must be strictly positive on the grid")
        if np.any(vals > self.alpha_max * (1.0 + 1e-12)):
            raise ValueError(
                f"intensity exceeds declared alpha_max={self.alpha_max}")
        return vals


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self):
        return self.horizon / self.steps

    @property
    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, t, what="time"):
        """Grid index of an aligned time; rejects off-grid values."""
        r = float(t) / self.dt
        k = int(round(r))
        if abs(r - k) > 1e-9 * max(1.0, self.steps):
            raise ValueError(f"{what} {t} is not aligned to the grid "
                             f"(dt={self.dt})")
        if k < 0 or k > self.steps:
            raise ValueError(f"{what} {t} lies outside [0, {self.horizon}]")
        return k

    def span_of(self, duration, what="duration"):
        """Number of whole grid steps covered by an aligned duration."""
        r = float(duration) / self.dt
        m = int(round(r))
        if abs(r - m) > 1e-9 * max(1.0, self.steps):
            raise ValueError(f"{what} {duration} is not a whole number of "
                             f"grid steps (dt={self.dt})")
        return m


@dataclass(frozen=True)
class MartingaleDriver:
    """Finite sum of rank-one time-changed scalar Brownian components."""

    state_dim: int
    horizon: float
    components: tuple = ()
    # Q(t)^(1/2) by time, filled by cov_rate_sqrt
    _sqrt_memo: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {self.state_dim}")
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        normalized = []
        for i, (beta, intensity) in enumerate(self.components):
            b = as_vector(beta, dim=self.state_dim, name=f"beta[{i}]")
            if float(np.linalg.norm(b)) == 0.0:
                raise ValueError(f"beta[{i}] must be nonzero")
            if not isinstance(intensity, ScalarIntensity):
                raise TypeError(f"component {i} intensity must be a "
                                f"ScalarIntensity")
            normalized.append((b, intensity))
        object.__setattr__(self, "components", tuple(normalized))

    @property
    def n_components(self):
        return len(self.components)

    def betas(self):
        """Component directions stacked as an (n_components, state_dim) array."""
        if not self.components:
            return np.zeros((0, self.state_dim))
        return np.stack([b for b, _ in self.components])

    def _check_time(self, t):
        t = float(t)
        if t < -1e-12 or t > self.horizon * (1.0 + 1e-12):
            raise ValueError(f"time {t} outside horizon [0, {self.horizon}]")
        return min(max(t, 0.0), self.horizon)

    def cov_rate(self, t):
        """Covariance-rate operator Q(t) = sum_i alpha_i(t) beta_i beta_i^T."""
        t = self._check_time(t)
        q = np.zeros((self.state_dim, self.state_dim))
        for beta, intensity in self.components:
            a = float(intensity.values(np.asarray(t)))
            q += a * np.outer(beta, beta)
        return q

    def cov_rate_sqrt(self, t):
        """PSD square root Q(t)^(1/2), computed once per time and kept.

        The Hamiltonian, its state gradient, the optimality checks and the
        regression adjoint all ask for the root at the same grid times, so
        each distinct time costs one eigendecomposition per driver.  The
        returned array is read-only.
        """
        t = self._check_time(t)
        root = self._sqrt_memo.get(t)
        if root is None:
            root = psd_sqrt(self.cov_rate(t))
            root.flags.writeable = False
            self._sqrt_memo[t] = root
        return root

    def dominating_operator(self):
        """Constant PSD operator dominating every Q(t) in the PSD order."""
        q = np.zeros((self.state_dim, self.state_dim))
        for beta, intensity in self.components:
            q += intensity.alpha_max * np.outer(beta, beta)
        return q


def step_intensity_integrals(driver, grid):
    """Trapezoid-rule integrals of each alpha_i over every grid step.

    Returns an (n_components, steps) array with entries
    ``int_{t_k}^{t_{k+1}} alpha_i(s) ds``.
    """
    if abs(grid.horizon - driver.horizon) > 1e-12 * max(1.0, driver.horizon):
        raise ValueError(
            f"grid horizon {grid.horizon} does not match driver horizon "
            f"{driver.horizon}")
    times = grid.times
    out = np.zeros((driver.n_components, grid.steps))
    for i, (_, intensity) in enumerate(driver.components):
        vals = intensity.values(times)
        out[i] = 0.5 * (vals[:-1] + vals[1:]) * grid.dt
    return out


def step_covariances(driver, grid):
    """Per-step integrated covariances int_{t_k}^{t_{k+1}} Q(s) ds.

    Returns a (steps, state_dim, state_dim) array, consistent with the
    trapezoid convention of :func:`step_intensity_integrals`.
    """
    integrals = step_intensity_integrals(driver, grid)
    betas = driver.betas()
    if betas.shape[0] == 0:
        return np.zeros((grid.steps, driver.state_dim, driver.state_dim))
    return np.einsum("ik,ia,ib->kab", integrals, betas, betas)


@dataclass
class NoiseBundle:
    """Sampled driver increments on a grid, for a block of Monte Carlo paths.

    ``increments[p, k]`` is the driver increment over [t_k, t_{k+1}] for
    path p.  ``identity()`` is the (seed, paths, steps, dim) tuple; runs
    that share noise hold the one bundle object.
    """

    increments: np.ndarray
    seed: int
    grid: PathGrid
    driver: MartingaleDriver | None = field(default=None, repr=False)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 3:
            raise ValueError(f"increments must be 3-d (paths, steps, dim), "
                             f"got shape {inc.shape}")
        if inc.shape[1] != self.grid.steps:
            raise ValueError(
                f"increments have {inc.shape[1]} steps but grid has "
                f"{self.grid.steps}")
        self.increments = inc

    @property
    def paths(self):
        return self.increments.shape[0]

    @property
    def steps(self):
        return self.increments.shape[1]

    @property
    def dim(self):
        return self.increments.shape[2]

    def identity(self):
        return (int(self.seed), self.paths, self.steps, self.dim)

    def save(self, path):
        """Write the documented flat binary layout (header + float64 body)."""
        header = _HEADER_STRUCT.pack(self.dim, self.steps, self.paths,
                                     int(self.seed))
        body = np.ascontiguousarray(self.increments, dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(body.tobytes(order="C"))

    @classmethod
    def load(cls, path, grid, driver=None):
        """Read a bundle back; the grid (horizon) must be supplied again."""
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER_STRUCT.size)
            if len(raw) != _HEADER_STRUCT.size:
                raise ValueError(f"truncated noise file {path!r}")
            dim, steps, paths, seed = _HEADER_STRUCT.unpack(raw)
            body = np.frombuffer(fh.read(), dtype="<f8")
        if steps != grid.steps:
            raise ValueError(f"noise file has {steps} steps but grid has "
                             f"{grid.steps}")
        expected = paths * steps * dim
        if body.size != expected:
            raise ValueError(f"noise file body has {body.size} doubles, "
                             f"expected {expected}")
        inc = body.reshape(paths, steps, dim).astype(float)
        return cls(increments=inc, seed=seed, grid=grid, driver=driver)


def sample_increments(driver, grid, paths, seed):
    """Draw a NoiseBundle of exact Gaussian increments.

    Path p uses the dedicated substream SeedSequence(seed, spawn_key=(p,)),
    so the draw is reproducible and a larger ``paths`` extends a smaller one.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    integrals = step_intensity_integrals(driver, grid)
    scales = np.sqrt(integrals)                       # (ncomp, steps)
    betas = driver.betas()                            # (ncomp, dim)
    ncomp = driver.n_components
    steps = grid.steps
    dim = driver.state_dim
    seed = int(seed)

    def block(start, stop):
        out = np.zeros((stop - start, steps, dim))
        if ncomp == 0:
            return out
        for p in range(start, stop):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
            xi = rng.standard_normal((ncomp, steps))
            out[p - start] = (scales * xi).T @ betas
        return out

    blocks = _parallel.map_blocks(block, paths)
    increments = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return NoiseBundle(increments=increments, seed=seed, grid=grid,
                       driver=driver)


@dataclass(frozen=True)
class IsometryReport:
    """Monte Carlo vs quadrature sides of the stochastic-integral isometry."""

    mc_estimate: float
    quadrature_value: float
    difference: float
    mc_stderr: float
    paths: int

    def within(self, k=3.0):
        return abs(self.difference) <= k * self.mc_stderr


def _normalize_step_process(phi, steps, dim, times):
    a = phi
    if callable(a):
        mats = np.stack([np.asarray(a(t), dtype=float) for t in times[:-1]])
    else:
        mats = np.asarray(a, dtype=float)
        if mats.ndim == 2:
            mats = np.broadcast_to(mats, (steps,) + mats.shape)
    if mats.ndim != 3 or mats.shape[0] != steps:
        raise ValueError(f"step process must give one matrix per step, got "
                         f"shape {mats.shape}")
    if mats.shape[2] != dim:
        raise ValueError(
            f"step process matrices must have {dim} columns to act on the "
            f"driver, got {mats.shape[2]}")
    return mats


def verify_isometry(phi, driver, bundle):
    """Compare E|int Phi dM|^2 with its covariance-rate quadrature.

    ``phi`` is an operator-valued step process: a single matrix, an array of
    per-step matrices, or a callable of time evaluated at left endpoints.
    The Monte Carlo side sums Phi(t_k) dM_k over the bundle; the quadrature
    side integrates the squared Hilbert-Schmidt norm of Phi Q^(1/2) with the
    same per-step trapezoid convention used when sampling.
    """
    if bundle.dim != driver.state_dim:
        raise ValueError(f"bundle dimension {bundle.dim} does not match "
                         f"driver dimension {driver.state_dim}")
    grid = bundle.grid
    mats = _normalize_step_process(phi, grid.steps, driver.state_dim,
                                   grid.times)

    totals = np.zeros((bundle.paths, mats.shape[1]))
    for k in range(grid.steps):
        totals += bundle.increments[:, k, :] @ mats[k].T
    sq = np.einsum("pi,pi->p", totals, totals)
    mc = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(bundle.paths)) if bundle.paths > 1 \
        else float("inf")

    integrals = step_intensity_integrals(driver, grid)   # (ncomp, steps)
    betas = driver.betas()                               # (ncomp, dim)
    quad = 0.0
    if betas.shape[0]:
        projected = np.einsum("kab,ib->kia", mats, betas)  # (steps,ncomp,out)
        quad = float(np.einsum("kia,kia,ik->", projected, projected,
                               integrals))
    return IsometryReport(mc_estimate=mc, quadrature_value=quad,
                          difference=mc - quad, mc_stderr=se,
                          paths=bundle.paths)
