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

A sampled NoiseBundle holds only those scaled normals, laid out (component,
step, path); ``bundle.step(k, out)`` forms step k's contiguous (path,
coordinate) increments 0 + sum_i xi_ik beta_i when they are read, so a
product of -0.0 gives +0.0 as in a sum from zeros.  A bundle built from an
increments array keeps it, step-major, and ``step(k)`` is a view of it.
Noise bundles serialize to a flat binary file: a header of four
little-endian int64 fields (state_dim, steps, paths, seed) followed by the
increments as row-major (path, step, coordinate) little-endian float64.
A bundle carries the driver it was sampled from, so verify_isometry(phi,
bundle) takes no driver; the file stores neither that driver nor the
horizon, so NoiseBundle.load(path, driver) takes the driver again and
rebuilds the grid from its horizon and the stored step count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .hilbert import as_vector

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

    @cached_property
    def times(self):
        """The ``steps + 1`` grid times, built once per grid, read-only."""
        times = np.linspace(0.0, self.horizon, self.steps + 1)
        times.flags.writeable = False
        return times

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

    def cov_rate_factor(self, t):
        """Factor L(t) of Q(t) = L(t) L(t)^T: the (state_dim, n_components)
        columns sqrt(alpha_i(t)) beta_i, (state_dim, 0) without components.

        Any such factor pairs operators in the Hilbert-Schmidt norm of
        Q^(1/2): <A Q^(1/2), B Q^(1/2)>_HS = sum_j <A l_j, B l_j>.
        """
        t = self._check_time(t)
        alphas = [float(intensity.values(np.asarray(t)))
                  for _, intensity in self.components]
        return self.betas().T * np.sqrt(alphas)


def step_major_zeros(paths, steps, *tail):
    """Zeros indexed (paths, steps, *tail) with the step axis outermost in
    memory, so that each block ``a[:, k]`` is C-contiguous."""
    return np.zeros((steps, paths) + tail).swapaxes(0, 1)


def step_major(a):
    """``a``, indexed (paths, steps, ...), laid out as
    :func:`step_major_zeros` lays out its arrays: ``a`` itself when it
    already is, else a step-major copy with equal values."""
    a = np.asarray(a, dtype=float)
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


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


class NoiseBundle:
    """Increments of ``driver`` on a grid, for a block of Monte Carlo paths.

    ``increments[p, k]`` is the driver increment over [t_k, t_{k+1}] for
    path p, and ``step(k)`` its C-contiguous (paths, dim) block.  A bundle
    built from an increments array keeps it step-major (:func:`step_major`
    copies any other layout), and ``step(k)`` is a view of it.  A sampled
    bundle holds the scaled normals only: ``step(k, out)`` forms the block
    and ``increments`` is built anew on each read.  :meth:`save` writes the
    path-major file format.  Runs that share noise hold the one bundle
    object.  Everything that pairs the increments with the driver's
    covariances reads ``driver`` here.
    """

    def __init__(self, increments, seed, grid, driver):
        inc = np.asarray(increments, dtype=float)
        if inc.ndim != 3:
            raise ValueError(f"increments must be 3-d (paths, steps, dim), "
                             f"got shape {inc.shape}")
        if inc.shape[1] != grid.steps:
            raise ValueError(
                f"increments have {inc.shape[1]} steps but grid has "
                f"{grid.steps}")
        if inc.shape[2] != driver.state_dim:
            raise ValueError(
                f"increments have dimension {inc.shape[2]} but the driver "
                f"has state_dim {driver.state_dim}")
        self._held, self._normals = step_major(inc), None
        self.seed, self.grid, self.driver = seed, grid, driver
        self.paths, self.steps, self.dim = inc.shape

    @classmethod
    def _of_normals(cls, xi, seed, grid, driver):
        """A bundle of the (n_components >= 1, steps, paths) normals xi."""
        b = cls.__new__(cls)
        b._held, b._normals, b._betas = None, xi, driver.betas()
        b.seed, b.grid, b.driver = seed, grid, driver
        b.paths, b.steps, b.dim = xi.shape[2], grid.steps, driver.state_dim
        return b

    def step(self, k, out=None):
        """Step k's (paths, dim) increments, as returned; a sampled bundle
        forms into ``out`` the first component's products column by column,
        ``+= 0.0`` (-0.0 sums to +0.0, as from zeros), then the others'."""
        if self._normals is None:
            return self._held[:, k, :]
        out = np.empty((self.paths, self.dim)) if out is None else out
        first = self._normals[0, k]
        for column, b in zip(out.T, self._betas[0]):
            np.multiply(first, b, out=column)
        out += 0.0
        if len(self._betas) > 1:
            for x, beta in zip(self._normals[1:, k], self._betas[1:]):
                out += x[:, None] * beta
        return out

    @property
    def increments(self):
        """The (paths, steps, dim) increments, step-major."""
        if self._normals is None:
            return self._held
        steps = [self.step(k) for k in range(self.steps)]
        return np.stack(steps).swapaxes(0, 1)

    def save(self, path):
        """Write the documented flat binary layout (header + float64 body).

        The header stores the seed as a signed int64: a seed outside
        [-2**63, 2**63 - 1] raises ValueError before ``path`` is opened.
        """
        seed = int(self.seed)
        if not -2 ** 63 <= seed < 2 ** 63:
            raise ValueError(f"seed {seed} does not fit the noise file "
                             f"header's int64 range [-2**63, 2**63 - 1]")
        header = _HEADER_STRUCT.pack(self.dim, self.steps, self.paths, seed)
        body = np.ascontiguousarray(self.increments, dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(body.tobytes(order="C"))

    @classmethod
    def load(cls, path, driver):
        """Read back a bundle sampled from ``driver``; the grid is rebuilt
        from ``driver.horizon`` and the stored step count."""
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER_STRUCT.size)
            if len(raw) != _HEADER_STRUCT.size:
                raise ValueError(f"truncated noise file {path!r}")
            dim, steps, paths, seed = _HEADER_STRUCT.unpack(raw)
            body = np.frombuffer(fh.read(), dtype="<f8")
        if dim != driver.state_dim:
            raise ValueError(f"noise file has dimension {dim} but the driver "
                             f"has state_dim {driver.state_dim}")
        expected = paths * steps * dim
        if body.size != expected:
            raise ValueError(f"noise file body has {body.size} doubles, "
                             f"expected {expected}")
        inc = step_major_zeros(paths, steps, dim)
        inc[...] = body.reshape(paths, steps, dim)
        return cls(increments=inc, seed=seed,
                   grid=PathGrid(horizon=driver.horizon, steps=steps),
                   driver=driver)


# numpy's SeedSequence hash constants and pool size, and the multiplier of
# PCG64's 128-bit LCG: _seed_words and _pcg64_state reproduce their seeding
# of one substream per path
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK128 = (1 << 128) - 1
_SEED_BLOCK = 512           # paths seeded at once: bounds the words held


def _hashmix(value, hash_const):
    """SeedSequence's hashmix of an int or a uint32 array; advances the
    one-item list ``hash_const``."""
    value = value ^ hash_const[0]
    hash_const[0] = (hash_const[0] * _MULT_A) & _MASK32
    value = (value * hash_const[0]) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of ints or uint32 arrays; each product is reduced
    mod 2**32 before an int meets an array."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) \
        & _MASK32
    return result ^ (result >> 16)


def _seed_words(seed, start, stop):
    """``SeedSequence(entropy=seed, spawn_key=(p,)).generate_state(8)`` for
    each path p in [start, stop), as a (stop - start, 8) uint32 array.

    The pool mixed from the seed alone is built once in ints; the spawn-key
    word p, mixed in last, and the words drawn from the pool are uint32
    arrays over p.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"path indices [{start}, {stop}) must lie in "
                         f"[0, 2**32]")
    words = []                      # little-endian 32-bit words of the seed
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = [_INIT_A]
    pool = [_hashmix(w, hash_const) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(w, hash_const))
    key = np.arange(start, stop, dtype=np.uint32)
    pool = [_mix(w, _hashmix(key, hash_const)) for w in pool]
    out = np.empty((stop - start, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        out[:, i] = value ^ (value >> 16)
    return out


def _pcg64_state(w):
    """The state PCG64 seeds itself to from the eight words ``w`` (ints).

    Its uint64 seed words are s_j = w[2j] | w[2j+1] << 32; it reads
    initstate = (s0, s1) and initseq = (s2, s3) high word first and sets
    inc = 2 initseq + 1 and state = (inc + initstate) M + inc mod 2**128.
    """
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    inc = (initseq << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def sample_increments(driver, grid, paths, seed):
    """Draw a NoiseBundle of exact Gaussian increments.

    Path p uses the dedicated substream SeedSequence(seed, spawn_key=(p,)),
    so the draw is reproducible and a larger ``paths`` extends a smaller one.
    The substreams are numpy's own; their PCG64 states are seeded in one
    vectorized pass per block of paths that reproduces numpy's
    SeedSequence/PCG64 seeding (``_seed_words``, ``_pcg64_state``), and
    tests/test_martingale.py pins that to the installed numpy.  One reused
    generator takes each path's state and draws its (n_components, steps)
    normals into a step-major array; the bundle holds them scaled, and
    forms each step's increments when it is read (:meth:`NoiseBundle.step`).
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    scales = np.sqrt(step_intensity_integrals(driver, grid))  # (ncomp, steps)
    seed = int(seed)
    ncomp, steps = driver.n_components, grid.steps
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    row = np.empty((ncomp, steps))
    raw = np.empty((ncomp, steps, paths))          # normals, step-major
    for start in range(0, paths, _SEED_BLOCK):
        words = _seed_words(seed, start, min(start + _SEED_BLOCK, paths))
        for p, w in enumerate(words, start):
            bit_generator.state = _pcg64_state(w.tolist())
            generator.standard_normal(out=row)
            raw[:, :, p] = row
    if not ncomp:
        return NoiseBundle(step_major_zeros(paths, steps, driver.state_dim),
                           seed, grid, driver)
    # scaled into a new array, so that returning frees ``raw``: glibc then
    # raises its mmap threshold past the per-step temporaries of 128 KB or
    # more, which would otherwise be mmapped and page-faulted at each step
    return NoiseBundle._of_normals(raw * scales[:, :, None], seed, grid,
                                   driver)


def mean_se(values):
    """Monte Carlo mean of per-path values and its standard error.

    The SE is std(ddof=1) / sqrt(paths), NaN below two paths, so that no
    check passes against it.
    """
    n = values.shape[0]
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 \
        else float("nan")
    return float(np.mean(values)), se


@dataclass(frozen=True)
class IsometryReport:
    """Monte Carlo vs quadrature sides of the stochastic-integral isometry."""

    mc_estimate: float
    quadrature_value: float
    difference: float
    mc_stderr: float
    paths: int


def verify_isometry(phi, bundle):
    """Compare E|int Phi dM|^2 with its covariance-rate quadrature.

    ``phi`` is one (n_out, state_dim) matrix, the same at every step.  The
    Monte Carlo side sums Phi dM_k over the bundle; the quadrature side
    integrates the squared Hilbert-Schmidt norm of Phi Q^(1/2) of the
    bundle's own driver with the same per-step trapezoid convention used
    when sampling.
    """
    driver = bundle.driver
    grid = bundle.grid
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != driver.state_dim:
        raise ValueError(f"phi must be an (n_out, {driver.state_dim}) "
                         f"matrix, got shape {phi.shape}")
    mats = np.broadcast_to(phi, (grid.steps,) + phi.shape)

    totals = np.zeros((bundle.paths, phi.shape[0]))
    dm = np.empty((bundle.paths, bundle.dim))
    for k in range(grid.steps):
        totals += bundle.step(k, out=dm) @ phi.T
    sq = np.einsum("pi,pi->p", totals, totals)
    mc, se = mean_se(sq)

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
