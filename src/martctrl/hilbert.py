"""Finite-dimensional truncations of the state and control Hilbert spaces.

The ambient separable Hilbert spaces are represented by fixed coordinate
bases: vectors are 1-d float64 arrays and operators dense 2-d float64
arrays, applied to batches of vectors.  No object records the sizes; every
caller reads them off the shapes of the arrays it holds.  Covariance rates
never need a square root here: the Hilbert-Schmidt pairings of the
Hamiltonian read Q(t) through the driver's own factor
(``MartingaleDriver.cov_rate_factor``).

All functions are pure.
"""

import numpy as np


def as_vector(x, dim=None, name="vector"):
    """Coerce to a finite 1-d float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def apply_operator(op, vecs):
    """Apply an operator to a batch of vectors.

    ``op`` has shape (n_out, n_in) or (P, n_out, n_in); ``vecs`` has shape
    (P, n_in).  Returns (P, n_out).
    """
    a = np.asarray(op, dtype=float)
    x = np.asarray(vecs, dtype=float)
    if a.ndim == 2:
        return x @ a.T
    if a.ndim == 3:
        return np.einsum("pij,pj->pi", a, x)
    raise ValueError(f"operator batch must be 2-d or 3-d, got shape {a.shape}")
