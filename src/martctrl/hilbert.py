"""Finite-dimensional truncations of the state and control Hilbert spaces.

The ambient separable Hilbert spaces are represented by fixed coordinate
bases of configurable dimension: vectors are 1-d float64 arrays, operators
are dense 2-d float64 arrays, and the Hilbert-Schmidt inner product reduces
to the Frobenius inner product.  Covariance(-rate) operators are symmetric
positive semi-definite matrices; square roots are taken by symmetric
eigendecomposition with eigenvalue clamping because covariance rates of
rank-deficient drivers make Cholesky unusable.

All functions are pure.  The tolerances below are fixed module constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative symmetry defect accepted for covariance operators.
SYMMETRY_RTOL = 1e-12
# Eigenvalues below -EIGENVALUE_RTOL * lambda_max are rejected; negative
# values inside the band are clamped to zero.
EIGENVALUE_RTOL = 1e-10
# Relative Frobenius defect allowed in S @ S == C for the returned root S.
SQRT_RTOL = 1e-10


@dataclass(frozen=True)
class SpaceConfig:
    """Dimensions of the truncated state space and control space."""

    state_dim: int
    control_dim: int

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {self.state_dim}")
        if self.control_dim < 1:
            raise ValueError(f"control_dim must be >= 1, got {self.control_dim}")


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


def as_operator(a, rows=None, cols=None, name="operator"):
    """Coerce to a finite 2-d float64 array, optionally checking its shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def check_covariance(c, name="covariance"):
    """Validate a covariance operator and return its eigendecomposition.

    Symmetry is required up to SYMMETRY_RTOL relative to the largest entry;
    eigenvalues are required to be >= -EIGENVALUE_RTOL * lambda_max.
    Returns the pair (eigenvalues, eigenvectors) with negative values
    clamped to zero.
    """
    m = as_operator(c, name=name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale > 0.0:
        defect = float(np.max(np.abs(m - m.T)))
        if defect > SYMMETRY_RTOL * scale:
            raise ValueError(
                f"{name} is not symmetric: max |C - C^T| = {defect:.3e} "
                f"exceeds {SYMMETRY_RTOL:.1e} * max|C| = "
                f"{SYMMETRY_RTOL * scale:.3e}")
    w, v = np.linalg.eigh(m)
    lam_max = max(float(w[-1]), 0.0)
    # Floor keeps the all-zero / numerically-singular cases from tripping on
    # pure roundoff.
    neg_tol = EIGENVALUE_RTOL * max(lam_max,
                                    64.0 * np.finfo(float).eps * scale)
    if float(w[0]) < -neg_tol:
        raise ValueError(
            f"{name} has negative eigenvalue {float(w[0]):.3e} below the "
            f"tolerance band -{neg_tol:.3e}")
    return np.clip(w, 0.0, None), v


def psd_sqrt(c):
    """Symmetric PSD square root via eigendecomposition with clamping.

    Rejects non-symmetric input and eigenvalues below the clamping band;
    the returned root S is symmetric PSD with S @ S == C up to SQRT_RTOL
    in relative Frobenius norm.
    """
    w, v = check_covariance(c)
    return (v * np.sqrt(w)) @ v.T


def hs_inner(a, b):
    """Hilbert-Schmidt (Frobenius) inner product of two same-shape operators."""
    x = as_operator(a, name="left operand")
    y = as_operator(b, rows=x.shape[0], cols=x.shape[1], name="right operand")
    return float(np.sum(x * y))


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm."""
    x = as_operator(a, name="operand")
    return float(np.linalg.norm(x))


def tensor(u, w):
    """Rank-one operator (u tensor w): k -> <w, k> u, as the matrix u w^T."""
    uu = as_vector(u, name="left factor")
    ww = as_vector(w, dim=uu.shape[0], name="right factor")
    return np.outer(uu, ww)


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


def batch_hs_inner(a, b):
    """Per-item HS inner product for operator batches.

    Either argument may be a single (n, m) operator or a (P, n, m) batch;
    at least one must be a batch, and the result has shape (P,).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim == 3 and y.ndim == 3:
        return np.einsum("pij,pij->p", x, y)
    if x.ndim == 3 and y.ndim == 2:
        return np.einsum("pij,ij->p", x, y)
    if x.ndim == 2 and y.ndim == 3:
        return np.einsum("ij,pij->p", x, y)
    raise ValueError("expected at least one batched operand")
