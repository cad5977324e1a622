"""Dense spectral primitives: singular values, log Gram volumes, subspace
bases, and numerical rank with explicit tolerance conventions.

Conventions fixed here and used across the library:

* all matrices are float64, C-contiguous, with finite entries;
* spectra are reported in descending order;
* a singular value counts as zero when it falls at or below
  ``max(RANK_TOL_REL * sigma_max, RANK_TOL_ABS)``;
* a collapsed direction makes a log Gram volume exactly ``-inf``, which is
  absorbing under addition, so downstream exponentials give an exact 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative spectral cutoff below which a direction is treated as collapsed,
# with an absolute floor guarding against denormal underflow.
RANK_TOL_REL = 1e-12
RANK_TOL_ABS = 1e-300

# Symmetric inputs may deviate from exact symmetry by at most this much,
# relative to the largest entry.
SYMMETRY_TOL = 1e-8

NEGATIVE_INFINITY = float("-inf")


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a 2-D array: float64, C-order, finite entries."""
    m = np.array(a, dtype=np.float64, order="C", copy=True)
    if m.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"{name}: empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected square, got shape {m.shape}")
    return m


def as_vector(v, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and normalize a 1-D float64 vector."""
    x = np.array(v, dtype=np.float64, copy=True)
    if x.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: non-finite entries")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"{name}: expected length {dim}, got {x.shape[0]}")
    return x


def require_symmetric(h, *, rel_tol: float = SYMMETRY_TOL, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized (H + H^T)/2, rejecting material asymmetry.

    The asymmetry ``max|H - H^T|`` is compared against ``rel_tol * max|H|``;
    anything larger is an input error rather than numerical fuzz.
    """
    m = as_matrix(h, square=True, name=name)
    scale = float(np.max(np.abs(m)))
    asym = float(np.max(np.abs(m - m.T)))
    if asym > rel_tol * max(scale, RANK_TOL_ABS):
        raise ValueError(f"{name}: asymmetry {asym:.3e} exceeds {rel_tol:.1e} relative tolerance")
    return (m + m.T) / 2.0


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of R^ambient_dim."""

    ambient_dim: int
    dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, name="basis")
        if b.shape != (self.ambient_dim, self.dim):
            raise ValueError(
                f"basis: expected shape ({self.ambient_dim}, {self.dim}), got {b.shape}"
            )
        gram = b.T @ b
        if not np.allclose(gram, np.eye(self.dim), atol=1e-10):
            raise ValueError("basis: columns not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in descending order (LAPACK dense SVD)."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def _collapse_cutoff(s: np.ndarray) -> float:
    smax = float(s[0]) if s.size else 0.0
    return max(RANK_TOL_REL * smax, RANK_TOL_ABS)


def log_volume(s: np.ndarray) -> float:
    """log det of the Gram matrix with descending singular values ``s``,
    computed as ``2 * sum(log sigma_i)``.

    Returns exactly ``-inf`` when the smallest singular value is at or below
    the collapse cutoff, so a collapsed direction zeroes the exponentiated
    volume no matter what the other directions do.
    """
    if float(s[-1]) <= _collapse_cutoff(s):
        return NEGATIVE_INFINITY
    return float(2.0 * np.sum(np.log(s)))


def stable_rank(h) -> float:
    """||H||_F^2 / ||H||_2^2 for a symmetric matrix; 0 for the zero matrix."""
    m = require_symmetric(h, name="stable_rank input")
    eigs = np.linalg.eigvalsh(m)
    top = float(np.max(np.abs(eigs)))
    if top <= RANK_TOL_ABS:
        return 0.0
    return float(np.sum(eigs**2) / top**2)


def numerical_rank(a, rel_tol: float = 1e-8) -> int:
    """Count of singular values above ``rel_tol * sigma_max``."""
    return spectrum_rank(singular_values(a), rel_tol)


def spectrum_rank(s: np.ndarray, rel_tol: float = 1e-8) -> int:
    """``numerical_rank`` of a matrix with descending singular values ``s``."""
    smax = float(s[0]) if s.size else 0.0
    if smax <= RANK_TOL_ABS:
        return 0
    return int(np.sum(s > rel_tol * smax))
