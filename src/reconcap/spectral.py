"""Dense spectral primitives: singular values, log Gram volumes, subspace
bases, and numerical rank with explicit tolerance conventions.

Conventions fixed here and used across the library:

* all matrices are float64, C-contiguous, with finite entries;
* every function takes a stack ``(..., m, n)`` of matrices or ``(..., k)``
  of vectors or spectra; a single one is a stack with no leading axes;
* spectra are reported in descending order;
* a singular value counts as zero when it falls at or below
  ``max(RANK_TOL_REL * sigma_max, RANK_TOL_ABS)``, a rule ``log_volume``
  applies to log spectra, so that no spectrum under- or overflows;
* ``spectrum_rank`` counts the singular values above
  ``SPECTRUM_RANK_TOL * sigma_max``;
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

# Relative cutoff of spectrum_rank, the numerical rank the scenarios report.
SPECTRUM_RANK_TOL = 1e-8

# Symmetric inputs may deviate from exact symmetry by at most this much,
# relative to the largest entry.
SYMMETRY_TOL = 1e-8

NEGATIVE_INFINITY = float("-inf")


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a matrix ``(m, n)`` or a stack ``(..., m, n)``
    of them in one pass: float64, C-order, finite entries.  Input that is
    already float64 and C-ordered is returned as is, not copied.
    """
    m = np.asarray(a, dtype=np.float64, order="C")
    if m.ndim < 2:
        raise ValueError(f"{name}: expected a 2-D array or a stack of them, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"{name}: empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: non-finite entries")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name}: expected square, got shape {m.shape}")
    return m


def as_vector(v, *, name: str = "vector") -> np.ndarray:
    """Validate and normalize a float64 vector ``(d,)`` or a stack ``(..., d)``
    of them (a copy)."""
    x = np.array(v, dtype=np.float64, copy=True)
    if x.ndim < 1:
        raise ValueError(f"{name}: expected a 1-D array or a stack of them, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: non-finite entries")
    return x


def require_symmetric(h, *, rel_tol: float = SYMMETRY_TOL, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized (H + H^T)/2 of a matrix ``(d, d)`` or of each
    of a stack ``(..., d, d)``, rejecting material asymmetry.

    The asymmetry ``max|H - H^T|`` is compared against ``rel_tol * max|H|``,
    each matrix on its own scale; anything larger is an input error rather
    than numerical fuzz.
    """
    m = as_matrix(h, square=True, name=name)
    mt = m.swapaxes(-1, -2)
    scale = np.abs(m).max((-2, -1))
    asym = np.abs(m - mt).max((-2, -1))
    if np.count_nonzero(asym > rel_tol * np.maximum(scale, RANK_TOL_ABS)):
        raise ValueError(f"{name}: asymmetry {np.max(asym):.3e} exceeds {rel_tol:.1e} relative tolerance")
    return (m + mt) / 2.0


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of R^ambient_dim, or a stack
    ``(..., ambient_dim, dim)`` of such bases checked in one pass."""

    ambient_dim: int
    dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, name="basis").copy()
        if b.shape[-2:] != (self.ambient_dim, self.dim):
            raise ValueError(
                f"basis: expected shape ({self.ambient_dim}, {self.dim}), got {b.shape}"
            )
        gram = b.swapaxes(-1, -2) @ b
        if not np.allclose(gram, np.eye(self.dim), atol=1e-10):
            raise ValueError("basis: columns not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)


def singular_values(a) -> np.ndarray:
    """Singular values in descending order of a matrix ``(m, n)``, or of each
    matrix of a stack ``(..., m, n)`` in one LAPACK call (dense SVD)."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def _eigen_rebuild(eigvecs: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """Symmetrized V diag(w) V^T for each matrix of a stack; V may have fewer
    columns than rows."""
    m = (eigvecs * eigvals[..., None, :]) @ eigvecs.swapaxes(-1, -2)
    return (m + m.swapaxes(-1, -2)) / 2.0


def log_volume(log_s):
    """log det of the Gram matrix with descending log singular values
    ``log_s``, computed as ``2 * sum(log sigma_i)``; a float for one spectrum
    ``(k,)``, an array ``(...)`` for a stack of spectra ``(..., k)``.

    A spectrum whose smallest singular value is at or below the collapse
    cutoff gets exactly ``-inf``, so a collapsed direction zeroes the
    exponentiated volume no matter what the other directions do.
    """
    log_s = np.asarray(log_s, dtype=np.float64)
    if log_s.size == 0:
        raise ValueError("log_volume: empty spectrum")
    cutoff = np.maximum(np.log(RANK_TOL_REL) + log_s[..., 0], np.log(RANK_TOL_ABS))
    collapsed = log_s[..., -1] <= cutoff
    # collapsed spectra sum zeros instead of a -inf, then take -inf
    total = 2.0 * np.sum(np.where(collapsed[..., None], 0.0, log_s), axis=-1)
    return np.where(collapsed, NEGATIVE_INFINITY, total)[()]


def stable_rank(h):
    """||H||_F^2 / ||H||_2^2 for a symmetric matrix, 0 for the zero matrix; a
    float for one matrix ``(d, d)``, an array ``(...)`` for a stack ``(...,
    d, d)`` from one ``eigvalsh`` call."""
    m = require_symmetric(h, name="stable_rank input")
    eigs = np.linalg.eigvalsh(m)
    top = np.max(np.abs(eigs), axis=-1)
    live = top > RANK_TOL_ABS
    # scaled first: top**2 underflows to 0 once top is below about 1e-154
    scaled = eigs / np.where(live, top, 1.0)[..., None]
    return np.where(live, np.sum(scaled**2, axis=-1), 0.0)[()]


def spectrum_rank(s):
    """Numerical rank of a matrix with descending singular values ``s``: the
    count above ``SPECTRUM_RANK_TOL * sigma_max``, 0 once sigma_max is at or
    below ``RANK_TOL_ABS``; a count for one spectrum ``(k,)``, an array
    ``(...)`` of counts for a stack of spectra ``(..., k)``."""
    s = np.asarray(s, dtype=np.float64)
    smax = np.max(s, axis=-1, initial=0.0)
    count = np.sum(s > SPECTRUM_RANK_TOL * smax[..., None], axis=-1)
    return np.where(smax > RANK_TOL_ABS, count, 0)[()]
