"""Gaussian ensemble state: mean plus covariance, with PD safeguards.

A state is one Gaussian, ``mean (d,)`` and ``covariance (d, d)``, or a path
of them, ``mean (n, d)`` and ``covariance (n, d, d)``, validated as a whole;
functions of states give a float for one and an array for a path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _eigen_rebuild, as_vector, require_symmetric

# Covariance eigenvalues are clamped at this floor before any state is built,
# so log-determinants and inverses stay finite.
COVARIANCE_FLOOR = 1e-12
# The smallest eigenvalue a state accepts: the floor, less eigvalsh's fuzz.
_FLOOR_ACCEPTED = COVARIANCE_FLOOR * (1.0 - 1e-9)
# Multiple of dim * eps * largest |eigenvalue| that a clamp adds to the floor
# where rebuilding at the floor alone leaves the matrix under it.
_REBUILD_ROUNDOFF = 4.0


@dataclass(frozen=True)
class GaussianState:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mu = as_vector(self.mean, name="mean")
        cov = require_symmetric(self.covariance, name="covariance")
        if cov.shape != mu.shape + mu.shape[-1:]:
            raise ValueError(f"GaussianState: mean shape {mu.shape} != covariance {cov.shape}")
        low = float(np.min(_lowest_eigenvalues(cov)))
        if low < _FLOOR_ACCEPTED:
            raise ValueError(
                f"GaussianState: covariance eigenvalue {low:.3e} below floor "
                f"{COVARIANCE_FLOOR:.1e}; clamp with clamped_state before constructing"
            )
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def __getitem__(self, k) -> "GaussianState":
        """State ``k``, or the sub-path at slice ``k``, of a path.  A part of a
        validated path is valid, so it is not checked again."""
        if self.mean.ndim != 2:
            raise TypeError("GaussianState: only a path can be indexed")
        part = object.__new__(GaussianState)
        vars(part).update(mean=self.mean[k], covariance=self.covariance[k])
        return part


def _lowest_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a stack: the one value that both
    the clamp and the constructor test against the floor."""
    return np.linalg.eigvalsh(cov)[..., 0]


def _clamp(covariance) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized covariance (or stack) lifted to the floor, and which matrices were."""
    cov = require_symmetric(covariance, name="covariance")
    clamped = _lowest_eigenvalues(cov) < COVARIANCE_FLOOR
    if np.any(clamped):
        w, v = np.linalg.eigh(cov[clamped])
        rebuilt = _eigen_rebuild(v, np.maximum(w, COVARIANCE_FLOOR))
        # beside much larger eigenvalues in a rotated basis, the rebuild's
        # roundoff (about eps times the largest eigenvalue) can leave a lifted
        # eigenvalue under the floor; such matrices are lifted clear of it
        short = _lowest_eigenvalues(rebuilt) < _FLOOR_ACCEPTED
        if np.any(short):
            ws = w[short]
            top = np.abs(ws).max(axis=-1, keepdims=True)
            roundoff = _REBUILD_ROUNDOFF * ws.shape[-1] * np.finfo(np.float64).eps * top
            rebuilt[short] = _eigen_rebuild(v[short], np.maximum(ws, COVARIANCE_FLOOR + roundoff))
        cov[clamped] = rebuilt
    return cov, clamped


def clamped_state(mean, covariance) -> tuple[GaussianState, bool | np.ndarray]:
    """Build a state or a path, lifting covariance eigenvalues to the floor if
    needed.  Returns ``(state, clamped)`` where ``clamped`` reports, per
    state, whether any eigenvalue actually had to be lifted."""
    cov, clamped = _clamp(covariance)
    return GaussianState(mean=mean, covariance=cov), clamped[()]


def covariance_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a symmetric matrix, or of each matrix of a
    stack (eigendecomposition route); negative eigenvalues from roundoff are
    clipped to zero."""
    eigvals, eigvecs = np.linalg.eigh(m)
    return _eigen_rebuild(eigvecs, np.sqrt(np.maximum(eigvals, 0.0)))
