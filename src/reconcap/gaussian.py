"""Gaussian ensemble state: mean plus covariance, with PD safeguards."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import as_vector, require_symmetric

# Covariance eigenvalues are clamped at this floor before any state is built,
# so log-determinants and inverses stay finite.
COVARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class GaussianState:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mu = as_vector(self.mean, name="mean")
        cov = require_symmetric(self.covariance, name="covariance")
        if cov.shape[0] != mu.shape[0]:
            raise ValueError(f"GaussianState: mean dim {mu.shape[0]} != covariance dim {cov.shape[0]}")
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] < COVARIANCE_FLOOR * (1.0 - 1e-9):
            raise ValueError(
                f"GaussianState: covariance eigenvalue {eigs[0]:.3e} below floor "
                f"{COVARIANCE_FLOOR:.1e}; clamp with clamped_state before constructing"
            )
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def clamped_state(mean, covariance) -> tuple[GaussianState, bool]:
    """Build a state, lifting covariance eigenvalues to the floor if needed.

    Returns ``(state, clamped)`` where ``clamped`` reports whether any
    eigenvalue actually had to be lifted.
    """
    cov = require_symmetric(covariance, name="covariance")
    eigvals, eigvecs = np.linalg.eigh(cov)
    clamped = bool(eigvals[0] < COVARIANCE_FLOOR)
    if clamped:
        lifted = np.maximum(eigvals, COVARIANCE_FLOOR)
        cov = eigvecs @ np.diag(lifted) @ eigvecs.T
        cov = (cov + cov.T) / 2.0
    return GaussianState(mean=mean, covariance=cov), clamped


def covariance_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a symmetric matrix (eigendecomposition
    route); negative eigenvalues from roundoff are clipped to zero."""
    eigvals, eigvecs = np.linalg.eigh(m)
    root = eigvecs @ np.diag(np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.T
    return (root + root.T) / 2.0

