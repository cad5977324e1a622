"""Capacity diagnostics built from transport-map Jacobians.

Given the end-to-end Jacobian J of the learning map and an orthonormal basis
Q for the directions a reference task leaves free, three numbers summarize
what a later task can still do:

  * effective rank        exp( log det(J^T J) / d )
  * compatible rank       exp( log det(Q^T J^T J Q) / k )
  * usable directions     count of singular values of J Q above tau_sigma

Each function takes one Jacobian ``(d, d)`` or a stack ``(..., d, d)``, or
their descending log spectra, and gives one value per matrix.  The stable rank of the later task's curvature
restricted to Q, the task pair's ``m_b``, measures how many of the preserved
directions it demands.
Demands exceeding the usable count predict that accommodating the later task
forces movement that the earlier task will feel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SubspaceBasis, log_volume, singular_values
from .tasks import TaskPair


def log_singular_values(a) -> np.ndarray:
    """log of ``singular_values(a)``, descending; a zero singular value gives
    -inf, which ``log_volume`` reads as collapsed."""
    with np.errstate(divide="ignore"):
        return np.log(singular_values(a))


def effective_rank(jacobians):
    """exp of the per-dimension log volume of J^T J; 0.0 once J has collapsed
    a direction to numerical rank deficiency.

    One Jacobian ``(d, d)`` gives a float, a stack ``(..., d, d)`` an array
    ``(...)`` of ranks from one stacked SVD.
    """
    mats = np.asarray(jacobians, dtype=np.float64)
    if mats.ndim < 2 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError(f"jacobians: expected square matrices (..., d, d), got {mats.shape}")
    return spectra_effective_rank(log_singular_values(mats))


def spectra_effective_rank(log_spectra):
    """``effective_rank`` from descending log singular values: one spectrum
    ``(k,)`` or a stack ``(..., k)``."""
    # a collapsed spectrum's -inf makes the rank exactly 0.0
    return np.exp(log_volume(log_spectra) / np.shape(log_spectra)[-1])


def usable_count(log_spectra, tau_sigma: float):
    """The count of singular values above tau_sigma, from their logs ``(..., k)``."""
    return np.sum(log_spectra > np.log(tau_sigma), axis=-1)


def compatible_effective_rank(jacobians, preserving_basis: SubspaceBasis, tau_sigma: float):
    """Rank diagnostics of J restricted to the preserved subspace.

    Returns (compatible_rank, usable_direction_count); the count is the
    number of singular values of J Q above tau_sigma.  ``jacobians`` is taken
    as by ``effective_rank``; a stack ``(..., d, d)`` gives two arrays
    ``(...)``.
    """
    if not tau_sigma > 0.0:
        raise ValueError(f"tau_sigma must be > 0, got {tau_sigma}")
    mats = np.asarray(jacobians, dtype=np.float64)
    d = preserving_basis.ambient_dim
    if mats.shape[-2:] != (d, d):
        raise ValueError(f"jacobians: expected square matrices (..., {d}, {d}), got {mats.shape}")
    log_sigma = log_singular_values(mats @ preserving_basis.basis)
    return spectra_effective_rank(log_sigma), usable_count(log_sigma, tau_sigma)


def power_log_spectra(log_rates, eigvecs, preserving_basis: SubspaceBasis, exponents):
    """Descending log singular values of A^k Q, for each exponent k ``(n,)``
    of one ``transport.step_eigen`` result or one k of a stack of them: those
    of diag(lambda^k) V^T Q from one SVD, its row i scaled by exp(k
    (log|lambda_i| - max)), the max then added back, so nothing under- or overflows."""
    k = np.asarray(exponents, dtype=np.float64)[..., None]
    with np.errstate(invalid="ignore"):  # A^0 = I even where lambda = 0: not 0 * -inf
        logs = np.where(k > 0.0, k * log_rates, 0.0)
    top = np.max(logs, axis=-1, keepdims=True)
    scaled = np.exp(logs - top)[..., None] * (eigvecs.swapaxes(-1, -2) @ preserving_basis.basis)
    return log_singular_values(scaled) + top


@dataclass(frozen=True)
class CapacityReport:
    """Prediction record for one (Jacobian, later task) pairing.

    predicted_incompatible compares the demand m_b, a count, against the
    integer usable count.  The _raw variant compares m_b against the
    compatible rank, which is not a count but the per-direction geometric
    mean of sigma^2 of J Q: at most 1 for a contracting J (at most
    1.0000000000000115 in every cell of the default threshold sweep), so it
    reads as "m_b > 1".  On that sweep it agrees with the observed outcome in
    45 of 81 cells, against 81 of 81 for predicted_incompatible; it is kept
    for reference only.
    """

    effective_rank: float
    usable_direction_count: int
    m_b: float
    predicted_incompatible: bool
    predicted_incompatible_raw: bool


def predict_incompatibility(log_spectra, log_compatible, pair: TaskPair, tau_sigma: float) -> CapacityReport:
    """Capacity report of one Jacobian J, given by the descending log
    singular values of J and of J Q, against the pair's later task, whose
    demand is ``pair.m_b``; stacks ``(n, d)`` and ``(n, k_a)`` against a
    stacked pair give a report of lists."""
    full = spectra_effective_rank(log_spectra)
    compatible = spectra_effective_rank(log_compatible)
    usable = usable_count(log_compatible, tau_sigma)
    fields = (full, usable, pair.m_b, pair.m_b > usable, pair.m_b > compatible)
    return CapacityReport(*(np.asarray(f).tolist() for f in fields))


def participation_ratio(samples: np.ndarray) -> float:
    """(sum lambda)^2 / sum lambda^2 of the sample covariance spectrum.

    Rows are samples.  Ranges from 1 (one dominant direction) to the ambient
    dimension (isotropic spread).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("participation_ratio: need a 2-D array with >= 2 rows")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals = np.maximum(np.linalg.eigvalsh(cov), 0.0)
    total = float(np.sum(eigvals))
    square = float(np.sum(eigvals**2))
    if square == 0.0:
        return 0.0
    return total * total / square
