"""Capacity diagnostics built from transport-map Jacobians.

Given end-to-end Jacobians J of the learning map and an orthonormal basis Q
for the directions a reference task leaves free, three numbers summarize what
a later task can still do:

  * effective rank        exp( mean log det(J^T J) / d )
  * compatible rank       exp( mean log det(Q^T J^T J Q) / k )
  * usable directions     count of singular values of J Q above tau_sigma

The stable rank of the later task's curvature restricted to Q measures how
many of those directions it demands.  Demands exceeding the usable count
predict that accommodating the later task forces movement that the earlier
task will feel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    RANK_TOL_REL,
    SubspaceBasis,
    as_vector,
    log_volume,
    singular_values,
    stable_rank,
)
from .tasks import QuadraticTask, restricted_hessian, value

DEFAULT_TAU_SIGMA = 1e-3


def _jacobian_stack(jacobians, dim: int | None = None) -> np.ndarray:
    # a sequence of trajectories (their end-to-end Jacobian) or matrices, or
    # an array (..., r, d, d) whose leading axes index separate ensembles;
    # singular_values checks the entries
    if not isinstance(jacobians, np.ndarray):
        jacobians = [getattr(j, "cumulative_jacobian", j) for j in jacobians]
    mats = np.asarray(jacobians, dtype=np.float64)
    if mats.ndim < 3 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError(f"jacobians: expected square matrices (..., r, d, d), got {mats.shape}")
    if dim is not None and mats.shape[-1] != dim:
        raise ValueError(f"jacobian dim {mats.shape[-1]} != expected {dim}")
    return mats


def effective_rank(jacobians):
    """exp of the mean per-dimension log volume of J^T J over the
    realizations J; 0.0 once any realization has collapsed a direction to
    numerical rank deficiency.

    ``jacobians`` holds r realizations, or is an array ``(..., r, d, d)``
    of several ensembles, which gives an array ``(...)`` of ranks from one
    stacked SVD.
    """
    return spectra_effective_rank(singular_values(_jacobian_stack(jacobians)))


def spectra_effective_rank(spectra):
    """``effective_rank`` from each realization's descending singular values:
    ``(r, k)`` for one ensemble, ``(..., r, k)`` for several."""
    logs = log_volume(spectra)
    # a collapsed realization's -inf makes the mean -inf and the rank 0.0
    return np.exp(np.mean(logs, axis=-1) / np.shape(spectra)[-1])


def compatible_effective_rank(
    jacobians, preserving_basis: SubspaceBasis, tau_sigma: float = DEFAULT_TAU_SIGMA
):
    """Rank diagnostics of J restricted to the preserved subspace.

    Returns (compatible_rank, usable_direction_count).  The count is the
    number of singular values of J Q above tau_sigma, averaged over
    realizations and rounded half-down to an integer.  ``jacobians`` is
    taken as by ``effective_rank``; an array ``(..., r, d, d)`` gives two
    arrays ``(...)``.
    """
    if tau_sigma <= 0.0:
        raise ValueError("tau_sigma must be > 0")
    mats = _jacobian_stack(jacobians, dim=preserving_basis.ambient_dim)
    sigma = singular_values(mats @ preserving_basis.basis)
    avg = np.mean(np.sum(sigma > tau_sigma, axis=-1), axis=-1)
    return spectra_effective_rank(sigma), np.ceil(avg - 0.5).astype(int)


def reconfiguration_dimension(task_b: QuadraticTask, preserving_basis: SubspaceBasis) -> float:
    """Stable rank of the later task's curvature restricted to the preserved
    subspace: how many of those directions the task effectively demands."""
    return stable_rank(restricted_hessian(task_b, preserving_basis))


@dataclass(frozen=True)
class CapacityReport:
    """Prediction record for one (jacobian ensemble, later task) pairing.

    predicted_incompatible compares the demand m_b, a count, against the
    integer usable count.  The _raw variant compares m_b against the
    compatible rank, which is not a count but the per-direction geometric
    mean of sigma^2 of J Q: at most 1 for a contracting J (at most
    1.0000000000000073 in every cell of the default threshold sweep), so it
    reads as "m_b > 1".  On that sweep it agrees with the observed outcome in
    45 of 81 cells, against 81 of 81 for predicted_incompatible; it is kept
    for reference only.
    """

    effective_rank: float
    usable_direction_count: int
    m_b: float
    predicted_incompatible: bool
    predicted_incompatible_raw: bool


def predict_incompatibility(
    jacobians,
    preserving_basis: SubspaceBasis,
    task_b: QuadraticTask,
    tau_sigma: float = DEFAULT_TAU_SIGMA,
) -> CapacityReport:
    full = effective_rank(jacobians)
    compatible, usable = compatible_effective_rank(jacobians, preserving_basis, tau_sigma)
    m_b = reconfiguration_dimension(task_b, preserving_basis)
    return CapacityReport(
        effective_rank=full,
        usable_direction_count=int(usable),
        m_b=m_b,
        predicted_incompatible=bool(m_b > usable),
        predicted_incompatible_raw=bool(m_b > compatible),
    )


@dataclass(frozen=True)
class ForgettingResult:
    forgetting: float
    normal_displacement: float
    exited_manifold: bool
    bound_check: float


DEFAULT_EPSILON_A = 1e-6


def measure_forgetting(
    start,
    final,
    task_a: QuadraticTask,
    epsilon_a: float = DEFAULT_EPSILON_A,
) -> ForgettingResult:
    """Loss increase on the earlier task against its curvature lower bound.

    ``start`` and ``final`` are parameter vectors, typically the two ends of
    a run on the later task.  forgetting = phi_A(final) - phi_A(start);
    exited_manifold flags forgetting above epsilon_a.  With delta the
    distance of the final point from the task-A optimal affine set and mu
    the smallest positive curvature, phi_A(final) >= mu/2 * delta^2, so for
    a start on the zero-loss set bound_check stays nonnegative up to
    roundoff.
    """
    start = as_vector(start, dim=task_a.dim, name="theta_start")
    final = as_vector(final, dim=task_a.dim, name="theta_final")
    forgetting = value(task_a, final) - value(task_a, start)
    eigvals, eigvecs = np.linalg.eigh(task_a.hessian)
    lam_max = max(float(eigvals[-1]), 1.0)
    keep = eigvals > RANK_TOL_REL * lam_max
    diff = final - task_a.minimizer
    # component along curved directions = distance from the optimal affine set
    delta = float(np.linalg.norm(eigvecs[:, keep].T @ diff))
    mu = float(eigvals[keep][0]) if np.any(keep) else 0.0
    return ForgettingResult(
        forgetting=float(forgetting),
        normal_displacement=delta,
        exited_manifold=bool(forgetting > epsilon_a),
        bound_check=float(forgetting - 0.5 * mu * delta * delta),
    )


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
