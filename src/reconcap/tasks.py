"""Quadratic tasks and paired task families.

A task is the quadratic ``phi(theta) = 0.5 (theta - theta*)^T H (theta - theta*)``
with H symmetric PSD, so gradients and Hessians are exact and the set of
minimizers is the affine null space of H through ``theta*``.

A task pair couples a first task A, whose null space is the subspace of
A-preserving parameter moves, with a second task B whose curvature seen inside
that subspace has a prescribed spectrum.  Pairs are generated from an integer
seed and a handful of scalars, which is all that needs to be serialized to
replay an experiment bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .spectral import SubspaceBasis, _eigen_rebuild, as_vector, require_symmetric, stable_rank

_PSD_TOL = 1e-8


@dataclass(frozen=True)
class QuadraticTask:
    dim: int
    hessian: np.ndarray
    minimizer: np.ndarray
    label: str = "task"
    # the largest curvature, which bounds the stable step sizes
    lam_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, lam_max = require_psd(self.hessian, label=self.label)
        if h.shape[0] != self.dim:
            raise ValueError(f"{self.label}: hessian shape {h.shape} != dim {self.dim}")
        theta_star = as_vector(self.minimizer, dim=self.dim, name=f"{self.label} minimizer")
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "minimizer", theta_star)
        object.__setattr__(self, "lam_max", float(lam_max))


def require_psd(h, *, stacked: bool = False, label: str = "task") -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized Hessian and its largest eigenvalue, or those of each of
    a stack ``(..., d, d)`` in one pass; rejects asymmetry and non-PSD input."""
    h = require_symmetric(h, stacked=stacked, name=f"{label} hessian")
    eigs = np.linalg.eigvalsh(h)
    lam_max = eigs[..., -1]
    low = eigs[..., 0] < -_PSD_TOL * np.maximum(lam_max, 1.0)
    if low.any():
        raise ValueError(f"{label}: hessian not PSD (min eigenvalue {eigs[..., 0][low][0]:.3e})")
    return h, lam_max


def _half_quadratic(h: np.ndarray, d: np.ndarray) -> tuple[float, np.ndarray]:
    """Unvalidated ``(0.5 d^T H d, H d)`` for an offset ``d = theta - theta*``."""
    hd = h @ d
    return float(0.5 * d @ hd), hd


def value(task: QuadraticTask, theta) -> float:
    d = as_vector(theta, dim=task.dim, name="theta") - task.minimizer
    return _half_quadratic(task.hessian, d)[0]


def restricted_hessian(task_b: QuadraticTask, q_a: SubspaceBasis) -> np.ndarray:
    """Q_A^T H_B Q_A: task-B curvature seen inside the A-preserving subspace."""
    if q_a.ambient_dim != task_b.dim:
        raise ValueError("restricted_hessian: basis ambient dim != task dim")
    g = q_a.basis.T @ task_b.hessian @ q_a.basis
    return (g + g.T) / 2.0


def random_rotations(dim: int, seeds) -> np.ndarray:
    """Haar-ish orthogonal matrices ``(len(seeds), dim, dim)`` from one
    stacked QR with sign-fixed diagonals; rotation i is drawn from its own
    stream ``(seeds[i], STREAM_TASK)``, all keyed in one ``draw_each`` call."""
    paths = [(seed, rng.STREAM_TASK) for seed in seeds]
    g = rng.draw_each(paths, lambda gen: gen.standard_normal((dim, dim)))
    q, r = np.linalg.qr(np.array(g))
    # Fix signs so the factorization (and hence the rotation) is unique.
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, None, :]
    return q


@dataclass(frozen=True)
class TaskPair:
    task_a: QuadraticTask
    task_b: QuadraticTask
    preserving_basis: SubspaceBasis
    a_spectrum: tuple  # task A's curvature along its normal directions
    # the demand m_B: the stable rank of Q_A^T H_B Q_A, how many of the
    # preserved directions task B effectively needs
    m_b: float = field(init=False)

    def __post_init__(self):
        q = self.preserving_basis
        annihilation = float(np.linalg.norm(self.task_a.hessian @ q.basis))
        if annihilation > 1e-8:
            raise ValueError(f"TaskPair: ||H_A Q_A||_F = {annihilation:.3e} exceeds 1e-8")
        restricted = restricted_hessian(self.task_b, q)
        m_b = 0.0 if float(np.max(np.abs(restricted))) <= 1e-12 else stable_rank(restricted)
        object.__setattr__(self, "m_b", m_b)


def make_task_pair(
    d: int,
    k_a: int,
    spectrum_b_on_a,
    rotation_seed: int,
    *,
    a_spectrum=None,
    offset_scale: float = 0.0,
    tilt: float = 0.0,
) -> TaskPair:
    """Build a seeded task pair with prescribed restricted spectrum.

    Task A gets ``d - k_a`` positive curvature directions (spectrum
    ``a_spectrum``, default linspace from 2 down to 1) and a ``k_a``-dim null
    space; both are randomly rotated.  Task B places curvature
    ``spectrum_b_on_a[j]`` on the j-th null direction of A, so the restriction
    ``Q_A^T H_B Q_A`` has exactly that spectrum, and the pair's ``m_b`` must
    match that spectrum's stable rank to 1e-6.

    ``offset_scale`` moves task B's minimizer along its demanded null
    directions (staying inside the A-preserving subspace, so joint optima
    always exist).  ``tilt`` rotates each demanded curvature direction by
    ``arctan(tilt)`` into a paired A-normal direction without changing the
    restriction; with a nonzero tilt, task B can also be lowered by moving off
    the A-preserving subspace, which is what makes forced exits observable.
    """
    if not 0 < k_a < d:
        raise ValueError(f"make_task_pair: need 0 < k_a < d, got k_a={k_a}, d={d}")
    spectrum = np.asarray(spectrum_b_on_a, dtype=np.float64)
    if spectrum.shape != (k_a,):
        raise ValueError(f"make_task_pair: spectrum_b_on_a must have length k_a={k_a}")
    if np.any(spectrum < 0.0):
        raise ValueError("make_task_pair: spectrum_b_on_a entries must be >= 0")
    if a_spectrum is None:
        a_vals = np.linspace(2.0, 1.0, d - k_a)
    else:
        a_vals = np.asarray(a_spectrum, dtype=np.float64)
        if a_vals.shape != (d - k_a,):
            raise ValueError(f"make_task_pair: a_spectrum must have length d - k_a = {d - k_a}")
        if np.any(a_vals <= 0.0):
            raise ValueError("make_task_pair: a_spectrum entries must be positive")

    rot = random_rotations(d, [rotation_seed])[0]
    normal_dirs = rot[:, : d - k_a]
    null_dirs = np.ascontiguousarray(rot[:, d - k_a :])

    h_a = _eigen_rebuild(normal_dirs, a_vals)
    theta_a = np.zeros(d)
    task_a = QuadraticTask(dim=d, hessian=h_a, minimizer=theta_a, label="first-task")

    demanded = np.flatnonzero(spectrum > 0.0)
    if tilt != 0.0 and demanded.size and int(demanded.max()) >= d - k_a:
        raise ValueError(
            "make_task_pair: tilt pairs demand direction j with normal direction j; "
            f"positive spectrum index {int(demanded.max())} has no partner (d - k_a = {d - k_a})"
        )

    h_b = np.zeros((d, d))
    offset = np.zeros(d)
    norm_sq = 1.0 + tilt * tilt
    for j in demanded:
        q_j = null_dirs[:, j]
        if tilt != 0.0:
            v = (q_j + tilt * normal_dirs[:, j]) / np.sqrt(norm_sq)
            beta = spectrum[j] * norm_sq
        else:
            v = q_j
            beta = spectrum[j]
        h_b += beta * np.outer(v, v)
        offset += offset_scale * q_j
    task_b = QuadraticTask(dim=d, hessian=h_b, minimizer=theta_a + offset, label="second-task")

    pair = TaskPair(
        task_a=task_a,
        task_b=task_b,
        preserving_basis=SubspaceBasis(ambient_dim=d, dim=k_a, basis=null_dirs),
        a_spectrum=tuple(float(x) for x in a_vals),
    )
    top = float(np.max(spectrum)) if demanded.size else 0.0
    # scaled before squaring: top**2 underflows to 0 below about 1e-154
    target = float(np.sum((spectrum / top) ** 2)) if top > 0.0 else 0.0
    if abs(pair.m_b - target) > 1e-6:
        raise ValueError(f"TaskPair: restricted stable rank {pair.m_b!r} != target {target!r}")
    return pair
