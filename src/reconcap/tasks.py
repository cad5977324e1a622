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
    """One task, or a stack validated in one pass: hessian (n, d, d), minimizer (n, d)."""

    dim: int
    hessian: np.ndarray
    minimizer: np.ndarray
    label: str = "task"
    # the largest curvature (of each member), which bounds the stable step sizes
    lam_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, lam_max = require_psd(self.hessian, label=self.label)
        theta_star = as_vector(self.minimizer, name=f"{self.label} minimizer")
        if h.shape[-1] != self.dim or theta_star.shape != h.shape[:-1]:
            raise ValueError(f"{self.label}: hessian {h.shape} and minimizer {theta_star.shape} != dim {self.dim}")
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "minimizer", theta_star)
        object.__setattr__(self, "lam_max", float(lam_max) if h.ndim == 2 else lam_max)


def require_psd(h, *, label: str = "task") -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized Hessian ``(d, d)`` and its largest eigenvalue, or those
    of each of a stack ``(..., d, d)`` in one pass; rejects asymmetry and
    non-PSD input."""
    h = require_symmetric(h, name=f"{label} hessian")
    eigs = np.linalg.eigvalsh(h)
    lam_max = eigs[..., -1]
    low = eigs[..., 0] < -_PSD_TOL * np.maximum(lam_max, 1.0)
    if low.any():
        raise ValueError(f"{label}: hessian not PSD (min eigenvalue {eigs[..., 0][low][0]:.3e})")
    return h, lam_max


def _half_quadratic(h: np.ndarray, d: np.ndarray):
    """Unvalidated ``(0.5 d^T H d, H d)`` for an offset ``d = theta - theta*``
    (the loss a float), or for each of a stack of offsets ``(..., d)`` (the
    losses an array); each member's products are its single call's, bit for bit."""
    hd = (h @ d[..., None])[..., 0]
    loss = ((0.5 * d)[..., None, :] @ hd[..., None])[..., 0, 0]
    return (float(loss) if d.ndim == 1 else loss), hd


def restricted_hessian(task_b: QuadraticTask, q_a: SubspaceBasis) -> np.ndarray:
    """Q_A^T H_B Q_A (of each member): task-B curvature inside the A-preserving subspace."""
    if q_a.ambient_dim != task_b.dim:
        raise ValueError("restricted_hessian: basis ambient dim != task dim")
    g = q_a.basis.swapaxes(-1, -2) @ task_b.hessian @ q_a.basis
    return (g + g.swapaxes(-1, -2)) / 2.0


def sign_fixed_q(g: np.ndarray) -> np.ndarray:
    """The Q of each matrix of a stack ``(n, d, d)``, from one stacked QR,
    with column signs fixed so that R has a nonnegative diagonal: for
    standard normal matrices, Haar-distributed orthogonal matrices
    (Mezzadri, Notices AMS 2007)."""
    q, r = np.linalg.qr(g)
    # Fix signs so the factorization (and hence the rotation) is unique.
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, None, :]
    return q


def random_rotations(dim: int, seeds) -> np.ndarray:
    """Haar orthogonal matrices ``(len(seeds), dim, dim)`` by ``sign_fixed_q``;
    rotation i is drawn from its own stream ``(seeds[i], STREAM_TASK)``, all
    keyed in one ``draw_each`` call."""
    paths = [(seed, rng.STREAM_TASK) for seed in seeds]
    return sign_fixed_q(np.array(rng.draw_each(paths, lambda gen: gen.standard_normal((dim, dim)))))


@dataclass(frozen=True)
class TaskPair:
    task_a: QuadraticTask
    task_b: QuadraticTask
    preserving_basis: SubspaceBasis
    a_spectrum: tuple  # task A's curvature along its normal directions
    # the demand m_B: the stable rank of Q_A^T H_B Q_A, how many of the
    # preserved directions task B effectively needs; an array (n,) for a stack
    m_b: float = field(init=False)

    def __post_init__(self):
        q = self.preserving_basis
        annihilation = np.linalg.norm(self.task_a.hessian @ q.basis, axis=(-2, -1))
        if np.any(annihilation > 1e-8):
            raise ValueError(f"TaskPair: ||H_A Q_A||_F = {np.max(annihilation):.3e} exceeds 1e-8")
        restricted = restricted_hessian(self.task_b, q)
        live = np.max(np.abs(restricted), axis=(-2, -1)) > 1e-12
        object.__setattr__(self, "m_b", np.where(live, stable_rank(restricted), 0.0)[()])


def make_task_pair(
    d: int,
    k_a: int,
    spectrum_b_on_a,
    rotation_seed,
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

    n rotation seeds with one spectrum each build one stacked pair, each
    member bit for bit the pair built alone; every check runs once over the
    stack, and a failing member raises the message its pair raises alone.
    """
    if not 0 < k_a < d:
        raise ValueError(f"make_task_pair: need 0 < k_a < d, got k_a={k_a}, d={d}")
    stacked = np.ndim(rotation_seed) > 0
    seeds, spectra = (rotation_seed, spectrum_b_on_a) if stacked else ([rotation_seed], [spectrum_b_on_a])
    if len(spectra) != len(seeds):
        raise ValueError("make_task_pair: need one spectrum_b_on_a per rotation seed")
    if any(np.shape(s) != (k_a,) for s in spectra):
        raise ValueError(f"make_task_pair: spectrum_b_on_a must have length k_a={k_a}")
    spectrum = np.array(spectra, dtype=np.float64)
    if not np.all(spectrum >= 0.0):
        raise ValueError("make_task_pair: spectrum_b_on_a entries must be >= 0")
    if a_spectrum is None:
        a_vals = np.linspace(2.0, 1.0, d - k_a)
    else:
        a_vals = np.asarray(a_spectrum, dtype=np.float64)
        if a_vals.shape != (d - k_a,):
            raise ValueError(f"make_task_pair: a_spectrum must have length d - k_a = {d - k_a}")
        if not np.all(a_vals > 0.0):
            raise ValueError("make_task_pair: a_spectrum entries must be positive")

    # the stack, or its one member
    at = slice(None) if stacked else 0
    rot = random_rotations(d, seeds)
    normal_dirs = rot[..., : d - k_a]
    null_dirs = np.ascontiguousarray(rot[..., d - k_a :])

    h_a = _eigen_rebuild(normal_dirs, a_vals)
    theta_a = np.zeros(h_a.shape[:-1])
    task_a = QuadraticTask(dim=d, hessian=h_a[at], minimizer=theta_a[at], label="first-task")

    demanded = spectrum > 0.0
    last = np.max(np.where(demanded, np.arange(k_a), -1), axis=-1)
    if tilt != 0.0 and np.any(last >= d - k_a):
        raise ValueError(
            "make_task_pair: tilt pairs demand direction j with normal direction j; "
            f"positive spectrum index {last[last >= d - k_a][0]} has no partner (d - k_a = {d - k_a})"
        )

    # in ascending j, as each member alone; a member not demanding j adds zeros
    h_b, offset = np.zeros_like(h_a), np.zeros_like(theta_a)
    norm_sq = 1.0 + tilt * tilt
    for j in np.flatnonzero(demanded.any(axis=0)):
        q_j = null_dirs[..., j]
        if tilt != 0.0:
            v = (q_j + tilt * normal_dirs[..., j]) / np.sqrt(norm_sq)
            beta = spectrum[:, j] * norm_sq
        else:
            v, beta = q_j, spectrum[:, j]
        outer = v[:, :, None] * v[:, None, :]
        outer *= np.where(demanded[:, j], beta, 0.0)[:, None, None]
        h_b += outer
        offset += np.where(demanded[:, j, None], offset_scale * q_j, 0.0)
    task_b = QuadraticTask(dim=d, hessian=h_b[at], minimizer=(theta_a + offset)[at], label="second-task")

    pair = TaskPair(
        task_a=task_a,
        task_b=task_b,
        preserving_basis=SubspaceBasis(ambient_dim=d, dim=k_a, basis=null_dirs[at]),
        a_spectrum=tuple(float(x) for x in a_vals),
    )
    top = np.max(spectrum, axis=-1, keepdims=True)
    # scaled before squaring: top**2 underflows to 0 below about 1e-154
    target = np.sum((spectrum / np.where(top > 0.0, top, 1.0)) ** 2, axis=-1)
    m_b = np.reshape(pair.m_b, -1)
    off = np.abs(m_b - target) > 1e-6
    if off.any():
        i = np.argmax(off)
        raise ValueError(f"TaskPair: restricted stable rank {float(m_b[i])!r} != target {float(target[i])!r}")
    return pair
