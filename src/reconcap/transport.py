"""Discrete-time parameter transport and its Jacobians.

A step rule turns a task into an update map on parameters; a trajectory is
the orbit of one initial point.  Tasks are quadratic and noise enters
additively, so the cumulative Jacobian of an n-step run is the power A^n of
its step matrix, whatever the noise or the start.  A caller builds each
stack's maps once: ``propagate`` steps them and returns the states, and
``step_eigen`` gives the spectra of every power of the same matrices from
one eigen-solve; ``step_powers`` multiplies the powers out.  A run split
at step k and resumed with step offset k replays the same noise and the
unsplit run's states, and A^(n-k) @ A^k equals A^n up to roundoff, which
makes the composition and rank algebra checkable to near machine precision.

Every rule steps the affine map of one task (eta = step_size,
s = noise_scale, wd = weight_decay, xi row `step` of the standard normal
sequence keyed by (omega_seed, realization)):

  theta' = A theta + b + g * xi,   A = I - eta * (H + wd * I),   b = eta * H theta*

  gradient_descent: g = 0
  noisy_gradient:   g = eta * s                 (wd = 0)
  langevin:         g = sqrt(2 * s * eta)       (wd = 0; s plays the temperature T)

which is theta - eta * (grad(theta) + wd * theta) + g * xi up to roundoff.
A is the step Jacobian J, and the map is stable exactly when
eta * (lambda_max(H) + wd) < 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .tasks import QuadraticTask, TaskPair

# Trajectories whose parameter norm passes this limit are treated as diverged.
DIVERGENCE_LIMIT = 1e8


class DivergenceError(RuntimeError):
    pass


class StepKind(str, enum.Enum):
    GRADIENT_DESCENT = "gradient_descent"
    NOISY_GRADIENT = "noisy_gradient"
    LANGEVIN = "langevin"


@dataclass(frozen=True)
class StepRule:
    """One update rule; the only place its fields are checked."""

    kind: StepKind = StepKind.GRADIENT_DESCENT
    step_size: float = 0.1
    noise_scale: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, StepKind):
            object.__setattr__(self, "kind", StepKind(self.kind))
        if not self.step_size > 0.0:
            raise ValueError(f"StepRule: step_size must be > 0, got {self.step_size}")
        if not self.noise_scale >= 0.0:
            raise ValueError(f"StepRule: noise_scale must be >= 0, got {self.noise_scale}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"StepRule: weight_decay must be >= 0, got {self.weight_decay}")
        if self.kind is not StepKind.GRADIENT_DESCENT and self.weight_decay != 0.0:
            raise ValueError("StepRule: weight_decay is defined for gradient_descent only")

    def noise_gain(self) -> float:
        """The factor g of the noise row a step adds: 0 for plain descent, and
        for any rule of noise_scale 0, whose steps then draw no rows."""
        if self.kind is StepKind.NOISY_GRADIENT:
            return self.step_size * self.noise_scale
        if self.kind is StepKind.LANGEVIN:
            return math.sqrt(2.0 * self.noise_scale * self.step_size)
        return 0.0

    def require_stable(self, lam_max) -> None:
        """The package's one stability bound: eta * (lambda_max + wd) < 2, for
        one curvature or the largest of a stack of them."""
        growth = self.step_size * (float(np.max(lam_max)) + self.weight_decay)
        if not growth < 2.0:
            raise ValueError(f"step_size: eta * lambda_max = {growth:.4f} >= 2 (unstable)")


def _affine_step(hessian, minimizer, step_size, weight_decay) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the step before noise for a Hessian ``(d, d)`` and minimizer
    ``(d,)``, or stacks of them with a step size and weight decay per member."""
    eye = np.eye(hessian.shape[-1])
    eta = np.asarray(step_size)[..., None, None]
    a = eye - eta * (hessian + np.asarray(weight_decay)[..., None, None] * eye)
    return a, ((eta * hessian) @ minimizer[..., None])[..., 0]


def step_eigen(hessian, step_size, weight_decay) -> tuple[np.ndarray, np.ndarray]:
    """``(log|lambda|, V)`` of ``_affine_step``'s A = V diag(lambda) V^T (or
    stacks), from one ``eigh`` of H + wd I whose eigenvalues m give lambda =
    1 - eta * m, as ``contraction_rates`` forms it: A^k has the singular
    values exp(k log|lambda|), and a lambda of exactly 0 gives -inf."""
    eye = np.eye(hessian.shape[-1])
    m, v = np.linalg.eigh(hessian + np.asarray(weight_decay)[..., None, None] * eye)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(1.0 - np.asarray(step_size)[..., None] * m)), v


def step_map(task: QuadraticTask, rule: StepRule) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the affine step ``theta' = A theta + b`` before noise."""
    return _affine_step(task.hessian, task.minimizer, rule.step_size, rule.weight_decay)


def contraction_rates(pair: TaskPair, rule: StepRule) -> np.ndarray:
    """The eigenvalues 1 - eta * (lambda + wd) of the step matrix A of the
    pair's task A, in closed form: lambda = 0 on the k_a preserved
    directions, then lambda = a_i on A's normals, in ``a_spectrum`` order."""
    curvature = np.concatenate([np.zeros(pair.preserving_basis.dim), pair.a_spectrum])
    return 1.0 - rule.step_size * (curvature + rule.weight_decay)


def step_powers(a, exponents):
    """Yield A^k of a step matrix ``(d, d)``, or of each of a stack ``(m, d,
    d)``, for each k of the non-decreasing ``exponents`` in turn: the left
    product ``A @ (... @ (A @ I))``, one power held at a time.  A matrix that
    is not square or a bad exponent raises ValueError before anything is yielded."""
    a, exponents = np.asarray(a, dtype=np.float64), list(exponents)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"step_powers: a must be a (d, d) matrix or an (m, d, d) stack, got shape {a.shape}")
    for j, k in zip([0, *exponents], exponents):
        if k < j:
            raise ValueError(f"step_powers: exponents must be >= 0 and non-decreasing, got {k} after {j}")
    power = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    for j, k in zip([0, *exponents], exponents):
        for _ in range(k - j):
            power = a @ power
        yield power


def propagate(
    theta0, a, b, gains, n_steps, omega_seed, realizations, step_offsets, label, *, final_only=False,
):
    """Step member i, the affine map ``x' = a[i] x + b[i] + gains[i] * xi``
    that the caller built (``step_map`` and ``StepRule.noise_gain``), from
    ``theta0[i]``, for ``n_steps[i]`` steps, the whole stack at once; xi at
    step k is row ``step_offsets[i] + k`` of the member's own
    ``(omega_seed, realizations[i])`` sequence.  A member of gain 0 draws no
    rows, whatever its rule.  Returns the states ``(m, max(n_steps) + 1,
    d)``, zero after each member's last (with ``final_only`` only the last,
    ``(m, d)``), each what a lone run reaches, bit for bit; Jacobians are
    powers of the same ``a``.  Inputs of the
    wrong shape or length, a start that is not finite and a negative step
    count raise ValueError; a member whose |theta| passes ``DIVERGENCE_LIMIT``
    or turns NaN raises DivergenceError, naming the step and ``label``."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.ndim != 2 or not np.isfinite(theta0).all():
        raise ValueError(
            f"propagate: theta0 must be a finite (m, d) array, got shape {theta0.shape}"
        )
    m, d = theta0.shape
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (m, d, d) or b.shape != (m, d):
        raise ValueError(
            f"propagate: theta0 {theta0.shape} needs a {(m, d, d)} and b {(m, d)}, "
            f"got {a.shape} and {b.shape}"
        )
    if any(len(x) != m for x in (gains, n_steps, realizations, step_offsets)):
        raise ValueError(
            f"propagate: gains, n_steps, realizations and step_offsets need {m} entries each"
        )
    lengths = np.asarray(n_steps)
    if (lengths < 0).any():
        raise ValueError(f"propagate: n_steps must be >= 0, got {int(lengths.min())}")
    n_max = int(lengths.max(initial=0))
    # longest first, so the members still stepping at step k are a prefix
    order = np.argsort(-lengths, kind="stable")
    a, b, gains = a[order], b[order], np.asarray(gains, dtype=np.float64)[order]
    noisy = gains != 0.0
    noise = None
    if noisy.any():
        members = order[noisy]
        rows = rng.normal_rows_each(
            omega_seed, rng.STREAM_STEP_NOISE, [realizations[i] for i in members],
            [step_offsets[i] for i in members], lengths[members], d,
        )
        noise = np.zeros((m, n_max, d))
        noise[noisy, : rows.shape[1]] = gains[noisy, None, None] * rows
    states = np.zeros((m, 1 if final_only else n_max + 1, d))
    states[:, 0] = theta0
    x = theta0[order]
    # members still stepping at step k: all but those of length k or less
    active = m - np.cumsum(np.bincount(lengths.astype(int), minlength=n_max + 1))[:n_max]
    for k, na in enumerate(active.tolist()):
        x = (a[:na] @ x[:na, :, None])[:, :, 0] + b[:na]
        if noise is not None:
            np.add(x, noise[:na, k], out=x, where=noisy[:na, None])
        # each member's dot product, as np.linalg.norm computes it; written
        # so that a NaN norm fails too: nothing else checks the states
        bad = ~(np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]) <= DIVERGENCE_LIMIT)
        if bad.any():
            j = int(np.argmax(bad))
            raise DivergenceError(
                f"propagate: |theta| = {math.sqrt(x[j].dot(x[j])):.3e} exceeded "
                f"{DIVERGENCE_LIMIT:.1e} at step {step_offsets[order[j]] + k} (task {label!r})"
            )
        states[order[:na], 0 if final_only else k + 1] = x
    return states[:, 0] if final_only else states
