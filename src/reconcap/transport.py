"""Discrete-time parameter transport and its Jacobians.

A step rule turns a task into an update map on parameters; a trajectory is
the orbit of one initial point.  Because tasks are quadratic and noise enters
additively, every step Jacobian is state-independent: a trajectory keeps the
one step matrix and computes the cumulative Jacobian, an exact matrix
product, on first use.  That exactness is what makes the composition and rank
algebra checkable to near machine precision.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .spectral import as_vector
from .tasks import QuadraticTask

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

    def uses_noise(self) -> bool:
        return self.kind is not StepKind.GRADIENT_DESCENT

    def noise_gain(self) -> float:
        """The factor g of the noise row a step adds; 0 for plain descent."""
        if self.kind is StepKind.NOISY_GRADIENT:
            return self.step_size * self.noise_scale
        if self.kind is StepKind.LANGEVIN:
            return math.sqrt(2.0 * self.noise_scale * self.step_size)
        return 0.0

    def require_stable(self, lam_max: float) -> None:
        """The package's one stability bound: eta * (lambda_max + wd) < 2."""
        growth = self.step_size * (lam_max + self.weight_decay)
        if not growth < 2.0:
            raise ValueError(f"step_size: eta * lambda_max = {growth:.4f} >= 2 (unstable)")


def step_jacobian(task: QuadraticTask, rule: StepRule) -> np.ndarray:
    """State-independent Jacobian of one update step."""
    eye = np.eye(task.dim)
    return eye - rule.step_size * (task.hessian + rule.weight_decay * eye)


def step_map(task: QuadraticTask, rule: StepRule) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the affine step ``theta' = A theta + b`` before noise."""
    return step_jacobian(task, rule), rule.step_size * task.hessian @ task.minimizer


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (n_steps + 1, dim)
    step_matrix: np.ndarray | None = field(default=None, repr=False)  # of a propagated segment
    parts: tuple = field(default=(), repr=False)  # (first, second) of a composed trajectory

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def cumulative_jacobian(self) -> np.ndarray:
        if self.parts:
            first, second = self.parts
            return second.cumulative_jacobian @ first.cumulative_jacobian
        cumulative = np.eye(self.dim)
        for _ in range(self.n_steps):
            cumulative = self.step_matrix @ cumulative
        return cumulative


def propagate(
    theta0,
    task: QuadraticTask,
    rule: StepRule,
    n_steps: int,
    omega_seed: int,
    *,
    realization: int = 0,
    step_offset: int = 0,
) -> Trajectory:
    """Roll the step map forward, recording states.

    Step k reads noise row step_offset + k of the (omega_seed, realization)
    sequence, drawn as one block before the loop, so a trajectory split at
    any step and resumed with the matching offset replays the same draws and
    recomposes exactly.
    """
    if n_steps < 0:
        raise ValueError(f"propagate: n_steps must be >= 0, got {n_steps}")
    d = task.dim
    states = np.empty((n_steps + 1, d))
    states[0] = as_vector(theta0, dim=d, name="theta0")
    a, b = step_map(task, rule)
    noise = (
        rule.noise_gain()
        * rng.normal_rows(omega_seed, rng.STREAM_STEP_NOISE, realization, step_offset, n_steps, d)
        if rule.uses_noise()
        else None
    )
    for k in range(n_steps):
        nxt = a @ states[k] + b
        if noise is not None:
            nxt += noise[k]
        # np.linalg.norm's own formula, without its per-call dispatch
        norm = math.sqrt(nxt.dot(nxt))
        # written so that a NaN norm fails it too: nothing else checks the states
        if not norm <= DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"propagate: |theta| = {norm:.3e} exceeded {DIVERGENCE_LIMIT:.1e} "
                f"at step {step_offset + k} (task {task.label!r})"
            )
        states[k + 1] = nxt
    return Trajectory(states=states, step_matrix=a)


def compose(first: Trajectory, second: Trajectory) -> Trajectory:
    """Concatenate two trajectory segments; Jacobians chain by left product.

    The second segment must start bit-exactly where the first ends (replay
    from a split guarantees this).
    """
    if first.dim != second.dim:
        raise ValueError("compose: dimension mismatch")
    if not np.array_equal(first.states[-1], second.states[0]):
        raise ValueError("compose: second segment does not start at first segment's endpoint")
    states = np.concatenate([first.states, second.states[1:]], axis=0)
    return Trajectory(states=states, parts=(first, second))
