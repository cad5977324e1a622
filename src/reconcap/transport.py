"""Discrete-time parameter transport and its Jacobians.

A step rule turns a task into an update map on parameters; a trajectory is
the orbit of one initial point.  Because tasks are quadratic and noise enters
additively, every step Jacobian is state-independent: a trajectory keeps the
one step matrix and computes the cumulative Jacobian, an exact matrix
product, on first use.  That exactness is what makes the composition and rank
algebra checkable to near machine precision.

Update rules (eta = step_size, s = noise_scale, wd = weight_decay, xi row
`step` of the standard normal sequence keyed by (omega_seed, realization)):

  gradient_descent: theta' = theta - eta * (grad(theta) + wd * theta)
                    J = I - eta * (H + wd * I)
  noisy_gradient:   theta' = theta - eta * grad(theta) + eta * s * xi
                    J = I - eta * H
  langevin:         theta' = theta - eta * grad(theta) + sqrt(2 * s * eta) * xi
                    J = I - eta * H            (s plays the temperature T)
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
        if self.noise_scale < 0.0:
            raise ValueError(f"StepRule: noise_scale must be >= 0, got {self.noise_scale}")
        if self.weight_decay < 0.0:
            raise ValueError(f"StepRule: weight_decay must be >= 0, got {self.weight_decay}")
        if self.kind is not StepKind.GRADIENT_DESCENT and self.weight_decay != 0.0:
            raise ValueError("StepRule: weight_decay is defined for gradient_descent only")

    def uses_noise(self) -> bool:
        return self.kind is not StepKind.GRADIENT_DESCENT


def step_jacobian(task: QuadraticTask, rule: StepRule) -> np.ndarray:
    """State-independent Jacobian of one update step."""
    eye = np.eye(task.dim)
    if rule.kind is StepKind.GRADIENT_DESCENT:
        return eye - rule.step_size * (task.hessian + rule.weight_decay * eye)
    return eye - rule.step_size * task.hessian


def _advance(th, task: QuadraticTask, rule: StepRule, xi) -> np.ndarray:
    """The update rule on validated inputs."""
    eta = rule.step_size
    grad = task.hessian @ (th - task.minimizer)
    if rule.kind is StepKind.GRADIENT_DESCENT:
        return th - eta * (grad + rule.weight_decay * th)
    if rule.kind is StepKind.NOISY_GRADIENT:
        return th - eta * grad + eta * rule.noise_scale * xi
    return th - eta * grad + np.sqrt(2.0 * rule.noise_scale * eta) * xi


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
    th = as_vector(theta0, dim=task.dim, name="theta0")
    d = task.dim
    states = np.empty((n_steps + 1, d))
    states[0] = th
    noise = (
        rng.normal_rows(omega_seed, rng.STREAM_STEP_NOISE, realization, step_offset, n_steps, d)
        if rule.uses_noise()
        else None
    )
    for k in range(n_steps):
        nxt = _advance(states[k], task, rule, None if noise is None else noise[k])
        # np.linalg.norm's own formula, without its per-call dispatch
        norm = math.sqrt(nxt.dot(nxt))
        # written so that a NaN norm fails it too: nothing else checks the states
        if not norm <= DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"propagate: |theta| = {norm:.3e} exceeded {DIVERGENCE_LIMIT:.1e} "
                f"at step {step_offset + k} (task {task.label!r})"
            )
        states[k + 1] = nxt
    return Trajectory(states=states, step_matrix=step_jacobian(task, rule))


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
