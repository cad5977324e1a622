"""Gaussian thermodynamic bookkeeping for quadratic tasks.

For an ensemble q = N(mu, Sigma) on a quadratic task with curvature H and
optimum theta*, everything below is closed-form:

    entropy    S(q) = d/2 * log(2*pi*e) + 1/2 * log det Sigma
    free energy F(q) = E_q[phi] - T * S(q)
               E_q[phi] = 1/2 (mu - theta*)^T H (mu - theta*) + 1/2 tr(H Sigma)

The per-step entropy production of the stochastic dynamics uses the deviation
field v(theta) = -H(theta - theta*) + T Sigma^{-1}(theta - mu), whose mean
square has the closed form

    E|v|^2 = |H(mu - theta*)|^2 + T^2 tr(Sigma^{-1}) - 2T tr(H) + tr(H Sigma H)

and one step contributes sigma_k = eta * E|v|^2 / T (dimensionless, entropy in
nats).  Cumulative production equals the free-energy drop over T plus an
excess term; the excess is the quantity the speed-limit comparisons bound.

Transport geometry between Gaussian states uses the Bures metric

    W2^2 = |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2})

with the constant-speed displacement interpolation as the geodesic.  Tracing
the geodesic costs the kinetic action W2^2 / 2 over unit time, which is the
dissipation floor that simulated runs are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _clamp, clamped_state, covariance_sqrt
from .spectral import require_symmetric
from .tasks import QuadraticTask, _half_quadratic
from .transport import StepKind, StepRule, step_map

LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)


def _check_pair(g: GaussianState, task: QuadraticTask):
    if g.dim != task.dim:
        raise ValueError(f"state dim {g.dim} != task dim {task.dim}")


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis as a stacked matrix product, which rounds each
    pair as ``x @ y`` does; ``einsum`` and ``sum(x * y)`` do not.  Matrix-vector
    products are stacked the same way, ``(h @ x[..., :, None])[..., 0]``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def entropy(g: GaussianState):
    """Differential entropy in nats."""
    sign, logdet = np.linalg.slogdet(g.covariance)
    if np.any(sign <= 0):
        raise ValueError("entropy: covariance not positive definite")
    return 0.5 * g.dim * LOG_2PI_E + 0.5 * logdet


def mean_value(g: GaussianState, task: QuadraticTask):
    """E_q[phi] for the Gaussian ensemble."""
    _check_pair(g, task)
    loss = _half_quadratic(task.hessian, g.mean - task.minimizer)[0]
    return loss + 0.5 * _trace(task.hessian @ g.covariance)


def free_energy(g: GaussianState, task: QuadraticTask, temperature: float):
    if not temperature >= 0.0:
        raise ValueError("free_energy: temperature must be >= 0")
    return mean_value(g, task) - temperature * entropy(g)


def entropy_production_step(g: GaussianState, task: QuadraticTask, rule: StepRule):
    """sigma_k = eta * E|v|^2 / T at the pre-step state (langevin rule only)."""
    _check_pair(g, task)
    if rule.kind is not StepKind.LANGEVIN or rule.noise_scale <= 0.0:
        raise ValueError("entropy_production_step: requires a langevin rule with T > 0")
    t = rule.noise_scale
    h = task.hessian
    drift = (h @ (g.mean - task.minimizer)[..., :, None])[..., 0]
    eigvals = np.linalg.eigvalsh(g.covariance)
    mean_sq = (
        _dot(drift, drift)
        + t * t * np.sum(1.0 / eigvals, axis=-1)
        - 2.0 * t * float(np.trace(h))
        + _trace(h @ g.covariance @ h)
    )
    return rule.step_size * np.maximum(mean_sq, 0.0) / t


@dataclass(frozen=True)
class DissipationLedger:
    """Per-step entropy production against the free-energy drop it pays for.

    total = sum(per_step_sigma); excess = total - (F_first - F_last) / T.
    """

    per_step_sigma: np.ndarray
    free_energy_series: np.ndarray
    total: float
    excess: float

    @classmethod
    def from_series(cls, sigmas, free_energies, temperature: float) -> "DissipationLedger":
        s = np.asarray(sigmas, dtype=np.float64)
        f = np.asarray(free_energies, dtype=np.float64)
        if f.shape[0] != s.shape[0] + 1:
            raise ValueError("DissipationLedger: need one more free energy than sigma entries")
        if not np.all((s >= 0.0) & np.isfinite(s)):
            raise ValueError("DissipationLedger: negative or non-finite per-step sigma")
        if not temperature > 0.0:
            raise ValueError("DissipationLedger: temperature must be > 0")
        total = float(np.sum(s))
        excess = total - (float(f[0]) - float(f[-1])) / temperature
        return cls(s, f, total, excess)


def simulate_relaxation(
    g0: GaussianState, task: QuadraticTask, rule: StepRule, n_steps: int
) -> tuple[GaussianState, DissipationLedger, int]:
    """Exact Langevin moment recursion with full bookkeeping.

    mean' = A mean + b,  Sigma' = A Sigma A^T + 2 T eta I, with (A, b) the
    affine step map; covariance eigenvalues are clamped at the module floor
    when pure contraction drives them under it.  Returns (path, ledger,
    clamp_events), the path of all n_steps + 1 states; sigma is evaluated at
    the state a step departs from, free energy at every visited state.
    """
    if rule.kind is not StepKind.LANGEVIN:
        raise ValueError("simulate_relaxation: requires a langevin rule")
    _check_pair(g0, task)
    rule.require_stable(task.lam_max)
    t = rule.noise_scale
    a, shift = step_map(task, rule)
    diffusion = 2.0 * t * rule.step_size * np.eye(task.dim)
    means = np.empty((n_steps + 1, task.dim))
    covs = np.empty((n_steps + 1, task.dim, task.dim))
    means[0], covs[0] = g0.mean, g0.covariance
    clamp_events = 0
    for k in range(n_steps):
        means[k + 1] = a @ means[k] + shift
        covs[k + 1], clamped = _clamp(a @ covs[k] @ a.T + diffusion)
        clamp_events += int(clamped)
    path = GaussianState(mean=means, covariance=covs)
    sigmas = entropy_production_step(path[:-1], task, rule)
    ledger = DissipationLedger.from_series(sigmas, free_energy(path, task, t), t)
    return path, ledger, clamp_events


def w2_gaussian(g1: GaussianState, g2: GaussianState):
    """Bures-Wasserstein distance between Gaussian states, pairwise along
    paths; a single state is paired with every state of a path."""
    if g1.dim != g2.dim:
        raise ValueError("w2_gaussian: dimension mismatch")
    dmu = g1.mean - g2.mean
    root2 = covariance_sqrt(g2.covariance)
    cross = require_symmetric(root2 @ g1.covariance @ root2, rel_tol=1e-6, name="w2 cross term")
    cross_eigs = np.maximum(np.linalg.eigvalsh(cross), 0.0)
    sq = (
        _dot(dmu, dmu)
        + (_trace(g1.covariance) + _trace(g2.covariance))
        - 2.0 * np.sum(np.sqrt(cross_eigs), axis=-1)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def ot_geodesic(g0: GaussianState, g1: GaussianState, n_steps: int) -> GaussianState:
    """Displacement interpolation q_0, ..., q_{n_steps} at s = k / n_steps, as a path.

    The optimal map between the endpoint Gaussians is
    T* = S0^{-1/2} (S0^{1/2} S1 S0^{1/2})^{1/2} S0^{-1/2}; interpolate means
    linearly and covariances by C_s S0 C_s with C_s = (1-s) I + s T*.
    """
    if g0.mean.ndim != 1 or g0.mean.shape != g1.mean.shape:
        raise ValueError("ot_geodesic: endpoints must be single states of one dimension")
    if n_steps < 1:
        raise ValueError("ot_geodesic: n_steps must be >= 1")
    root0 = covariance_sqrt(g0.covariance)
    inv_root0 = np.linalg.inv(root0)
    cross = root0 @ g1.covariance @ root0
    mid = covariance_sqrt((cross + cross.T) / 2.0)
    t_map = inv_root0 @ mid @ inv_root0
    t_map = (t_map + t_map.T) / 2.0
    s = (np.arange(n_steps + 1) / n_steps)[:, None]
    c = (1.0 - s[..., None]) * np.eye(g0.dim) + s[..., None] * t_map
    mean = (1.0 - s) * g0.mean + s * g1.mean
    return clamped_state(mean, c @ g0.covariance @ c.swapaxes(-1, -2))[0]


def geodesic_action_ledger(
    path: GaussianState, task: QuadraticTask, temperature: float
) -> DissipationLedger:
    """Ledger for tracing a state path by pure transport over unit time.

    Step k costs its kinetic action sigma_k = W2(q_k, q_{k+1})^2 / (2 ds) with
    ds = 1 / n_steps; along a constant-speed geodesic the total is W2^2 / 2,
    the minimal dissipation for moving between the endpoints.
    """
    n = path.mean.shape[0] - 1 if path.mean.ndim == 2 else 0
    if n < 1:
        raise ValueError("geodesic_action_ledger: need a path of at least two states")
    # squared by Python's float power, which rounds differently from numpy's
    # square in about 1 of 1000 values; the data files keep the former
    sigmas = [n * w**2 / 2.0 for w in w2_gaussian(path[:-1], path[1:]).tolist()]
    return DissipationLedger.from_series(sigmas, free_energy(path, task, temperature), temperature)


def esl_slack(ledger: DissipationLedger, g_start: GaussianState, g_end: GaussianState) -> float:
    """Epistemic Speed Limit (ESL) slack: production minus W2(start, end)^2 / 2.

    Valid under the unit-time convention (runs with n_steps * eta <= 1);
    nonnegative up to numerical fuzz, and zero only for ideal transport.
    """
    return float(ledger.total - 0.5 * w2_gaussian(g_start, g_end) ** 2)


def series_table(path: GaussianState, ledger: DissipationLedger, g_start: GaussianState) -> dict:
    """One trajectory's CSV columns: step, the sigma of the step into each
    state (0.0 at the start), free energy and W2 from ``g_start``."""
    return {
        "step": np.arange(len(ledger.free_energy_series)),
        "sigma": np.concatenate([[0.0], ledger.per_step_sigma]),
        "free_energy": ledger.free_energy_series,
        "w2_from_start": w2_gaussian(g_start, path),
    }
