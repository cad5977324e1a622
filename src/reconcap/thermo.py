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

from .gaussian import GaussianState, clamped_state, covariance_sqrt
from .spectral import require_symmetric
from .tasks import QuadraticTask
from .transport import StepKind, StepRule, step_jacobian

LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)


def _check_pair(g: GaussianState, task: QuadraticTask):
    if g.dim != task.dim:
        raise ValueError(f"state dim {g.dim} != task dim {task.dim}")


def entropy(g: GaussianState) -> float:
    """Differential entropy in nats."""
    sign, logdet = np.linalg.slogdet(g.covariance)
    if sign <= 0:
        raise ValueError("entropy: covariance not positive definite")
    return float(0.5 * g.dim * LOG_2PI_E + 0.5 * logdet)


def mean_value(g: GaussianState, task: QuadraticTask) -> float:
    """E_q[phi] for the Gaussian ensemble."""
    _check_pair(g, task)
    d = g.mean - task.minimizer
    return float(0.5 * d @ (task.hessian @ d) + 0.5 * np.trace(task.hessian @ g.covariance))


def free_energy(g: GaussianState, task: QuadraticTask, temperature: float) -> float:
    if temperature < 0.0:
        raise ValueError("free_energy: temperature must be >= 0")
    return mean_value(g, task) - temperature * entropy(g)


def _drift_matrix(task: QuadraticTask, rule: StepRule) -> np.ndarray:
    a = step_jacobian(task, rule)
    radius = float(np.max(np.abs(np.linalg.eigvalsh((a + a.T) / 2.0))))
    if radius > 1.0 + 1e-12:
        raise ValueError(
            f"unstable step rule: |1 - eta*lambda| reaches {radius:.6f} > 1 "
            "(need eta * lambda_max < 2)"
        )
    return a


def entropy_production_step(g: GaussianState, task: QuadraticTask, rule: StepRule) -> float:
    """sigma_k = eta * E|v|^2 / T at the pre-step state (langevin rule only)."""
    _check_pair(g, task)
    if rule.kind is not StepKind.LANGEVIN or rule.noise_scale <= 0.0:
        raise ValueError("entropy_production_step: requires a langevin rule with T > 0")
    t = rule.noise_scale
    h = task.hessian
    drift = h @ (g.mean - task.minimizer)
    eigvals = np.linalg.eigvalsh(g.covariance)
    mean_sq = (
        float(drift @ drift)
        + t * t * float(np.sum(1.0 / eigvals))
        - 2.0 * t * float(np.trace(h))
        + float(np.trace(h @ g.covariance @ h))
    )
    return rule.step_size * max(mean_sq, 0.0) / t


@dataclass(frozen=True)
class DissipationLedger:
    """Per-step entropy production against the free-energy drop it pays for.

    total = sum(per_step_sigma); excess = total - (F_first - F_last) / T.
    """

    per_step_sigma: np.ndarray
    free_energy_series: np.ndarray
    temperature: float
    total: float
    excess: float

    @classmethod
    def from_series(cls, sigmas, free_energies, temperature: float) -> "DissipationLedger":
        s = np.asarray(sigmas, dtype=np.float64)
        f = np.asarray(free_energies, dtype=np.float64)
        if f.shape[0] != s.shape[0] + 1:
            raise ValueError("DissipationLedger: need one more free energy than sigma entries")
        if np.any(s < 0.0):
            raise ValueError("DissipationLedger: negative per-step sigma")
        if temperature <= 0.0:
            raise ValueError("DissipationLedger: temperature must be > 0")
        total = float(np.sum(s))
        excess = total - (float(f[0]) - float(f[-1])) / temperature
        return cls(
            per_step_sigma=s,
            free_energy_series=f,
            temperature=float(temperature),
            total=total,
            excess=excess,
        )


def simulate_relaxation(
    g0: GaussianState, task: QuadraticTask, rule: StepRule, n_steps: int
) -> tuple[list, DissipationLedger, int]:
    """Exact Langevin moment recursion with full bookkeeping.

    mean' = A mean + eta H theta*,  Sigma' = A Sigma A^T + 2 T eta I, with A
    the step Jacobian; covariance eigenvalues are clamped at the module floor
    when pure contraction drives them under it.  Returns (states, ledger,
    clamp_events); sigma is evaluated at the state a step departs from, free
    energy at every visited state.
    """
    if rule.kind is not StepKind.LANGEVIN:
        raise ValueError("simulate_relaxation: requires a langevin rule")
    t = rule.noise_scale
    eta = rule.step_size
    a = _drift_matrix(task, rule)
    shift = eta * task.hessian @ task.minimizer
    diffusion = 2.0 * t * eta * np.eye(task.dim)
    states = [g0]
    sigmas = np.empty(n_steps)
    energies = np.empty(n_steps + 1)
    clamp_events = 0
    g = g0
    for k in range(n_steps):
        energies[k] = free_energy(g, task, t)
        sigmas[k] = entropy_production_step(g, task, rule)
        g, clamped = clamped_state(a @ g.mean + shift, a @ g.covariance @ a.T + diffusion)
        clamp_events += int(clamped)
        states.append(g)
    energies[n_steps] = free_energy(g, task, t)
    return states, DissipationLedger.from_series(sigmas, energies, t), clamp_events


def w2_gaussian(g1: GaussianState, g2: GaussianState) -> float:
    """Bures-Wasserstein distance between Gaussian states."""
    if g1.dim != g2.dim:
        raise ValueError("w2_gaussian: dimension mismatch")
    dmu = g1.mean - g2.mean
    root2 = covariance_sqrt(g2.covariance)
    cross = require_symmetric(root2 @ g1.covariance @ root2, rel_tol=1e-6, name="w2 cross term")
    cross_eigs = np.maximum(np.linalg.eigvalsh(cross), 0.0)
    sq = (
        float(dmu @ dmu)
        + float(np.trace(g1.covariance) + np.trace(g2.covariance))
        - 2.0 * float(np.sum(np.sqrt(cross_eigs)))
    )
    return float(np.sqrt(max(sq, 0.0)))


def ot_geodesic(g0: GaussianState, g1: GaussianState, n_steps: int) -> list:
    """Displacement interpolation [q_0, ..., q_{n_steps}] at s = k / n_steps.

    The optimal map between the endpoint Gaussians is
    T* = S0^{-1/2} (S0^{1/2} S1 S0^{1/2})^{1/2} S0^{-1/2}; interpolate means
    linearly and covariances by C_s S0 C_s with C_s = (1-s) I + s T*.
    """
    if g0.dim != g1.dim:
        raise ValueError("ot_geodesic: dimension mismatch")
    if n_steps < 1:
        raise ValueError("ot_geodesic: n_steps must be >= 1")
    eigvals, eigvecs = np.linalg.eigh(g0.covariance)
    if eigvals[0] <= 0.0:
        raise ValueError("ot_geodesic: start covariance not positive definite")
    root0 = eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T
    inv_root0 = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    mid = covariance_sqrt((root0 @ g1.covariance @ root0 + (root0 @ g1.covariance @ root0).T) / 2.0)
    t_map = inv_root0 @ mid @ inv_root0
    t_map = (t_map + t_map.T) / 2.0
    eye = np.eye(g0.dim)
    out = []
    for k in range(n_steps + 1):
        s = k / n_steps
        c = (1.0 - s) * eye + s * t_map
        cov = c @ g0.covariance @ c.T
        state, _ = clamped_state((1.0 - s) * g0.mean + s * g1.mean, cov)
        out.append(state)
    return out


def geodesic_action_ledger(
    states, task: QuadraticTask, temperature: float
) -> DissipationLedger:
    """Ledger for tracing a state path by pure transport over unit time.

    Step k costs its kinetic action sigma_k = W2(q_k, q_{k+1})^2 / (2 ds) with
    ds = 1 / n_steps; along a constant-speed geodesic the total is W2^2 / 2,
    the minimal dissipation for moving between the endpoints.
    """
    n = len(states) - 1
    if n < 1:
        raise ValueError("geodesic_action_ledger: need at least two states")
    sigmas = np.empty(n)
    energies = np.empty(n + 1)
    for k in range(n):
        energies[k] = free_energy(states[k], task, temperature)
        sigmas[k] = n * w2_gaussian(states[k], states[k + 1]) ** 2 / 2.0
    energies[n] = free_energy(states[n], task, temperature)
    return DissipationLedger.from_series(sigmas, energies, temperature)


def esl_slack(ledger: DissipationLedger, g_start: GaussianState, g_end: GaussianState) -> float:
    """Entropic speed limit slack: total production minus W2(start, end)^2 / 2.

    Valid under the unit-time convention (runs with n_steps * eta <= 1);
    nonnegative up to numerical fuzz, and zero only for ideal transport.
    """
    return float(ledger.total - 0.5 * w2_gaussian(g_start, g_end) ** 2)


def series_rows(states, ledger: DissipationLedger, g_start: GaussianState) -> tuple[list, list]:
    """CSV rows (step, sigma, free_energy, w2_from_start) for one trajectory."""
    header = ["step", "sigma", "free_energy", "w2_from_start"]
    rows = []
    n = len(states)
    for k in range(n):
        sigma = float(ledger.per_step_sigma[k - 1]) if k > 0 else 0.0
        rows.append(
            [
                k,
                sigma,
                float(ledger.free_energy_series[k]),
                w2_gaussian(g_start, states[k]),
            ]
        )
    return header, rows
