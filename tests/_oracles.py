"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity by a different route than the package
(finite differences, Monte Carlo, dense matrix powers, scipy solvers, or a
from-scratch entropic OT solver) so agreement is evidence, not tautology.
The ``per_*`` functions are the other kind of reference: the stacked
spectral layer redone one matrix or one seed at a time, which the stacked
calls must match bit for bit.  ``full_length_stage1`` and
``full_length_escape`` are a sweep cell's phase-2 loops without early
exits: every stage-1 update up to the limit, and one escape ``propagate``
over the whole limit, scanned afterwards.  Three builders supply test
inputs and targets instead: ``sample_batch`` (seeded Gaussian clouds),
``gibbs_state`` (the stationary Langevin target) and ``jacobian_stack``
(matrices with a rank-deficient and a collapsed member).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from reconcap import rng
from reconcap.gaussian import GaussianState, covariance_sqrt
from reconcap.spectral import RANK_TOL_ABS, RANK_TOL_REL
from reconcap.tasks import _half_quadratic
from reconcap.transport import propagate


def sample_batch(state: GaussianState, n: int, master_seed: int, tag: int = rng.STREAM_ORACLE) -> np.ndarray:
    """(n, dim) draws from ``state`` on the single keyed stream (master_seed, tag)."""
    xi = rng.stream(master_seed, tag).standard_normal((n, state.dim))
    return state.mean + xi @ covariance_sqrt(state.covariance).T


def gibbs_state(task, temperature: float, null_variance: float = 100.0) -> GaussianState:
    """Stationary state N(theta*, T H^{-1}) of a quadratic task.

    A flat direction has no preferred scale, so directions with curvature
    below the rank tolerance get variance ``null_variance`` instead of T / lambda.
    """
    eigvals, eigvecs = np.linalg.eigh(task.hessian)
    lam_max = float(eigvals[-1])
    variances = np.empty_like(eigvals)
    for i, lam in enumerate(eigvals):
        if lam > RANK_TOL_REL * max(lam_max, 1.0):
            variances[i] = temperature / lam
        else:
            variances[i] = null_variance
    cov = eigvecs @ np.diag(variances) @ eigvecs.T
    return GaussianState(mean=task.minimizer.copy(), covariance=(cov + cov.T) / 2.0)


def singulars_via_gram(a: np.ndarray) -> np.ndarray:
    """Singular values from the eigendecomposition of A^T A, descending."""
    gram = a.T @ a
    eigvals = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    return np.sqrt(np.maximum(eigvals, 0.0))[::-1]


def jacobian_stack(d: int, n: int = 6, seed: int = 0) -> np.ndarray:
    """``(n, d, d)`` seeded Gaussian matrices; member 1 has an exactly zero
    column (rank deficient) and member 2 a singular value of 1e-14, nonzero
    but below the collapse cutoff."""
    gen = np.random.default_rng(seed + d)
    stack = gen.standard_normal((n, d, d))
    stack[1, :, 0] = 0.0
    u, _ = np.linalg.qr(gen.standard_normal((d, d)))
    v, _ = np.linalg.qr(gen.standard_normal((d, d)))
    stack[2] = u @ np.diag(np.r_[np.ones(d - 1), 1e-14]) @ v.T
    return stack


def per_matrix_singular_values(stack) -> np.ndarray:
    """Singular values of each matrix, one LAPACK call per matrix."""
    return np.array([np.linalg.svd(m, compute_uv=False) for m in stack])


def per_spectrum_log_volume(spectra) -> np.ndarray:
    """log Gram volume of each descending spectrum, one spectrum at a time:
    -inf at or below the collapse cutoff, else 2 sum log sigma."""
    out = []
    for s in spectra:
        if s[-1] <= max(RANK_TOL_REL * s[0], RANK_TOL_ABS):
            out.append(float("-inf"))
        else:
            out.append(float(2.0 * np.sum(np.log(s))))
    return np.array(out)


def per_matrix_effective_rank(jacobians) -> float:
    """Effective rank of one ensemble, one realization at a time."""
    logs = per_spectrum_log_volume(per_matrix_singular_values(jacobians))
    if np.any(logs == float("-inf")):
        return 0.0
    return float(np.exp(np.mean(logs) / np.shape(jacobians)[-1]))


def per_matrix_compatible_rank(jacobians, basis: np.ndarray, tau: float) -> tuple[float, int]:
    """(compatible rank, usable count) of one ensemble, one realization at a time."""
    sigmas = per_matrix_singular_values([m @ basis for m in jacobians])
    logs = per_spectrum_log_volume(sigmas)
    rank = 0.0 if np.any(logs == float("-inf")) else float(np.exp(np.mean(logs) / basis.shape[1]))
    counts = [int(np.sum(s > tau)) for s in sigmas]
    return rank, int(np.ceil(float(np.mean(counts)) - 0.5))


def per_seed_rotations(dim: int, seeds) -> np.ndarray:
    """Sign-fixed QR rotation of each seed's own task stream, one QR per seed."""
    out = []
    for seed in seeds:
        q, r = np.linalg.qr(rng.stream(seed, rng.STREAM_TASK).standard_normal((dim, dim)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        out.append(q * signs)
    return np.array(out)


def full_length_stage1(theta_start, survivors, task_b, eta, eps_b, limit):
    """``scenarios._descend_survivors`` without its fixed-point exit."""
    h_b, target = task_b.hessian, task_b.minimizer
    y = np.zeros(survivors.shape[1])
    for n_updates in range(limit + 1):
        loss, h_d = _half_quadratic(h_b, theta_start + survivors @ y - target)
        if loss <= eps_b or n_updates == limit:
            break
        y = y - eta * (survivors.T @ h_d)
    return theta_start + survivors @ y, loss


def full_length_escape(theta, task_b, rule, limit, omega_seed, realization, eps_b):
    """``scenarios._escape`` as one ``limit``-step propagate, scanned after."""
    traj = propagate(theta, task_b, rule, limit, omega_seed, realization=realization)
    reached = False
    for steps, s in enumerate(traj.states):
        if _half_quadratic(task_b.hessian, s - task_b.minimizer)[0] <= eps_b:
            reached = True
            break
    return steps, traj.states[steps], reached


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def finite_difference_hessian(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    out = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(d):
            ej = np.zeros(d)
            ej[j] = h
            out[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return (out + out.T) / 2.0


def line_integral(gradient_fn, x0: np.ndarray, x1: np.ndarray, n: int = 4000) -> float:
    """Midpoint-rule work integral of a gradient field along the segment x0 -> x1."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    delta = (x1 - x0) / n
    total = 0.0
    for k in range(n):
        mid = x0 + (k + 0.5) * delta
        total += float(gradient_fn(mid) @ delta)
    return total


def mc_entropy(mean: np.ndarray, cov: np.ndarray, n: int, seed: int) -> float:
    """Monte Carlo differential entropy -E[log q] of a Gaussian."""
    rng = np.random.default_rng(seed)
    d = mean.size
    x = rng.multivariate_normal(mean, cov, size=n)
    diff = x - mean
    inv = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
    log_q = -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    return float(-np.mean(log_q))


def mc_evolved_moments(
    mean: np.ndarray,
    cov: np.ndarray,
    drift: np.ndarray,
    shift: np.ndarray,
    noise_cov_scale: float,
    n_steps: int,
    n_samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical moments of x' = A x + b + sqrt(scale) * xi iterated n_steps times."""
    rng = np.random.default_rng(seed)
    d = mean.size
    x = rng.multivariate_normal(mean, cov, size=n_samples)
    for _ in range(n_steps):
        noise = rng.standard_normal((n_samples, d)) * np.sqrt(noise_cov_scale)
        x = x @ drift.T + shift + noise
    emp_mean = x.mean(axis=0)
    centered = x - emp_mean
    emp_cov = centered.T @ centered / (n_samples - 1)
    return emp_mean, emp_cov


def stationary_covariance(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Fixed point of S -> A S A^T + D."""
    return solve_discrete_lyapunov(drift, diffusion)


def sorted_coupling_w2(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W2 between equal-weight 1-D empirical measures (monotone coupling)."""
    xs = np.sort(np.asarray(x, dtype=np.float64).ravel())
    ys = np.sort(np.asarray(y, dtype=np.float64).ravel())
    assert xs.size == ys.size
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def _sinkhorn_kernel(f, g, cost, eps):
    # clamp exponents so no row underflows to all-zero and nothing overflows
    z = f[:, None] + g[None, :]
    z -= cost
    z /= eps
    np.clip(z, -75.0, 30.0, out=z)
    return np.exp(z, out=z)


def sinkhorn_w2(
    x: np.ndarray,
    y: np.ndarray,
    epsilons=(0.5, 0.1, 0.02),
    max_iters_per_stage: int = 600,
    block: int = 10,
    tol: float = 1e-3,
    absorb_every: int = 100,
) -> float:
    """Entropic OT estimate of W2 between equal-weight empirical clouds.

    Annealed over the epsilon schedule, float32 kernels, scaling vectors
    absorbed into log-domain potentials at stage boundaries and every
    absorb_every iterations.  Returns sqrt(<P, C>) for the squared
    Euclidean cost; the smoothing bias at the final epsilon is far below
    the tolerance this oracle is used at.

    Periodic absorption is not just overflow protection: with u and v held
    near one, updates stay resolvable in float32 and the marginal residual
    keeps contracting instead of stalling around 1e-2.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float32))
    n = x.shape[0]
    assert y.shape[0] == n
    cost = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(y * y, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    ).astype(np.float32)
    np.maximum(cost, 0.0, out=cost)
    inv_n = np.float32(1.0 / n)
    f = np.zeros(n, dtype=np.float32)
    g = np.zeros(n, dtype=np.float32)
    for stage, eps in enumerate(epsilons):
        eps32 = np.float32(eps)
        stage_tol = tol if stage == len(epsilons) - 1 else 10.0 * tol
        kernel = _sinkhorn_kernel(f, g, cost, eps32)
        u = np.ones(n, dtype=np.float32)
        v = np.ones(n, dtype=np.float32)
        used = 0
        while used < max_iters_per_stage:
            for _ in range(block):
                u = inv_n / (kernel @ v)
                v = inv_n / (kernel.T @ u)
            used += block
            row_mass = u * (kernel @ v)
            err = float(np.max(np.abs(n * row_mass - 1.0)))
            drift = max(float(np.max(u)), float(np.max(v)))
            if err < stage_tol and np.isfinite(err):
                break
            if not np.isfinite(err) or drift > 1e18 or used % absorb_every == 0:
                f = f + eps32 * np.log(u)
                g = g + eps32 * np.log(v)
                kernel = _sinkhorn_kernel(f, g, cost, eps32)
                u = np.ones(n, dtype=np.float32)
                v = np.ones(n, dtype=np.float32)
        f = f + eps32 * np.log(u)
        g = g + eps32 * np.log(v)
    plan = _sinkhorn_kernel(f, g, cost, np.float32(epsilons[-1]))
    plan_mass = float(plan.sum())
    plan *= cost
    return float(np.sqrt(max(float(plan.sum()) / plan_mass, 0.0)))
