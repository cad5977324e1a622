"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity by a different route than the package
(finite differences, Monte Carlo, dense matrix powers, scipy solvers, or a
from-scratch entropic OT solver) so agreement is evidence, not tautology.
The ``per_*`` functions are the other kind of reference: the stacked
spectral layer, the Gaussian path functions and the stacked propagation
kernel redone one matrix, one seed, one state or one run at a time, with
1-D vector products, which the stacked calls must match bit for bit.
``per_run_propagation`` is the plain-loop run that every test of
``transport.propagate`` compares against: it steps the update map as the
``transport`` docstring states it, draws its own noise chunks and keeps
its own Jacobian, the plain-loop product that ``transport.step_powers``
is held to, and uses nothing from ``reconcap.transport``.  The
``per_trial_*`` functions are composition-check's draws, rows and ledgers
redone one trial at a time, which its stacked blocks must match bit for
bit.  ``per_pair_task_pair`` is the task-pair build as one seed's plain
loop, with its checks and messages, which every member of a stacked
``make_task_pair`` must match bit for bit; it uses no constructor of
``reconcap.tasks``.  ``per_cell_stage1`` is one sweep cell's stage-1 loop
with its exit on a repeated iterate, which every member of the sweep's
lockstep stage 1 must match bit for bit.  ``full_length_stage1`` and
``full_length_escape`` are a sweep cell's phase-2 loops without early exits:
every stage-1 update up to the limit, and one escape run over the whole
limit, scanned afterwards.  ``half_quadratic`` is a task's loss and
gradient at one offset as 1-D products, the arithmetic every sweep oracle
and the stacked ``tasks._half_quadratic`` are held to, and ``task_value``
is a task's loss at one point from it.  ``forgetting_floor`` is the
curvature floor on a task's loss that criterion 8 holds ``task_value`` to.
``product_log_spectra`` takes a power's spectra from the explicit product,
inside the window where the product resolves them, which the eigen route of
``transport.step_eigen`` and ``capacity.power_log_spectra`` is held to.
``STREAM_ORACLE`` is the stream tag of the tests' own draws, which no run
of the package reads.  Three builders
supply test inputs and targets instead: ``sample_batch`` (seeded Gaussian
clouds), ``gibbs_state`` (the stationary Langevin target) and
``jacobian_stack`` (matrices with a rank-deficient and a collapsed member).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from reconcap import rng
from reconcap.gaussian import COVARIANCE_FLOOR, GaussianState, covariance_sqrt
from reconcap.spectral import RANK_TOL_ABS, RANK_TOL_REL

# The tests' own draws: a stream tag that no run of the package reads.
STREAM_ORACLE = 4


def sample_batch(state: GaussianState, n: int, master_seed: int, tag: int = STREAM_ORACLE) -> np.ndarray:
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


def per_spectrum_log_volume(log_spectra) -> np.ndarray:
    """log Gram volume of each descending log spectrum, one spectrum at a
    time: -inf at or below the collapse cutoff, else 2 sum log sigma."""
    out = []
    for ls in log_spectra:
        if ls[-1] <= max(math.log(RANK_TOL_REL) + ls[0], math.log(RANK_TOL_ABS)):
            out.append(float("-inf"))
        else:
            out.append(float(2.0 * np.sum(ls)))
    return np.array(out)


def per_matrix_effective_rank(jacobian) -> float:
    """Effective rank of one Jacobian, from its own SVD."""
    with np.errstate(divide="ignore"):
        log = per_spectrum_log_volume(np.log(per_matrix_singular_values([jacobian])))[0]
    return 0.0 if log == float("-inf") else float(np.exp(log / np.shape(jacobian)[-1]))


def per_matrix_compatible_rank(jacobian, basis: np.ndarray, tau: float) -> tuple[float, int]:
    """(compatible rank, usable count) of one Jacobian, from its own SVD; the
    count compares the singular values themselves with tau."""
    sigma = per_matrix_singular_values([jacobian @ basis])
    with np.errstate(divide="ignore"):
        log = per_spectrum_log_volume(np.log(sigma))[0]
    rank = 0.0 if log == float("-inf") else float(np.exp(log / basis.shape[1]))
    return rank, int(np.sum(sigma[0] > tau))


def product_log_spectra(powers, basis=None, window: float = 1e-3) -> np.ndarray:
    """log singular values of each explicit power A^k, or of A^k Q for a
    basis Q, one SVD per matrix, NaN where sigma is under ``window`` times
    that matrix's largest: a product of k factors resolves sigma_i only to
    about k eps sigma_max, so it checks an eigen route only inside that
    window."""
    out = []
    for power in powers:
        sigma = np.linalg.svd(power if basis is None else power @ basis, compute_uv=False)
        with np.errstate(divide="ignore"):
            out.append(np.where(sigma >= window * sigma[0], np.log(sigma), np.nan))
    return np.array(out)


def per_seed_rotations(dim: int, seeds) -> np.ndarray:
    """Sign-fixed QR rotation of each seed's own task stream, one QR per seed."""
    out = []
    for seed in seeds:
        q, r = np.linalg.qr(rng.stream(seed, rng.STREAM_TASK).standard_normal((dim, dim)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        out.append(q * signs)
    return np.array(out)


def per_pair_task_pair(d, k_a, spectrum_b_on_a, rotation_seed, *, a_spectrum=None, offset_scale=0.0, tilt=0.0):
    """One seed's task pair as ``make_task_pair`` built it one pair at a
    time: ``{"h_a", "h_b", "theta_b", "basis", "m_b"}``, after the same
    checks with the same messages."""
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
    rot = per_seed_rotations(d, [rotation_seed])[0]
    normal_dirs, null_dirs = rot[:, : d - k_a], rot[:, d - k_a :]
    h_a = normal_dirs @ np.diag(a_vals) @ normal_dirs.T
    h_a = (h_a + h_a.T) / 2.0
    demanded = np.flatnonzero(spectrum > 0.0)
    if tilt != 0.0 and demanded.size and int(demanded.max()) >= d - k_a:
        raise ValueError(
            "make_task_pair: tilt pairs demand direction j with normal direction j; "
            f"positive spectrum index {int(demanded.max())} has no partner (d - k_a = {d - k_a})"
        )
    h_b, offset = np.zeros((d, d)), np.zeros(d)
    norm_sq = 1.0 + tilt * tilt
    for j in demanded:
        q_j = null_dirs[:, j]
        if tilt != 0.0:
            v, beta = (q_j + tilt * normal_dirs[:, j]) / np.sqrt(norm_sq), spectrum[j] * norm_sq
        else:
            v, beta = q_j, spectrum[j]
        h_b += beta * np.outer(v, v)
        offset += offset_scale * q_j
    for label, h in (("first-task", h_a), ("second-task", h_b)):
        eigs = np.linalg.eigvalsh(h)
        if eigs[0] < -1e-8 * max(eigs[-1], 1.0):
            raise ValueError(f"{label}: hessian not PSD (min eigenvalue {eigs[0]:.3e})")
    if not np.allclose(null_dirs.T @ null_dirs, np.eye(k_a), atol=1e-10):
        raise ValueError("basis: columns not orthonormal within 1e-10")
    if np.linalg.norm(h_a @ null_dirs) > 1e-8:
        raise ValueError(f"TaskPair: ||H_A Q_A||_F = {np.linalg.norm(h_a @ null_dirs):.3e} exceeds 1e-8")
    restricted = null_dirs.T @ h_b @ null_dirs
    restricted = (restricted + restricted.T) / 2.0
    eigs = np.linalg.eigvalsh(restricted)
    top = float(np.max(np.abs(eigs)))
    m_b = 0.0
    if float(np.max(np.abs(restricted))) > 1e-12 and top > RANK_TOL_ABS:
        m_b = float(np.sum((eigs / top) ** 2))
    top = float(np.max(spectrum)) if demanded.size else 0.0
    target = float(np.sum((spectrum / top) ** 2)) if top > 0.0 else 0.0
    if abs(m_b - target) > 1e-6:
        raise ValueError(f"TaskPair: restricted stable rank {m_b!r} != target {target!r}")
    return {"h_a": h_a, "h_b": h_b, "theta_b": np.zeros(d) + offset, "basis": null_dirs, "m_b": m_b}


def per_trial_controlled_task(dim: int, seed: int, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """(hessian, minimizer) of composition-check's controlled task of one
    trial, from that trial's task stream and one per-seed rotation."""
    gen = rng.stream(seed, rng.STREAM_TASK, trial)
    spectrum = gen.uniform(0.2, 1.8, size=dim)
    rot = per_seed_rotations(dim, [seed + 7919 * trial + 1])[0]
    h = rot @ np.diag(spectrum) @ rot.T
    return (h + h.T) / 2.0, gen.standard_normal(dim)


def per_run_propagation(theta0, hessian, minimizer, rule, n_steps, seed, realization=0, offset=0):
    """One run of the update map as the ``transport`` docstring states it,
    stepped with 1-D products: theta' = A theta + b + g xi, A = I - eta (H +
    wd I), b = eta H theta*, g = eta s (noisy_gradient), sqrt(2 s eta)
    (langevin) or none (gradient_descent).  Step k reads xi as row
    k % CHUNK_STEPS of the stream keyed by chunk k // CHUNK_STEPS.  Returns
    the states ``(n_steps + 1, d)`` and the left-product Jacobian."""
    eta, eye = rule.step_size, np.eye(len(theta0))
    a = eye - eta * (hessian + rule.weight_decay * eye)
    b = (eta * hessian) @ minimizer
    gains = {"noisy_gradient": eta * rule.noise_scale, "langevin": math.sqrt(2.0 * rule.noise_scale * eta)}
    g = gains.get(rule.kind.value)
    states, jac, blocks = [np.asarray(theta0, dtype=float)], eye, {}
    for k in range(offset, offset + n_steps):
        theta = a @ states[-1] + b
        if g is not None:
            chunk = k // rng.CHUNK_STEPS
            if chunk not in blocks:
                gen = rng.stream(seed, rng.STREAM_STEP_NOISE, realization, chunk)
                blocks[chunk] = gen.standard_normal((rng.CHUNK_STEPS, len(theta0)))
            theta = theta + g * blocks[chunk][k % rng.CHUNK_STEPS]
        states.append(theta)
        jac = a @ jac
    return np.array(states), jac


def per_trial_composition_row(dim: int, seed: int, trial: int) -> list:
    """One composition-check row: the trial's run split in three, each part
    its own ``per_run_propagation`` from where the last one ended, the
    Jacobian recomposed as J3 (J2 J1) and (J3 J2) J1 and compared with the
    unsplit run."""
    from reconcap.scenarios import _COMPOSITION_RULES

    h, theta_star = per_trial_controlled_task(dim, seed, trial)
    rule = _COMPOSITION_RULES[trial % len(_COMPOSITION_RULES)]
    gen = rng.stream(seed, rng.STREAM_TASK, trial, 1)
    lens = [int(x) for x in gen.integers(1, 6, size=3)]
    theta0 = gen.standard_normal(dim)
    full, full_jac = per_run_propagation(theta0, h, theta_star, rule, sum(lens), seed, trial)
    states, jacs, start = [theta0[None]], [], theta0
    for n, offset in zip(lens, (0, lens[0], lens[0] + lens[1])):
        seg, jac = per_run_propagation(start, h, theta_star, rule, n, seed, trial, offset)
        states.append(seg[1:])
        jacs.append(jac)
        start = seg[-1]
    j1, j2, j3 = jacs
    gaps = [j3 @ (j2 @ j1) - full_jac, (j3 @ j2) @ j1 - full_jac, np.concatenate(states) - full]
    return [trial, *lens, rule.kind.value, float(np.max(np.abs(np.concatenate(gaps))))]


def per_trial_product_spectra(seed: int, trial: int, s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """Singular values of one submultiplicativity trial's product of two
    factors with spectra ``s_a`` and ``s_b``, as those of diag(s_a) V_a^T U_b
    diag(s_b) with the trial's two inner rotations (seeds k = 1 and 2), one
    QR per rotation."""
    first = seed + 104729 * trial + 11
    v_a, u_b = per_seed_rotations(len(s_a), [first + 1, first + 2])
    prod = s_a[:, None] * (v_a.T @ u_b) * s_b[None, :]
    return np.linalg.svd(prod, compute_uv=False)


def per_trial_factor_spectra(seed: int, trial: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(dimension, s_a, s_b) of one submultiplicativity trial, drawn from
    its own task stream: each spectrum uniform in [0.5, 2], then about 30%
    of its entries zeroed."""
    gen = rng.stream(seed, rng.STREAM_TASK, trial, 2)
    d_t = int(gen.integers(2, 33))
    spectra = []
    for _ in range(2):
        s = gen.uniform(0.5, 2.0, size=d_t)
        s[gen.random(d_t) < 0.3] = 0.0
        spectra.append(s)
    return d_t, *spectra


def per_trial_monotonicity(dim: int, seed: int, trial: int) -> tuple[list, list]:
    """Effective rank of the step-matrix power and regularized loss along
    one monotonicity trial's 40 gradient steps, stepped one vector at a time;
    the step matrix A = I - 0.4 (H + wd I) is symmetric, so the log singular
    values of its k-th power are k log|1 - 0.4 m| for the eigenvalues m of
    the trial's own ``eigh`` of H + wd I, sorted descending."""
    h, theta_star = per_trial_controlled_task(dim, seed + 1, trial)
    wd = 0.1 if trial % 2 else 0.0
    a_mat = np.eye(dim) - 0.4 * (h + wd * np.eye(dim))
    shift = 0.4 * h @ theta_star
    base = np.sort(np.log(np.abs(1.0 - 0.4 * np.linalg.eigh(h + wd * np.eye(dim))[0])))[::-1]
    theta = rng.stream(seed, rng.STREAM_TASK, trial, 3).standard_normal(dim)
    ranks, vals = [], []
    for k in range(41):
        if k:
            theta = a_mat @ theta + shift
        log = per_spectrum_log_volume([k * base])[0]
        ranks.append(0.0 if log == float("-inf") else float(np.exp(log / dim)))
        vals.append(half_quadratic(h, theta - theta_star)[0] + 0.5 * wd * float(theta @ theta))
    return ranks, vals


def per_state_clamp(covariance) -> tuple[np.ndarray, bool]:
    """One covariance symmetrized and lifted to the floor; whether it was."""
    cov = (covariance + covariance.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] >= COVARIANCE_FLOOR:
        return cov, False
    cov = eigvecs @ np.diag(np.maximum(eigvals, COVARIANCE_FLOOR)) @ eigvecs.T
    return (cov + cov.T) / 2.0, True


def per_state_w2(m1, c1, m2, c2) -> float:
    """Bures-Wasserstein distance between two single Gaussians."""
    eigvals, eigvecs = np.linalg.eigh(c2)
    root2 = eigvecs @ np.diag(np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.T
    root2 = (root2 + root2.T) / 2.0
    cross = root2 @ c1 @ root2
    cross_eigs = np.maximum(np.linalg.eigvalsh((cross + cross.T) / 2.0), 0.0)
    dmu = m1 - m2
    sq = (
        float(dmu @ dmu)
        + float(np.trace(c1) + np.trace(c2))
        - 2.0 * float(np.sum(np.sqrt(cross_eigs)))
    )
    return float(np.sqrt(max(sq, 0.0)))


def per_state_free_energy(mean, cov, task, temperature: float) -> float:
    """E_q[phi] - T S(q) of one Gaussian on a quadratic task."""
    d = mean - task.minimizer
    value = float(0.5 * d @ (task.hessian @ d) + 0.5 * np.trace(task.hessian @ cov))
    logdet = np.linalg.slogdet(cov)[1]
    entropy = float(0.5 * len(mean) * (np.log(2.0 * np.pi) + 1.0) + 0.5 * logdet)
    return value - temperature * entropy


def per_state_entropy_production(mean, cov, task, rule) -> float:
    """eta * E|v|^2 / T at one Gaussian (langevin rule)."""
    t, h = rule.noise_scale, task.hessian
    drift = h @ (mean - task.minimizer)
    mean_sq = (
        float(drift @ drift)
        + t * t * float(np.sum(1.0 / np.linalg.eigvalsh(cov)))
        - 2.0 * t * float(np.trace(h))
        + float(np.trace(h @ cov @ h))
    )
    return rule.step_size * max(mean_sq, 0.0) / t


def forgetting_floor(task, theta) -> float:
    """mu/2 * delta^2 <= phi(theta) from one ``eigh``: delta is the distance of
    ``theta`` from the task's optimal affine set, mu its smallest positive curvature."""
    eigvals, eigvecs = np.linalg.eigh(task.hessian)
    keep = eigvals > RANK_TOL_REL * max(float(eigvals[-1]), 1.0)
    delta = float(np.linalg.norm(eigvecs[:, keep].T @ (theta - task.minimizer)))
    mu = float(eigvals[keep][0]) if np.any(keep) else 0.0
    return 0.5 * mu * delta * delta


def half_quadratic(h, d) -> tuple[float, np.ndarray]:
    """``(0.5 d^T H d, H d)`` for one offset ``d = theta - theta*``."""
    hd = h @ d
    return float(0.5 * d @ hd), hd


def task_value(task, theta) -> float:
    """phi(theta) of one task at one point, from ``half_quadratic``."""
    return half_quadratic(task.hessian, theta - task.minimizer)[0]


def per_cell_stage1(theta_start, survivors, h_b, target, eta, eps_b, limit):
    """One sweep cell's stage 1: gradient descent on task B ``(h_b, target)``
    over theta_start + survivors @ y, from y = 0, up to the first iterate
    within eps_b or ``limit`` updates, or up to the first iterate that
    repeats an earlier one bit for bit (keyed as bytes), from where the
    iterates cycle; it then jumps to the iterate the limit would reach.
    Returns that iterate's (theta, loss)."""
    y = np.zeros(survivors.shape[1])
    first_seen, iterates = {}, []
    for n_updates in range(limit + 1):
        mu = first_seen.setdefault(y.tobytes(), n_updates)
        if mu < n_updates:
            y = iterates[mu + (limit - mu) % (n_updates - mu)]
            loss = half_quadratic(h_b, theta_start + survivors @ y - target)[0]
            break
        iterates.append(y)
        loss, h_d = half_quadratic(h_b, theta_start + survivors @ y - target)
        if loss <= eps_b or n_updates == limit:
            break
        y = y - eta * (survivors.T @ h_d)
    return theta_start + survivors @ y, loss


def full_length_stage1(theta_start, survivors, h_b, target, eta, eps_b, limit):
    """``per_cell_stage1`` without its exit on a repeated iterate."""
    y = np.zeros(survivors.shape[1])
    for n_updates in range(limit + 1):
        loss, h_d = half_quadratic(h_b, theta_start + survivors @ y - target)
        if loss <= eps_b or n_updates == limit:
            break
        y = y - eta * (survivors.T @ h_d)
    return theta_start + survivors @ y, loss


def full_length_escape(theta, h_b, target, rule, limit, eps_b):
    """One sweep cell's escape, unconstrained descent on task B ``(h_b,
    target)`` from theta up to the first state within eps_b or ``limit``
    steps, as one ``limit``-step ``per_run_propagation``, scanned after: the
    (steps, state, reached) of that state.  The sweep's rule is plain
    gradient descent, so the seed draws nothing."""
    states, _ = per_run_propagation(theta, h_b, target, rule, limit, 0)
    reached = False
    for steps, s in enumerate(states):
        if half_quadratic(h_b, s - target)[0] <= eps_b:
            reached = True
            break
    return steps, states[steps], reached


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
