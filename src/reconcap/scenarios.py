"""Named desk-scale experiments over the core machinery.

Each scenario takes a validated ExperimentConfig, writes CSV data plus a
summary.json into its output directory, and has a paired check_* validator
used by the CLI's --check flag.  Data files are byte-stable across replays;
the manifest (timestamps) is the only file allowed to differ.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import capacity, rng, thermo, transport
from .config import (
    ExperimentConfig,
    RunManifest,
    save_config,
    write_csv,
    write_json,
)
from .gaussian import GaussianState
from .spectral import RANK_TOL_REL, singular_values, spectrum_rank
from .tasks import QuadraticTask, _half_quadratic, combine, make_task_pair, random_rotations
from .transport import StepRule, propagate, step_jacobian


class CheckError(RuntimeError):
    """A scenario ran to completion but its output failed validation."""


# ---------------------------------------------------------------------------
# esl-gap: relaxation dissipation vs the transport floor


def run_esl_gap(cfg: ExperimentConfig, out: Path) -> dict:
    t_cfg = cfg.thermo
    d = len(t_cfg.start_mean)
    task = QuadraticTask(
        dim=d,
        hessian=np.diag(np.asarray(t_cfg.hessian_spectrum, dtype=np.float64)),
        minimizer=np.zeros(d),
        label="relaxation-target",
    )
    rule = cfg.rule
    g0 = GaussianState(
        mean=np.asarray(t_cfg.start_mean, dtype=np.float64),
        covariance=t_cfg.start_cov_scale * np.eye(d),
    )

    states, ledger, clamp_events = thermo.simulate_relaxation(g0, task, rule, cfg.n_steps)
    g_end = states[-1]
    floor = 0.5 * thermo.w2_gaussian(g0, g_end) ** 2
    slack = thermo.esl_slack(ledger, g0, g_end)

    n_geo = t_cfg.n_geodesic_steps
    geo = thermo.ot_geodesic(g0, g_end, n_geo)
    geo_ledger = thermo.geodesic_action_ledger(geo, task, rule.noise_scale)
    n_coarse = max(n_geo // 10, 2)
    coarse = thermo.ot_geodesic(g0, g_end, n_coarse)
    coarse_ledger = thermo.geodesic_action_ledger(coarse, task, rule.noise_scale)

    header, rows = thermo.series_rows(states, ledger, g0)
    write_csv(out / "dynamics.csv", header, rows)
    header, rows = thermo.series_rows(geo, geo_ledger, g0)
    write_csv(out / "geodesic.csv", header, rows)

    summary = {
        "temperature": rule.noise_scale,
        "step_size": rule.step_size,
        "n_steps": cfg.n_steps,
        "time_horizon": cfg.n_steps * rule.step_size,
        "total_production": ledger.total,
        "excess_production": ledger.excess,
        "free_energy_drop": float(
            ledger.free_energy_series[0] - ledger.free_energy_series[-1]
        ),
        "transport_floor": floor,
        "slack": slack,
        "geodesic_action": geo_ledger.total,
        "geodesic_action_coarse": coarse_ledger.total,
        "geodesic_rel_error": abs(geo_ledger.total - floor) / floor,
        "clamp_events": clamp_events,
    }
    write_json(out / "summary.json", summary)
    return summary


def check_esl_gap(summary: dict, cfg: ExperimentConfig) -> None:
    if summary["slack"] < -1e-6:
        raise CheckError(f"esl-gap: slack {summary['slack']:.3e} below -1e-6")
    if summary["geodesic_rel_error"] > 0.05:
        raise CheckError(
            f"esl-gap: geodesic action off the floor by {summary['geodesic_rel_error']:.3%}"
        )
    # refinement can only lower the discrete action, modulo float fuzz
    if summary["geodesic_action"] > summary["geodesic_action_coarse"] + 1e-7:
        raise CheckError("esl-gap: refining the geodesic raised its action")
    # criterion 6 asks slack > geodesic_action - floor, strictly; with
    # slack = total_production - floor that is total > geodesic_action
    if summary["total_production"] <= summary["geodesic_action"]:
        raise CheckError("esl-gap: dynamics dissipated no more than ideal transport")


# ---------------------------------------------------------------------------
# rank-decay: closed-form contraction audit under weight decay


def run_rank_decay(cfg: ExperimentConfig, out: Path) -> dict:
    pair = make_task_pair(
        cfg.dim,
        cfg.k_a,
        cfg.pair.spectrum_b_on_a,
        cfg.pair.rotation_seed,
        a_spectrum=cfg.pair.a_spectrum,
    )
    rule = cfg.rule
    a_mat = step_jacobian(pair.task_a, rule)
    eigvals = np.linalg.eigvalsh(a_mat)
    rates = np.sort(np.abs(eigvals))[::-1]
    basis = pair.preserving_basis
    tau = cfg.thresholds.tau_sigma

    header = ["step", "effective_rank", "compatible_rank", "usable_count", "rank_j"]
    header += [f"sv_{i}" for i in range(cfg.dim)]
    rows = []
    max_monotone_violation = 0.0
    # the iterated product only resolves singular values down to roughly
    # n_steps * eps * sigma_max, so the strict relative comparison is limited
    # to steps whose closed-form spectrum stays within 1e-3 of its top
    strict_error = 0.0
    abs_profile_error = 0.0
    usable_zero_step = None
    collapse_step = None
    prev = None
    products = np.empty((cfg.n_steps + 1, cfg.dim, cfg.dim))
    products[0] = np.eye(cfg.dim)
    for step_idx in range(cfg.n_steps):
        products[step_idx + 1] = a_mat @ products[step_idx]
    svs = singular_values(products)
    # each step's product is its own one-realization ensemble
    effs = capacity.spectra_effective_rank(svs[:, None])
    compats, usables = capacity.compatible_effective_rank(products[:, None], basis, tau)
    ledger = zip(svs, effs.tolist(), compats.tolist(), usables.tolist())
    for step_idx, (sv, eff, compat, usable) in enumerate(ledger):
        rows.append([step_idx, eff, compat, usable, spectrum_rank(sv)] + sv.tolist())

        sv_closed = rates**step_idx
        abs_profile_error = max(
            abs_profile_error, float(np.max(np.abs(sv - sv_closed))) / sv_closed[0]
        )
        if sv_closed[-1] >= 1e-3 * sv_closed[0]:
            closed_eff = float(capacity.spectra_effective_rank(sv_closed[None]))
            strict_error = max(
                strict_error,
                abs(eff - closed_eff) / max(closed_eff, 1.0),
                float(np.max(np.abs(sv - sv_closed) / sv_closed)),
            )
        if prev is not None:
            max_monotone_violation = max(
                max_monotone_violation,
                eff - prev[0],
                compat - prev[1],
                float(usable - prev[2]),
            )
        if usable_zero_step is None and usable == 0:
            usable_zero_step = step_idx
        if collapse_step is None and eff == 0.0:
            collapse_step = step_idx
        prev = (eff, compat, usable)

    write_csv(out / "rank_decay.csv", header, rows)

    # closed-form crossing steps: spectrum ratio under the collapse floor,
    # uniform preserved-direction scale under tau
    ratio_decay = rates[-1] / rates[0]
    collapse_closed = int(math.ceil(math.log(RANK_TOL_REL) / math.log(ratio_decay)))
    usable_zero_closed = int(math.ceil(math.log(tau) / math.log(rates[0])))

    summary = {
        "n_steps": cfg.n_steps,
        "final_effective_rank": rows[-1][1],
        "final_usable_count": rows[-1][3],
        "usable_zero_step": usable_zero_step,
        "usable_zero_step_closed_form": usable_zero_closed,
        "collapse_step": collapse_step,
        "collapse_step_closed_form": collapse_closed,
        "max_monotonicity_violation": max_monotone_violation,
        "strict_closed_form_error": strict_error,
        "abs_profile_error": abs_profile_error,
    }
    write_json(out / "summary.json", summary)
    return summary


def check_rank_decay(summary: dict, cfg: ExperimentConfig) -> None:
    if summary["max_monotonicity_violation"] > 1e-10:
        raise CheckError(
            f"rank-decay: rank rose by {summary['max_monotonicity_violation']:.3e}"
        )
    if summary["strict_closed_form_error"] > 1e-9:
        raise CheckError(
            f"rank-decay: closed-form mismatch {summary['strict_closed_form_error']:.3e}"
        )
    if summary["abs_profile_error"] > 1e-10:
        raise CheckError(
            f"rank-decay: spectrum drifted {summary['abs_profile_error']:.3e} from closed form"
        )
    if summary["final_usable_count"] != 0:
        raise CheckError("rank-decay: usable direction count never hit zero")
    if summary["usable_zero_step"] != summary["usable_zero_step_closed_form"]:
        raise CheckError(
            f"rank-decay: usable count hit zero at step {summary['usable_zero_step']}, "
            f"closed form says {summary['usable_zero_step_closed_form']}"
        )
    collapse = summary["collapse_step"]
    if collapse is None or abs(collapse - summary["collapse_step_closed_form"]) > 2:
        raise CheckError(
            f"rank-decay: volume collapse at step {collapse}, "
            f"closed form says {summary['collapse_step_closed_form']}"
        )


# ---------------------------------------------------------------------------
# threshold-sweep: predicted vs observed incompatibility over a target grid


def _descend_survivors(theta_start, survivors, task_b, eta, eps_b, limit):
    """Stage 1: gradient descent on task B over theta_start + survivors @ y,
    from y = 0, up to the first iterate within eps_b or ``limit`` updates.
    Returns that iterate's (theta, loss).

    An update reads only y, so once one leaves y bitwise unchanged every
    later iterate, and the loss at the limit, is that same one; the loop
    stops there.  y is compared as bytes, so -0.0 and 0.0 differ.
    """
    h_b, target = task_b.hessian, task_b.minimizer
    y = np.zeros(survivors.shape[1])
    for n_updates in range(limit + 1):
        loss, h_d = _half_quadratic(h_b, theta_start + survivors @ y - target)
        if loss <= eps_b or n_updates == limit:
            break
        y_next = y - eta * (survivors.T @ h_d)
        if y_next.tobytes() == y.tobytes():
            break
        y = y_next
    return theta_start + survivors @ y, loss


def _escape(theta, task_b, rule, limit, omega_seed, realization, eps_b):
    """Stage 2: unconstrained descent on task B from theta, up to the first
    state within eps_b or ``limit`` steps.  Returns (steps, state, reached).

    ``propagate`` runs in segments of 1, 2, 4, ... steps, each resumed from
    the last state of the one before at its step offset, so the states are
    those of one ``limit``-step run.  The last segment is the one that holds
    the first state within eps_b: no segment after it is computed.
    """
    h_b, target = task_b.hessian, task_b.minimizer
    steps, state, length = 0, theta, 1
    reached = _half_quadratic(h_b, state - target)[0] <= eps_b
    while not reached and steps < limit:
        segment = propagate(
            state, task_b, rule, min(length, limit - steps), omega_seed,
            realization=realization, step_offset=steps,
        )
        for state in segment.states[1:]:
            steps += 1
            if _half_quadratic(h_b, state - target)[0] <= eps_b:
                reached = True
                break
        length *= 2
    return steps, state, reached


def _sweep_cell(cfg: ExperimentConfig, cell_index: int, m_target: int, u_target: int) -> list:
    sweep = cfg.sweep
    limits = cfg.thresholds
    d = cfg.dim
    k_a = cfg.k_a
    rule = cfg.rule  # plain gradient descent, as validate requires
    eta = rule.step_size
    tau = limits.tau_sigma

    spectrum = (1.0,) * m_target + (0.0,) * (k_a - m_target)
    pair = make_task_pair(
        d,
        k_a,
        spectrum,
        cfg.pair.rotation_seed + cell_index,
        offset_scale=sweep.offset_scale,
        tilt=sweep.tilt if m_target > 0 else 0.0,
    )
    q = pair.preserving_basis.basis

    # phase 1: anchor the last k_a - u preserved directions so exactly u survive;
    # collapse order runs opposite to demand order so the two targets decouple
    collapsed = q[:, u_target:]
    anchor_h = sweep.collapse_strength * collapsed @ collapsed.T
    anchor = QuadraticTask(
        dim=d,
        hessian=(anchor_h + anchor_h.T) / 2.0,
        minimizer=pair.task_a.minimizer.copy(),
        label="direction-anchor",
    )
    phase1_task = combine(pair.task_a, anchor)
    contraction = 1.0 - eta * sweep.collapse_strength
    k1 = max(int(math.ceil(math.log(tau) / math.log(contraction))), sweep.settle_steps)
    theta0 = rng.normal_draw(cfg.master_seed, rng.STREAM_INIT, cell_index, 0, d)
    traj = propagate(theta0, phase1_task, rule, k1, cfg.master_seed, realization=cell_index)
    report = capacity.predict_incompatibility(
        [traj], pair.preserving_basis, pair.task_b, tau
    )

    # phase 2, stage 1: descend task B inside the surviving preserved directions
    theta_start = traj.final
    survivors = np.ascontiguousarray(q[:, :u_target])
    eps_b = limits.epsilon_b
    theta_stage1, loss = _descend_survivors(
        theta_start, survivors, pair.task_b, eta, eps_b, sweep.phase2_step_limit
    )
    stage1_reached = bool(loss <= eps_b)
    forgetting_s1 = capacity.measure_forgetting(
        theta_start, theta_stage1, pair.task_a, limits.epsilon_a
    )
    observed = not (stage1_reached and forgetting_s1.forgetting <= limits.epsilon_low)

    # stage 2: unconstrained escape, recorded for the exit audit
    phase2_steps = 0
    exit_flag = False
    escape_reached = stage1_reached
    forgetting_after_escape = 0.0
    if not stage1_reached:
        phase2_steps, theta_escape, escape_reached = _escape(
            theta_stage1, pair.task_b, rule, sweep.phase2_step_limit,
            cfg.master_seed, cell_index + 10_000, eps_b,
        )
        forgetting_s2 = capacity.measure_forgetting(
            theta_start, theta_escape, pair.task_a, limits.epsilon_a
        )
        exit_flag = forgetting_s2.exited_manifold
        forgetting_after_escape = forgetting_s2.forgetting

    predicted = report.predicted_incompatible
    return [
        m_target,
        u_target,
        report.usable_direction_count,
        report.effective_rank,
        report.m_b,
        forgetting_s1.forgetting,
        loss,
        stage1_reached,
        predicted,
        report.predicted_incompatible_raw,
        observed,
        predicted == observed,
        phase2_steps,
        exit_flag,
        escape_reached,
        forgetting_after_escape,
    ]


SWEEP_HEADER = [
    "m_b_target",
    "usable_target",
    "measured_usable",
    "r_a",
    "m_b",
    "forgetting",
    "task_b_loss",
    "stage1_reached",
    "predicted_incompatible",
    "predicted_raw",
    "observed_incompatible",
    "agree",
    "phase2_steps",
    "exit_flag",
    "escape_reached",
    "forgetting_after_escape",
]


def run_threshold_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    s = cfg.sweep
    rows = [
        _sweep_cell(cfg, i * len(s.usable_targets) + j, m_target, u_target)
        for i, m_target in enumerate(s.m_b_targets)
        for j, u_target in enumerate(s.usable_targets)
    ]

    write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    n_cells = len(rows)
    n_agree = sum(1 for r in rows if r[11])
    pred = [bool(r[8]) for r in rows]
    obs = [bool(r[10]) for r in rows]
    zero_usable_ok = all(
        r[8] and r[10] for r in rows if r[1] == 0 and r[0] >= 1
    )
    forced = [r[15] for r in rows if r[1] == 0 and r[0] >= 1 and r[14]]
    summary = {
        "n_cells": n_cells,
        "n_agree": n_agree,
        "agreement_rate": n_agree / n_cells,
        "zero_usable_all_incompatible": zero_usable_ok,
        "forced_exit_forgetting_min": min(forced) if forced else None,
        "confusion": {
            "true_positive": sum(1 for p, o in zip(pred, obs) if p and o),
            "false_positive": sum(1 for p, o in zip(pred, obs) if p and not o),
            "false_negative": sum(1 for p, o in zip(pred, obs) if not p and o),
            "true_negative": sum(1 for p, o in zip(pred, obs) if not p and not o),
        },
    }
    write_json(out / "summary.json", summary)
    return summary


def check_threshold_sweep(summary: dict, cfg: ExperimentConfig) -> None:
    if summary["agreement_rate"] < 0.95:
        raise CheckError(
            f"threshold-sweep: agreement {summary['agreement_rate']:.1%} below 95%"
        )
    if not summary["zero_usable_all_incompatible"]:
        raise CheckError(
            "threshold-sweep: a zero-usable cell with live demand was not "
            "flagged incompatible"
        )
    forced_min = summary["forced_exit_forgetting_min"]
    if forced_min is not None and forced_min < cfg.thresholds.epsilon_high:
        raise CheckError(
            f"threshold-sweep: forced-exit forgetting {forced_min:.3e} below "
            f"epsilon_high {cfg.thresholds.epsilon_high:g}"
        )


# ---------------------------------------------------------------------------
# composition-check: group structure, submultiplicativity, monotone descent


def _controlled_task(dim: int, seed: int, trial: int) -> QuadraticTask:
    gen = rng.stream(seed, rng.STREAM_TASK, trial)
    spectrum = gen.uniform(0.2, 1.8, size=dim)
    rot = random_rotations(dim, [seed + 7919 * trial + 1])[0]
    h = rot @ np.diag(spectrum) @ rot.T
    theta_star = gen.standard_normal(dim)
    return QuadraticTask(dim=dim, hessian=(h + h.T) / 2.0, minimizer=theta_star)


_COMPOSITION_RULES = (
    StepRule(kind="gradient_descent", step_size=0.5),
    StepRule(kind="gradient_descent", step_size=0.5, weight_decay=0.05),
    StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=0.7),
    StepRule(kind="langevin", step_size=0.5, noise_scale=0.3),
)


def run_composition_check(cfg: ExperimentConfig, out: Path) -> dict:
    d = cfg.dim
    seed = cfg.master_seed

    comp_rows = []
    max_comp_error = 0.0
    for trial in range(cfg.n_trials):
        task = _controlled_task(d, seed, trial)
        rule = _COMPOSITION_RULES[trial % len(_COMPOSITION_RULES)]
        gen = rng.stream(seed, rng.STREAM_TASK, trial, 1)
        lens = [int(x) for x in gen.integers(1, 6, size=3)]
        theta0 = gen.standard_normal(d)

        full = propagate(theta0, task, rule, sum(lens), seed, realization=trial)
        t1 = propagate(theta0, task, rule, lens[0], seed, realization=trial)
        t2 = propagate(
            t1.final, task, rule, lens[1], seed,
            realization=trial, step_offset=lens[0],
        )
        t3 = propagate(
            t2.final, task, rule, lens[2], seed,
            realization=trial, step_offset=lens[0] + lens[1],
        )
        left = transport.compose(transport.compose(t1, t2), t3)
        right = transport.compose(t1, transport.compose(t2, t3))
        err = max(
            float(np.max(np.abs(left.cumulative_jacobian - full.cumulative_jacobian))),
            float(np.max(np.abs(right.cumulative_jacobian - full.cumulative_jacobian))),
            float(np.max(np.abs(left.states - full.states))),
        )
        max_comp_error = max(max_comp_error, err)
        comp_rows.append([trial, lens[0], lens[1], lens[2], rule.kind.value, err])
    write_csv(
        out / "composition.csv",
        ["trial", "len_a", "len_b", "len_c", "rule_kind", "max_abs_error"],
        comp_rows,
    )

    sub_rows = []
    n_violations = 0
    for trial in range(cfg.n_trials):
        gen = rng.stream(seed, rng.STREAM_TASK, trial, 2)
        d_t = int(gen.integers(2, 33))
        # spectra separated from zero so numerical rank counting is unambiguous
        spectra = []
        for _ in range(2):
            s = gen.uniform(0.5, 2.0, size=d_t)
            s[gen.random(d_t) < 0.3] = 0.0
            spectra.append(s)
        s_a, s_b = spectra
        first = seed + 104729 * trial + 11
        u_a, v_a, u_b, v_b = random_rotations(d_t, range(first, first + 4))
        prod = (u_a @ np.diag(s_a) @ v_a.T) @ (u_b @ np.diag(s_b) @ v_b.T)
        sv_p = singular_values(prod)
        sv_a = np.sort(s_a)[::-1]
        sv_b = np.sort(s_b)[::-1]
        top = sv_a[0] * sv_b[0]
        slack = float(np.max(sv_p - np.minimum(sv_a * sv_b[0], sv_a[0] * sv_b)))
        rank_a = int(np.sum(s_a > 0.0))
        rank_b = int(np.sum(s_b > 0.0))
        rank_p = spectrum_rank(sv_p)
        rank_ok = rank_p <= min(rank_a, rank_b)
        sigma_ok = slack <= 1e-10 * max(top, 1.0)
        if not (rank_ok and sigma_ok):
            n_violations += 1
        sub_rows.append([trial, d_t, slack, rank_a, rank_b, rank_p, rank_ok and sigma_ok])
    write_csv(
        out / "submultiplicativity.csv",
        ["trial", "dim", "sigma_slack", "rank_a", "rank_b", "rank_prod", "ok"],
        sub_rows,
    )

    mono_rows = []
    max_increase = 0.0
    n_mono = max(cfg.n_trials // 5, 1)
    for trial in range(n_mono):
        task = _controlled_task(d, seed + 1, trial)
        wd = 0.1 if trial % 2 else 0.0
        rule = StepRule(kind="gradient_descent", step_size=0.4, weight_decay=wd)
        a_mat = step_jacobian(task, rule)
        shift = rule.step_size * task.hessian @ task.minimizer
        powers = np.empty((41, d, d))
        powers[0] = np.eye(d)
        thetas = [rng.stream(seed, rng.STREAM_TASK, trial, 3).standard_normal(d)]
        for k in range(40):
            powers[k + 1] = a_mat @ powers[k]
            thetas.append(a_mat @ thetas[k] + shift)
        # each power is its own one-realization ensemble
        ranks = capacity.effective_rank(powers[:, None]).tolist()
        vals = [
            _half_quadratic(task.hessian, theta - task.minimizer)[0]
            + 0.5 * wd * float(theta @ theta)
            for theta in thetas
        ]
        worst = 0.0
        for k in range(40):
            worst = max(worst, ranks[k + 1] - ranks[k], vals[k + 1] - vals[k])
        max_increase = max(max_increase, worst)
        mono_rows.append([trial, 40, wd, worst])
    write_csv(
        out / "monotonicity.csv",
        ["trial", "n_steps", "weight_decay", "max_increase"],
        mono_rows,
    )

    summary = {
        "n_trials": cfg.n_trials,
        "max_composition_error": max_comp_error,
        "submultiplicativity_violations": n_violations,
        "n_monotonicity_trials": n_mono,
        "max_monotonicity_increase": max_increase,
    }
    write_json(out / "summary.json", summary)
    return summary


def check_composition_check(summary: dict, cfg: ExperimentConfig) -> None:
    if summary["max_composition_error"] > 1e-10:
        raise CheckError(
            f"composition-check: split/compose mismatch {summary['max_composition_error']:.3e}"
        )
    if summary["submultiplicativity_violations"] != 0:
        raise CheckError(
            f"composition-check: {summary['submultiplicativity_violations']} "
            "submultiplicativity violations"
        )
    if summary["max_monotonicity_increase"] > 1e-10:
        raise CheckError(
            f"composition-check: descent quantity rose by "
            f"{summary['max_monotonicity_increase']:.3e}"
        )


# ---------------------------------------------------------------------------
# proxy-probe: gradient-spread proxy tracked against the usable count


def run_proxy_probe(cfg: ExperimentConfig, out: Path) -> dict:
    pair = make_task_pair(
        cfg.dim,
        cfg.k_a,
        cfg.pair.spectrum_b_on_a,
        cfg.pair.rotation_seed,
        a_spectrum=cfg.pair.a_spectrum,
    )
    task_a = pair.task_a
    rule = cfg.rule
    a_mat = step_jacobian(task_a, rule)
    basis = pair.preserving_basis
    tau = cfg.thresholds.tau_sigma

    # one fixed ensemble pushed through the deterministic step map; probes are
    # plain first-task gradients of the ensemble, with optional sensor noise
    p_cfg = cfg.probe
    gen = rng.stream(cfg.master_seed, rng.STREAM_PROBE, 0)
    samples = gen.standard_normal((p_cfg.n_probe_samples, cfg.dim)) + task_a.minimizer
    normal_rates = 1.0 - rule.step_size * (
        np.asarray(pair.a_spectrum) + rule.weight_decay
    )

    checkpoints = range(0, cfg.n_steps + 1, p_cfg.checkpoint_every)
    pr_series = []
    products = []
    m = np.eye(cfg.dim)
    for step_idx in range(cfg.n_steps + 1):
        if step_idx % p_cfg.checkpoint_every == 0:
            probes = (samples - task_a.minimizer) @ task_a.hessian
            if p_cfg.probe_noise > 0.0:
                noise_gen = rng.stream(cfg.master_seed, rng.STREAM_PROBE, 1, step_idx)
                probes = probes + p_cfg.probe_noise * noise_gen.standard_normal(probes.shape)
            pr_series.append(capacity.participation_ratio(probes))
            products.append(m)
        if step_idx < cfg.n_steps:
            samples = samples @ a_mat
            m = a_mat @ m
    # each checkpoint's product is its own one-realization ensemble
    _, usable = capacity.compatible_effective_rank(np.stack(products)[:, None], basis, tau)
    usable_series = usable.tolist()
    rows = [
        [step_idx, pr, u, int(np.sum(np.abs(normal_rates) ** step_idx > tau))]
        for step_idx, pr, u in zip(checkpoints, pr_series, usable_series)
    ]
    usable_zero_step = next((row[0] for row in rows if row[2] == 0), None)

    write_csv(out / "proxy.csv", ["step", "pr", "usable", "surviving_normals"], rows)

    if len(set(usable_series)) > 1:
        # imported here: scipy.stats is most of `import reconcap`'s time
        from scipy import stats

        spearman = float(stats.spearmanr(pr_series, usable_series).statistic)
    else:
        spearman = float("nan")

    # calibration: an isotropic task should spread the probe over all of
    # parameter space, so the ratio to dim checks the estimator's scale
    iso_gen = rng.stream(cfg.master_seed, rng.STREAM_PROBE, 2)
    iso_samples = iso_gen.standard_normal((p_cfg.n_probe_samples, cfg.dim))
    pr_isotropic = capacity.participation_ratio(iso_samples)

    summary = {
        "n_checkpoints": len(rows),
        "spearman_pr_vs_usable": spearman,
        "pr_first": pr_series[0],
        "pr_last": pr_series[-1],
        "usable_first": usable_series[0],
        "usable_last": usable_series[-1],
        "usable_zero_step": usable_zero_step,
        "pr_isotropic": pr_isotropic,
        "pr_isotropic_over_dim": pr_isotropic / cfg.dim,
    }
    write_json(out / "summary.json", summary)
    return summary


def check_proxy_probe(summary: dict, cfg: ExperimentConfig) -> None:
    sp = summary["spearman_pr_vs_usable"]
    if not sp >= 0.8:
        raise CheckError(f"proxy-probe: rank correlation {sp} below 0.8")
    if summary["pr_first"] <= summary["pr_last"]:
        raise CheckError("proxy-probe: probe spread did not shrink over the run")
    if summary["usable_last"] != 0:
        raise CheckError("proxy-probe: usable count never collapsed")
    if summary["pr_isotropic_over_dim"] < 0.7:
        raise CheckError(
            f"proxy-probe: isotropic calibration ratio {summary['pr_isotropic_over_dim']:.3f}"
        )


# ---------------------------------------------------------------------------

SCENARIOS = {
    "esl-gap": (run_esl_gap, check_esl_gap),
    "rank-decay": (run_rank_decay, check_rank_decay),
    "threshold-sweep": (run_threshold_sweep, check_threshold_sweep),
    "composition-check": (run_composition_check, check_composition_check),
    "proxy-probe": (run_proxy_probe, check_proxy_probe),
}


def run_scenario(cfg: ExperimentConfig, out_dir=None, check: bool = False) -> dict:
    """Run one scenario end to end: data files, summary, manifest.

    Returns the summary dict.  With check=True the scenario's validator runs
    on the summary and the config and raises CheckError on violation (after
    all files are written, so failures stay inspectable).
    """
    runner, checker = SCENARIOS[cfg.scenario]
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir) / cfg.scenario
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.start(cfg)
    save_config(cfg, out / "config.json")
    summary = runner(cfg, out)
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            manifest.record(path)
    manifest.finish(out / "manifest.json")
    if check:
        checker(summary, cfg)
    return summary
