"""Named desk-scale experiments over the core machinery.

Each scenario is one ``Scenario`` record in ``SCENARIOS``: its default
config, the validation of the fields it reads, its runner and its check.  A
runner takes a validated ExperimentConfig and returns its summary and its
tables, touching no file: a table maps each CSV header name, in order, to
one 1-D column.  ``run_scenario`` writes them, then runs the check on
request (the CLI's --check).  Data files are byte-stable across replays;
the manifest (timestamps) is the only file allowed to differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import capacity, rng, thermo
from .config import (
    ConfigError, ExperimentConfig, PairConfig, ProbeConfig, save_config, write_csv, write_json, write_manifest,
)
from .gaussian import COVARIANCE_FLOOR, GaussianState
from .spectral import RANK_TOL_ABS, RANK_TOL_REL, _eigen_rebuild, singular_values, spectrum_rank
from .tasks import QuadraticTask, TaskPair, _half_quadratic, make_task_pair, sign_fixed_q
from .transport import StepKind, StepRule, _affine_step, contraction_rates, propagate, step_eigen, step_powers


class CheckError(RuntimeError):
    """A scenario ran to completion but its output failed validation."""


@dataclass(frozen=True)
class Scenario:
    """A scenario's default config (``default.scenario`` is its name), its
    validation (ConfigError), its runner and its check (CheckError)."""

    default: ExperimentConfig
    validate: Callable[[ExperimentConfig], None]
    run: Callable[[ExperimentConfig], tuple[dict, dict]]
    check: Callable[[dict, ExperimentConfig], None]


# Floats a stacked draw or stack of step-matrix powers holds per array.  A
# block takes one QR or SVD instead of one per trial or power,
# and is dropped before the next block is built, so this bounds the run's
# peak memory whatever the dimension or the number of steps.
_BLOCK_FLOATS = 1 << 14


def _blocks(items, floats_per_item: int):
    """Consecutive slices of ``items``, each small enough that a stack of
    ``floats_per_item`` floats per item stays within the block budget."""
    size = max(_BLOCK_FLOATS // floats_per_item, 1)
    return (items[i : i + size] for i in range(0, len(items), size))


def _concatenate(tables: list) -> dict:
    """One table of the rows of ``tables``, in order: each column joined."""
    return {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}


# The most steps a config may ask one run to take: rank-decay's and
# proxy-probe's n_steps, esl-gap's n_steps and thermo.n_geodesic_steps, and
# in each threshold-sweep cell phase 1's k1 and each phase-2 stage's
# ``sweep.phase2_step_limit``.  It bounds a run's work and its step-indexed
# arrays, which validation checks before anything is allocated.
STEP_BUDGET = 100_000


def _require_step_count(field: str, steps: int, least: int = 1) -> None:
    if steps < least:
        raise ConfigError(f"{field}: must be >= {least}")
    if steps > STEP_BUDGET:
        raise ConfigError(f"{field}: {steps} is above the step budget of {STEP_BUDGET}")


def _require_stable(cfg: ExperimentConfig, lam_max: float) -> None:
    try:
        cfg.rule.require_stable(lam_max)
    except ValueError as exc:
        raise ConfigError(f"rule.{exc}") from exc


def _require_positive_thresholds(cfg: ExperimentConfig, *names: str) -> None:
    for name in names:
        if not getattr(cfg.thresholds, name) > 0:
            raise ConfigError(f"thresholds.{name}: must be > 0")


# A run sums squares over samples, dimensions and steps; keeping the largest
# square it forms from a config's magnitudes this far below float64's
# largest value, about 1.8e308, leaves room for those sums.
SQUARE_LIMIT = 1e300


def _require_square_below_limit(cfg: ExperimentConfig, field: str, value: float, square: float) -> None:
    """Reject ``field``'s ``value`` when ``square``, the largest squared
    magnitude the run forms from it (inf once that overflows), is not below
    SQUARE_LIMIT."""
    if not square < SQUARE_LIMIT:
        raise ConfigError(
            f"{cfg.scenario}: {field} = {value!r} is too large: the run forms {square:.3e} from it, "
            f"not below {SQUARE_LIMIT:.0e}"
        )


def _task_pair(cfg: ExperimentConfig, spectrum_b_on_a, **kwargs) -> TaskPair:
    """The task pair a run builds, so that building it cannot fail later.  A
    float fault (under raising errstate) names the config fields of the
    keyword magnitudes it built with."""
    try:
        return make_task_pair(cfg.dim, cfg.k_a, spectrum_b_on_a, cfg.pair.rotation_seed, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{cfg.scenario}: {exc}") from exc
    except FloatingPointError as exc:
        built = ", ".join(
            f"{section}.{key}={value!r}" for key, value in kwargs.items()
            for section in ("pair", "sweep") if hasattr(getattr(cfg, section), key)
        )
        raise ConfigError(f"{cfg.scenario}: building its task pair with {built}: {exc}") from exc


def decaying_pair(cfg: ExperimentConfig) -> TaskPair:
    """rank-decay and proxy-probe's pair, built alike by validation and the run."""
    _require_step_count("n_steps", cfg.n_steps)
    if cfg.rule.kind is not StepKind.GRADIENT_DESCENT or cfg.rule.weight_decay <= 0:
        raise ConfigError(f"{cfg.scenario}: needs gradient_descent with weight_decay > 0")
    if not 0.0 < cfg.thresholds.tau_sigma < 1.0:
        raise ConfigError("thresholds.tau_sigma: must be in (0, 1), as the singular values of A^0 Q are 1")
    pair = _task_pair(cfg, cfg.pair.spectrum_b_on_a, a_spectrum=cfg.pair.a_spectrum)
    _require_stable(cfg, max(pair.a_spectrum))
    return pair


# ---------------------------------------------------------------------------
# esl-gap: relaxation dissipation vs the transport floor


def _validate_esl_gap(cfg: ExperimentConfig) -> None:
    t = cfg.thermo
    _require_step_count("n_steps", cfg.n_steps)
    if cfg.rule.kind is not StepKind.LANGEVIN:
        raise ConfigError("esl-gap: rule.kind must be langevin")
    if cfg.rule.noise_scale <= 0:
        raise ConfigError("esl-gap: rule.noise_scale is the temperature and must be > 0")
    if len(t.start_mean) != len(t.hessian_spectrum):
        raise ConfigError("esl-gap: start_mean and hessian_spectrum lengths differ")
    if not t.hessian_spectrum or min(t.hessian_spectrum) <= 0:
        raise ConfigError("esl-gap: hessian_spectrum must be nonempty and positive definite")
    if 1.0 - cfg.rule.step_size * min(t.hessian_spectrum) == 1.0:
        raise ConfigError(
            f"rule.step_size: {cfg.rule.step_size!r} moves no state, as 1 - step_size * "
            "min(thermo.hessian_spectrum) rounds to 1"
        )
    if not t.start_cov_scale >= COVARIANCE_FLOOR:
        raise ConfigError(f"esl-gap: start_cov_scale must be >= {COVARIANCE_FLOOR:.1e}")
    # the transport floor's cross term S0^(1/2) S1 S0^(1/2), summed over dim,
    # and the entropy production's T^2 tr(S0^-1)
    scale, temperature = float(t.start_cov_scale), float(cfg.rule.noise_scale)
    _require_square_below_limit(cfg, "thermo.start_cov_scale", scale, len(t.start_mean) * scale * scale)
    square = temperature * temperature * len(t.start_mean) / scale
    _require_square_below_limit(cfg, "rule.noise_scale", temperature, square)
    # the mean's squares: mean_value's m^T H m, and the entropy production's
    # drift |H m|^2, which it then scales by step_size / temperature
    quad = sum(h * m * m for h, m in zip(t.hessian_spectrum, t.start_mean))
    drift = sum(h * m * h * m for h, m in zip(t.hessian_spectrum, t.start_mean))
    square = max(quad, drift, drift * cfg.rule.step_size / cfg.rule.noise_scale)
    _require_square_below_limit(cfg, "thermo.start_mean", list(t.start_mean), square)
    _require_step_count("thermo.n_geodesic_steps", t.n_geodesic_steps, least=2)
    horizon = cfg.n_steps * cfg.rule.step_size
    if horizon > 1.0 + 1e-12:
        raise ConfigError(
            f"esl-gap: n_steps * step_size = {horizon:.4f} exceeds the unit-time "
            "horizon the transport floor is stated for"
        )
    _require_stable(cfg, max(t.hessian_spectrum))
    _require_resolved_floor(cfg)


def _require_resolved_floor(cfg: ExperimentConfig) -> None:
    """Reject a step that moves the state too little for the run to resolve
    its transport floor W2^2 / 2.  The run takes W2^2 as |dm|^2 + tr S0 +
    tr S_n - 2 tr (S_n^1/2 S0 S_n^1/2)^1/2, whose rounding is about dim ulps
    of the traces; W2^2 has to exceed that 20 times, as the check holds the
    geodesic action to the floor within 5%.  The end state is the moment
    recursion's in closed form, per curvature h with a = 1 - eta (h + wd):
    mean a^n m0 and variance c - (1 - a^2n) (c - 2 T eta / (1 - a^2)),
    without the covariance clamp, with 1 - a^2 = m (2 - m) for m = eta (h +
    wd) and 1 - a^k taken without cancellation."""
    t, rule, n = cfg.thermo, cfg.rule, cfg.n_steps
    # > 0 for every curvature, as 1 - eta * min(hessian_spectrum) is not 1
    m = rule.step_size * (np.array(t.hessian_spectrum) + rule.weight_decay)

    def gap(k):  # 1 - a^k
        return np.where(m < 0.5, -np.expm1(k * np.log1p(-np.minimum(m, 0.5))), 1.0 - (1.0 - m) ** k)

    c = float(t.start_cov_scale)
    drop = gap(2 * n) * (c - 2.0 * rule.noise_scale * rule.step_size / (m * (2.0 - m)))
    w2_sq = np.sum((gap(n) * np.array(t.start_mean)) ** 2) + np.sum((drop / (math.sqrt(c) + np.sqrt(c - drop))) ** 2)
    rounding = len(m) * np.finfo(np.float64).eps * np.sum(2.0 * c - drop)
    if not w2_sq > 20.0 * rounding:
        raise ConfigError(
            f"rule.step_size: {rule.step_size!r} moves the state too little for the run to resolve its "
            f"transport floor: W2^2 = {w2_sq:.3e} is not 20 times the rounding {rounding:.3e} of its traces"
        )


def run_esl_gap(cfg: ExperimentConfig) -> tuple[dict, dict]:
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
    return summary, {
        "dynamics.csv": thermo.series_table(states, ledger, g0),
        "geodesic.csv": thermo.series_table(geo, geo_ledger, g0),
    }


def check_esl_gap(summary: dict, cfg: ExperimentConfig) -> None:
    if not summary["slack"] >= -1e-6:
        raise CheckError(f"esl-gap: slack {summary['slack']:.3e} below -1e-6")
    if not summary["geodesic_rel_error"] <= 0.05:
        raise CheckError(f"esl-gap: geodesic action off the floor by {summary['geodesic_rel_error']:.3%}")
    # refinement can only lower the discrete action, modulo float fuzz
    if not summary["geodesic_action"] <= summary["geodesic_action_coarse"] + 1e-7:
        raise CheckError("esl-gap: refining the geodesic raised its action")
    # criterion 6 asks slack > geodesic_action - floor, strictly; with
    # slack = total_production - floor that is total > geodesic_action
    if not summary["total_production"] > summary["geodesic_action"]:
        raise CheckError("esl-gap: dynamics dissipated no more than ideal transport")


# ---------------------------------------------------------------------------
# rank-decay: closed-form contraction audit under weight decay


def _validate_rank_decay(cfg: ExperimentConfig) -> None:
    pair = decaying_pair(cfg)
    # the preserved rate, signed, and the normals' magnitudes: the summary
    # takes logs of the top rate and of the bottom-to-top ratio, so the
    # rates must stay inside (0, 1) and apart, by a margin above roundoff
    rates = contraction_rates(pair, cfg.rule)
    rates[cfg.k_a :] = np.abs(rates[cfg.k_a :])
    lo, hi, margin = float(rates.min()), float(rates.max()), 1e-9
    if not (margin < lo and hi < 1.0 - margin and hi - lo > margin):
        raise ConfigError(f"rank-decay: contraction rates {lo!r}..{hi!r} not apart in (0, 1)")


def run_rank_decay(cfg: ExperimentConfig) -> tuple[dict, dict]:
    pair = decaying_pair(cfg)
    log_rates, eigvecs = step_eigen(pair.task_a.hessian, cfg.rule.step_size, cfg.rule.weight_decay)
    rates = np.sort(np.abs(contraction_rates(pair, cfg.rule)))[::-1]
    tau = cfg.thresholds.tau_sigma

    # every power's spectra from the one eigen-solve: log sigma(A^k) is
    # k log|lambda|, and those of J Q take one SVD per block of powers, whose
    # scaled (d, k_a) matrices and the SVD's copies take at most d * d floats
    steps = np.arange(cfg.n_steps + 1)
    log_svs = np.multiply.outer(steps, np.sort(log_rates)[::-1])
    log_compats = np.concatenate([
        capacity.power_log_spectra(log_rates, eigvecs, pair.preserving_basis, block)
        for block in _blocks(steps, eigvecs.size)
    ])
    svs, effs = np.exp(log_svs), capacity.spectra_effective_rank(log_svs)
    compats, usables = capacity.spectra_effective_rank(log_compats), capacity.usable_count(log_compats, tau)
    table = {
        "step": steps, "effective_rank": effs, "compatible_rank": compats,
        "usable_count": usables, "rank_j": spectrum_rank(svs), **{f"sv_{i}": svs[:, i] for i in range(cfg.dim)},
    }
    # every step's errors against the closed form, compared in logs so that
    # nothing divides by an underflowed value, and maximized once, where a
    # NaN is kept; the profile error is max_i |sigma_i - closed_i| / closed_0
    log_closed = np.multiply.outer(steps, np.log(rates))
    closed_effs = capacity.spectra_effective_rank(log_closed)
    gap = log_svs - log_closed
    profile_errors = np.max(np.exp(log_closed - log_closed[:, :1]) * np.abs(np.expm1(gap)), axis=1)
    strict_errors = np.concatenate([
        np.abs(effs - closed_effs) / np.maximum(closed_effs, 1.0), np.max(np.abs(gap), axis=1),
    ])
    usable_zero_step = next((k for k, u in enumerate(usables.tolist()) if u == 0), None)
    collapse_step = next((k for k, e in enumerate(effs.tolist()) if e == 0.0), None)
    rises = np.concatenate([[0.0], np.diff(effs), np.diff(compats), np.diff(usables)])

    # closed-form crossing steps: spectrum ratio under the collapse floor,
    # uniform preserved-direction scale under tau
    ratio_decay = rates[-1] / rates[0]
    collapse_closed = int(math.ceil(math.log(RANK_TOL_REL) / math.log(ratio_decay)))
    usable_zero_closed = int(math.ceil(math.log(tau) / math.log(rates[0])))

    summary = {
        "n_steps": cfg.n_steps,
        "final_effective_rank": effs[-1].item(),
        "final_usable_count": usables[-1].item(),
        "usable_zero_step": usable_zero_step,
        "usable_zero_step_closed_form": usable_zero_closed,
        "collapse_step": collapse_step,
        "collapse_step_closed_form": collapse_closed,
        "max_monotonicity_violation": float(np.max(rises)),
        "strict_closed_form_error": float(np.max(strict_errors, initial=0.0)),
        "abs_profile_error": float(np.max(profile_errors, initial=0.0)),
    }
    return summary, {"rank_decay.csv": table}


def check_rank_decay(summary: dict, cfg: ExperimentConfig) -> None:
    if not summary["max_monotonicity_violation"] <= 1e-10:
        raise CheckError(f"rank-decay: rank rose by {summary['max_monotonicity_violation']:.3e}")
    if not summary["strict_closed_form_error"] <= 1e-9:
        raise CheckError(f"rank-decay: closed-form mismatch {summary['strict_closed_form_error']:.3e}")
    if not summary["abs_profile_error"] <= 1e-10:
        raise CheckError(f"rank-decay: spectrum drifted {summary['abs_profile_error']:.3e} from closed form")
    if summary["final_usable_count"] != 0:
        raise CheckError("rank-decay: usable direction count never hit zero")
    if summary["usable_zero_step"] != summary["usable_zero_step_closed_form"]:
        raise CheckError(
            f"rank-decay: usable count hit zero at step {summary['usable_zero_step']}, "
            f"closed form says {summary['usable_zero_step_closed_form']}"
        )
    collapse = summary["collapse_step"]
    if collapse is None or not abs(collapse - summary["collapse_step_closed_form"]) <= 2:
        raise CheckError(
            f"rank-decay: volume collapse at step {collapse}, "
            f"closed form says {summary['collapse_step_closed_form']}"
        )


# ---------------------------------------------------------------------------
# threshold-sweep: predicted vs observed incompatibility over a target grid


def sweep_phase1_steps(cfg: ExperimentConfig) -> int:
    """threshold-sweep's phase-1 step count k1, the same in every cell: the
    steps the anchored rate 1 - eta * collapse_strength takes to fall to
    ``tau_sigma``, and at least ``sweep.settle_steps``."""
    contraction = 1.0 - cfg.rule.step_size * cfg.sweep.collapse_strength
    k1 = int(math.ceil(math.log(cfg.thresholds.tau_sigma) / math.log(contraction)))
    return max(k1, cfg.sweep.settle_steps)


def _validate_threshold_sweep(cfg: ExperimentConfig) -> None:
    s = cfg.sweep
    eta = cfg.rule.step_size
    if cfg.rule != StepRule(step_size=eta):
        raise ConfigError(
            "threshold-sweep: cells step with plain gradient_descent; "
            "rule may set only step_size"
        )
    if not s.m_b_targets or not s.usable_targets:
        raise ConfigError("threshold-sweep: sweep grids must be nonempty")
    if any(not 0 <= m <= cfg.k_a for m in s.m_b_targets):
        raise ConfigError("threshold-sweep: m_b_targets must lie in [0, k_a]")
    if any(not 0 <= u <= cfg.k_a for u in s.usable_targets):
        raise ConfigError("threshold-sweep: usable_targets must lie in [0, k_a]")
    # the rate phase 1's k1 takes the log of, as the run rounds it
    if not 0.0 < 1.0 - eta * s.collapse_strength < 1.0:
        raise ConfigError(
            "threshold-sweep: 1 - eta * collapse_strength must be in (0, 1) for "
            "monotone contraction"
        )
    _require_step_count("sweep.settle_steps", s.settle_steps)
    _require_step_count("sweep.phase2_step_limit", s.phase2_step_limit)
    # the run reads the first four, its check reads epsilon_high
    _require_positive_thresholds(cfg, "tau_sigma", "epsilon_a", "epsilon_b", "epsilon_low", "epsilon_high")
    k1 = sweep_phase1_steps(cfg)
    if k1 > STEP_BUDGET:
        raise ConfigError(
            f"threshold-sweep: phase 1 takes k1 = {k1} steps per cell, above the "
            f"step budget of {STEP_BUDGET}; raise sweep.collapse_strength"
        )
    # cells differ only in rotation and demand: the largest demand builds
    # the stiffest task B, and every cell's task A has the default spectrum
    m = max(s.m_b_targets)
    pair = _task_pair(cfg, (1.0,) * m + (0.0,) * (cfg.k_a - m), tilt=s.tilt, offset_scale=s.offset_scale)
    lam_max = max(*pair.a_spectrum, pair.task_b.lam_max)
    _require_stable(cfg, lam_max)
    # the losses of both tasks at offsets of m demanded directions times offset_scale
    offset = float(s.offset_scale)
    _require_square_below_limit(cfg, "sweep.offset_scale", offset, lam_max * m * offset * offset)


def _descend_survivors(theta_start, survivors, h_b, target, eta, eps_b, limit):
    """Stage 1 of each member i: gradient descent on task B ``(h_b[i],
    target[i])`` over theta_start[i] + survivors[i] @ y, from y = 0, up to
    the first iterate within eps_b or ``limit`` updates.  Returns those
    iterates' (theta, loss), stacked.

    ``survivors`` is one ``(n, d, k)`` stack whose columns past a member's
    surviving count are zero, so that member's y stays +0.0 there and its
    products, stacked or alone, are all k wide.  The members update in
    lockstep, one stacked S^T @ H d and one stacked S @ y per round, and a
    member leaves the stack when it exits; every product is the one a member
    alone makes, bit for bit.  An update reads only y, so once a member's
    iterate repeats an earlier one, bit for bit, its iterates cycle from
    there on and none of them reaches eps_b; the member then jumps to the
    iterate the limit would reach.  A fixed point is a cycle of period 1.
    y is keyed as bytes, so -0.0 and 0.0 differ; a member's keys, in update
    order, are its whole history, dropped when it exits.
    """
    n, _, k = survivors.shape
    theta, loss = np.empty_like(theta_start), np.empty(n)
    live, y = np.arange(n), np.zeros((n, k))
    s, th, tg, hb = survivors, theta_start, target, h_b
    seen, width = [{} for _ in range(n)], k * y.itemsize  # a member's key: its row of y.tobytes()
    for n_updates in range(limit + 1):
        if not len(live):
            break
        if n_updates:
            y -= eta * (s.swapaxes(-1, -2) @ h_d[:, :, None])[..., 0]
        gone = np.zeros(len(live), dtype=bool)
        keys = y.tobytes()
        for j, i in enumerate(live):
            mu = seen[i].setdefault(keys[j * width : (j + 1) * width], n_updates)
            if mu < n_updates:
                gone[j] = True
                y_i = np.frombuffer(list(seen[i])[mu + (limit - mu) % (n_updates - mu)])
                theta[i] = theta_start[i] + survivors[i] @ y_i
                loss[i] = _half_quadratic(h_b[i], theta[i] - target[i])[0]
        x = th + (s @ y[:, :, None])[..., 0]
        values, h_d = _half_quadratic(hb, x - tg)
        done = ((values <= eps_b) | (n_updates == limit)) & ~gone
        if (gone := gone | done).any():
            theta[live[done]], loss[live[done]] = x[done], values[done]
            for i in live[gone]:
                seen[i] = None
            live, y, s, th, tg, hb, h_d = (v[~gone] for v in (live, y, s, th, tg, hb, h_d))
    return theta, loss


def _escape(theta, h_b, target, rule, limit, eps_b):
    """Stage 2 of each member i: unconstrained descent on task B ``(h_b[i],
    target[i])`` from theta[i], up to the first state within eps_b or
    ``limit`` steps.  Returns (steps, state, reached), stacked.

    The members step in lockstep, and a member leaves the stack when it
    stops.  Each step is ``step_map``'s A @ theta + b, bit for bit the step
    ``propagate`` makes of a one-member stack.  The rule is plain gradient
    descent, so no noise is drawn, and the validated stability bound keeps
    the map from diverging.
    """
    n = len(theta)
    steps, state, reached = np.zeros(n, dtype=int), np.empty_like(theta), np.zeros(n, dtype=bool)
    a, b = _affine_step(h_b, target, rule.step_size, rule.weight_decay)
    live, s, hb, tg = np.arange(n), theta, h_b, target
    for n_steps in range(limit + 1):
        near = _half_quadratic(hb, s - tg)[0] <= eps_b
        done = near | (n_steps == limit)
        steps[live[done]], state[live[done]], reached[live[done]] = n_steps, s[done], near[done]
        live, s, a, b, hb, tg = (v[~done] for v in (live, s, a, b, hb, tg))
        if not len(live):
            break
        s = (a @ s[..., None])[..., 0] + b
    return steps, state, reached


def _sweep_table(cfg: ExperimentConfig, cells) -> dict:
    """The table of sweep cells ``(cell_index, m_target, u_target)``, one
    column per ``SWEEP_HEADER`` name and one row per cell: the cells' task
    pairs, phase 1, predictions and phase 2 each as one stack.  Forgetting is
    phi_A(end) - phi_A(start of phase 2)."""
    sweep = cfg.sweep
    limits = cfg.thresholds
    d = cfg.dim
    k_a = cfg.k_a
    rule = cfg.rule  # plain gradient descent, as validate requires
    eta = rule.step_size
    tau = limits.tau_sigma

    realizations = [cell[0] for cell in cells]
    spectra = [(1.0,) * m_target + (0.0,) * (k_a - m_target) for _, m_target, _ in cells]
    seeds = [cfg.pair.rotation_seed + cell_index for cell_index in realizations]
    pairs = make_task_pair(d, k_a, spectra, seeds, offset_scale=sweep.offset_scale, tilt=sweep.tilt)
    # phase 1: anchor the last k_a - u preserved directions so exactly u
    # survive; collapse order runs opposite to demand order so the two
    # targets decouple.  The anchor pulls toward task A's minimizer, which
    # the sum keeps.
    collapsed = [q[:, u:] for q, (*_, u) in zip(pairs.preserving_basis.basis, cells)]
    anchored = np.array([sweep.collapse_strength * c @ c.T for c in collapsed])
    anchored = pairs.task_a.hessian + (anchored + anchored.swapaxes(-1, -2)) / 2.0
    k1 = sweep_phase1_steps(cfg)
    n = len(cells)
    theta0 = rng.normal_rows_each(cfg.master_seed, rng.STREAM_INIT, realizations, [0] * n, [1] * n, d)[:, 0]
    a, b = _affine_step(anchored, pairs.task_a.minimizer, rule.step_size, rule.weight_decay)
    finals = propagate(
        theta0, a, b, [rule.noise_gain()] * n, [k1] * n, cfg.master_seed, realizations, [0] * n,
        "anchored-first-task", final_only=True,
    )
    # the cells' Jacobians A^k1, through one eigen-solve of the anchored stack
    log_rates, eigvecs = step_eigen(anchored, rule.step_size, rule.weight_decay)
    log_compatible = capacity.power_log_spectra(log_rates, eigvecs, pairs.preserving_basis, k1)
    report = capacity.predict_incompatibility(k1 * np.sort(log_rates)[:, ::-1], log_compatible, pairs, tau)

    # phase 2, stage 1: descend task B inside the surviving preserved directions
    h_a, theta_a = pairs.task_a.hessian, pairs.task_a.minimizer
    h_b, theta_b = pairs.task_b.hessian, pairs.task_b.minimizer
    # the preserved basis with each cell's collapsed columns (index >= u) zeroed
    usable = np.array([u for *_, u in cells])
    survivors = np.where(np.arange(k_a) < usable[:, None, None], pairs.preserving_basis.basis, 0.0)
    eps_b = limits.epsilon_b
    theta_stage1, loss = _descend_survivors(finals, survivors, h_b, theta_b, eta, eps_b, sweep.phase2_step_limit)
    loss_a_start = _half_quadratic(h_a, finals - theta_a)[0]
    forgetting = _half_quadratic(h_a, theta_stage1 - theta_a)[0] - loss_a_start
    stage1_reached = loss <= eps_b
    observed = ~(stage1_reached & (forgetting <= limits.epsilon_low))

    # stage 2: unconstrained escape where stage 1 falls short, recorded for the exit audit
    short = ~stage1_reached
    phase2_steps, escape_reached, after_escape = np.zeros(n, dtype=int), stage1_reached.copy(), np.zeros(n)
    phase2_steps[short], theta_escape, escape_reached[short] = _escape(
        theta_stage1[short], h_b[short], theta_b[short], rule, sweep.phase2_step_limit, eps_b
    )
    after_escape[short] = _half_quadratic(h_a[short], theta_escape - theta_a[short])[0] - loss_a_start[short]
    exit_flag = after_escape > limits.epsilon_a

    columns = (  # in SWEEP_HEADER order
        [cell[1] for cell in cells], [cell[2] for cell in cells], report.usable_direction_count,
        report.effective_rank, report.m_b, forgetting, loss, stage1_reached, report.predicted_incompatible,
        report.predicted_incompatible_raw, observed, np.equal(report.predicted_incompatible, observed),
        phase2_steps, exit_flag, escape_reached, after_escape,
    )
    return dict(zip(SWEEP_HEADER, map(np.asarray, columns), strict=True))


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


def run_threshold_sweep(cfg: ExperimentConfig) -> tuple[dict, dict]:
    s = cfg.sweep
    cells = [
        (i * len(s.usable_targets) + j, m_target, u_target)
        for i, m_target in enumerate(s.m_b_targets)
        for j, u_target in enumerate(s.usable_targets)
    ]
    table = _sweep_table(cfg, cells)
    n_cells = len(cells)
    n_agree = int(np.count_nonzero(table["agree"]))
    pred, obs = table["predicted_incompatible"], table["observed_incompatible"]
    # cells with no usable direction left but live demand on task B
    stranded = (table["usable_target"] == 0) & (table["m_b_target"] >= 1)
    forced = table["forgetting_after_escape"][stranded & table["escape_reached"]]
    summary = {
        "n_cells": n_cells,
        "n_agree": n_agree,
        "agreement_rate": n_agree / n_cells,
        "zero_usable_all_incompatible": bool(np.all(pred[stranded] & obs[stranded])),
        "forced_exit_forgetting_min": forced.min().item() if forced.size else None,
        "confusion": {
            "true_positive": int(np.count_nonzero(pred & obs)),
            "false_positive": int(np.count_nonzero(pred & ~obs)),
            "false_negative": int(np.count_nonzero(~pred & obs)),
            "true_negative": int(np.count_nonzero(~pred & ~obs)),
        },
    }
    return summary, {"sweep.csv": table}


def check_threshold_sweep(summary: dict, cfg: ExperimentConfig) -> None:
    if not summary["agreement_rate"] >= 0.95:
        raise CheckError(f"threshold-sweep: agreement {summary['agreement_rate']:.1%} below 95%")
    if not summary["zero_usable_all_incompatible"]:
        raise CheckError(
            "threshold-sweep: a zero-usable cell with live demand was not "
            "flagged incompatible"
        )
    forced_min = summary["forced_exit_forgetting_min"]
    if forced_min is not None and not forced_min >= cfg.thresholds.epsilon_high:
        raise CheckError(
            f"threshold-sweep: forced-exit forgetting {forced_min:.3e} below "
            f"epsilon_high {cfg.thresholds.epsilon_high:g}"
        )


# ---------------------------------------------------------------------------
# composition-check: group structure, submultiplicativity, monotone descent


def _validate_composition_check(cfg: ExperimentConfig) -> None:
    # the trials draw their own tasks and step with fixed rules
    if cfg.dim < 2:
        raise ConfigError("dim: must be >= 2")
    if cfg.n_trials < 1:
        raise ConfigError("n_trials: must be >= 1")


# Each composition-check draw site keys trial t on its own path (seed,
# STREAM_TASK, t, k), one k per site.  Paths equal up to trailing zeros are
# one stream, so k = 0 is also (seed, STREAM_TASK, t) and no other site of
# the run may take that path.
_KEY_TASK, _KEY_SPLIT, _KEY_FACTORS, _KEY_LEDGER_START = 0, 1, 2, 3
_KEY_LEDGER_TASK, _KEY_TASK_ROTATION, _KEY_LEDGER_ROTATION, _KEY_PRODUCT_ROTATION = 4, 5, 6, 7


def _trial_rotations(dim: int, seed: int, trials, key: int) -> np.ndarray:
    """One Haar rotation ``(dim, dim)`` per trial, drawn from the trial's
    path ``(seed, STREAM_TASK, trial, key)``: one ``draw_each`` call and one
    stacked QR."""
    paths = [(seed, rng.STREAM_TASK, trial, key) for trial in trials]
    return sign_fixed_q(np.array(rng.draw_each(paths, lambda gen: gen.standard_normal((dim, dim)))))


def _controlled_tasks(dim: int, seed: int, trials, keys) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's controlled task, as stacks ``(n, dim, dim)`` of Hessians
    and ``(n, dim)`` of minimizers: a spectrum in [0.2, 1.8], then a
    minimizer, drawn from the trial's path ``(seed, STREAM_TASK, trial,
    keys[0])``, under the rotation drawn from its path ending in ``keys[1]``.
    Each Hessian is exactly symmetric and PSD by construction, so it is not
    checked again."""
    task_key, rotation_key = keys
    draws = rng.draw_each(
        [(seed, rng.STREAM_TASK, trial, task_key) for trial in trials],
        lambda gen: (gen.uniform(0.2, 1.8, size=dim), gen.standard_normal(dim)),
    )
    spectra, minimizers = map(np.array, zip(*draws))
    return _eigen_rebuild(_trial_rotations(dim, seed, trials, rotation_key), spectra), minimizers


_COMPOSITION_RULES = (
    StepRule(kind="gradient_descent", step_size=0.5),
    StepRule(kind="gradient_descent", step_size=0.5, weight_decay=0.05),
    StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=0.7),
    StepRule(kind="langevin", step_size=0.5, noise_scale=0.3),
)


def _composition_table(d: int, seed: int, trials) -> dict:
    """composition.csv's columns, one row per trial: its run split in three,
    recomposed both ways and compared with the unsplit run.  The trials step
    together on one (A, b): a stacked propagation for the unsplit runs and
    one per segment, each drawing its own noise rows, and one
    ``step_powers`` pass for all four."""
    n = len(trials)
    h, minimizers = _controlled_tasks(d, seed, trials, (_KEY_TASK, _KEY_TASK_ROTATION))
    rules = [_COMPOSITION_RULES[trial % len(_COMPOSITION_RULES)] for trial in trials]
    a, b = _affine_step(h, minimizers, [rule.step_size for rule in rules], [rule.weight_decay for rule in rules])
    gains = [rule.noise_gain() for rule in rules]
    draws = rng.draw_each(
        [(seed, rng.STREAM_TASK, trial, _KEY_SPLIT) for trial in trials],
        lambda gen: (gen.integers(1, 6, size=3), gen.standard_normal(d)),
    )
    lens, theta0 = map(np.array, zip(*draws))

    def run(start, n_steps, offsets):
        return propagate(start, a, b, gains, n_steps, seed, trials, offsets, "task")

    ends = np.cumsum(lens, axis=1)
    starts = ends - lens
    full = run(theta0, ends[:, 2], starts[:, 0])
    members = np.arange(n)
    # a NaN survives np.max and np.maximum, where max() would drop it
    worst = np.zeros(n)
    start = theta0
    for first, n_steps in zip(starts.T, lens.T):
        seg = run(start, n_steps, first)
        # the segment's states against its window of the unsplit run; a
        # shorter segment repeats its last state to fill the stack
        r = np.minimum(np.arange(seg.shape[1]), n_steps[:, None])
        gap = np.abs(seg[members[:, None], r] - full[members[:, None], first[:, None] + r])
        worst = np.maximum(worst, np.max(gap, axis=(1, 2)))
        start = seg[members, n_steps]
    exponents = np.vstack([lens.T, ends[:, 2]])
    j1, j2, j3, full_jac = jacs = np.empty((4, n, d, d))
    for k, power in enumerate(step_powers(a, range(int(exponents.max()) + 1))):
        which, member = np.nonzero(exponents == k)
        jacs[which, member] = power[member]
    # the run's Jacobian as both associations of J3 J2 J1: J3 (J2 J1) and (J3 J2) J1
    for composed in (j3 @ (j2 @ j1), (j3 @ j2) @ j1):
        worst = np.maximum(worst, np.max(np.abs(composed - full_jac), axis=(1, 2)))
    return {
        "trial": np.asarray(trials), "len_a": lens[:, 0], "len_b": lens[:, 1], "len_c": lens[:, 2],
        "rule_kind": np.array([rule.kind.value for rule in rules]), "max_abs_error": worst,
    }


def _product_spectra(seed: int, trials, s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """Singular values of a product of two factors with spectra ``s_a`` and
    ``s_b`` (row i of each, for ``trials[i]``), (U_a S_a V_a^T) (U_b S_b
    V_b^T) for independent Haar rotations.  The outer rotations do not move
    the spectrum and V_a^T U_b is itself Haar, so each trial takes those of
    ``S_a R S_b`` for one Haar rotation R drawn from its own path: one
    stacked draw and QR, and one stacked SVD."""
    rot = _trial_rotations(s_a.shape[1], seed, trials, _KEY_PRODUCT_ROTATION)
    return singular_values(s_a[:, :, None] * rot * s_b[:, None, :])


def _submultiplicativity_table(seed: int, n_trials: int) -> dict:
    """submultiplicativity.csv's columns, one row per trial in trial order:
    its check that rank and singular values of a product of two random
    factors are bounded by those of the factors."""
    # every trial's dimension and factor spectra first, in trial order;
    # then the products, a chunk of equal-dimension trials at a time
    def draw(gen):
        d_t = int(gen.integers(2, 33))
        # spectra separated from zero so numerical rank counting is unambiguous
        spectra = []
        for _ in range(2):
            s = gen.uniform(0.5, 2.0, size=d_t)
            s[gen.random(d_t) < 0.3] = 0.0
            spectra.append(s)
        return d_t, spectra

    by_dim = {}
    paths = [(seed, rng.STREAM_TASK, trial, _KEY_FACTORS) for trial in range(n_trials)]
    for trial, (d_t, spectra) in enumerate(rng.draw_each(paths, draw)):
        by_dim.setdefault(d_t, []).append((trial, *spectra))

    tables = []
    for d_t, members in by_dim.items():
        for chunk in _blocks(members, 2 * d_t * d_t):
            trials, s_a, s_b = zip(*chunk)
            s_a, s_b = np.array(s_a), np.array(s_b)
            sv_p = _product_spectra(seed, trials, s_a, s_b)
            sv_a = np.sort(s_a)[:, ::-1]
            sv_b = np.sort(s_b)[:, ::-1]
            top = sv_a[:, 0] * sv_b[:, 0]
            slack = np.max(sv_p - np.minimum(sv_a * sv_b[:, :1], sv_a[:, :1] * sv_b), axis=-1)
            ranks_a = np.sum(s_a > 0.0, axis=-1)
            ranks_b = np.sum(s_b > 0.0, axis=-1)
            rank_p = spectrum_rank(sv_p)
            tables.append({
                "trial": np.array(trials), "dim": np.full(len(trials), d_t), "sigma_slack": slack,
                "rank_a": ranks_a, "rank_b": ranks_b, "rank_prod": rank_p,
                "ok": (rank_p <= np.minimum(ranks_a, ranks_b)) & (slack <= 1e-10 * np.maximum(top, 1.0)),
            })
    table = _concatenate(tables)
    order = np.argsort(table["trial"], kind="stable")
    return {name: column[order] for name, column in table.items()}


def _monotonicity_ledgers(d: int, seed: int, trials) -> tuple[list, np.ndarray, np.ndarray]:
    """Each trial's weight decay and, along its 40 plain gradient steps, the
    effective rank of the step-matrix power and the regularized loss, as
    ``(41, len(trials))`` arrays: the states of one stacked propagation, and
    the log spectra of the powers, k log|lambda|, from one eigen-solve of the
    step matrices."""
    eta, n_steps = 0.4, 40
    n = len(trials)
    h, minimizers = _controlled_tasks(d, seed, trials, (_KEY_LEDGER_TASK, _KEY_LEDGER_ROTATION))
    wds = [0.1 if trial % 2 else 0.0 for trial in trials]
    a, b = _affine_step(h, minimizers, eta, wds)
    paths = [(seed, rng.STREAM_TASK, trial, _KEY_LEDGER_START) for trial in trials]
    theta0 = np.array(rng.draw_each(paths, lambda gen: gen.standard_normal(d)))
    states = propagate(theta0, a, b, [0.0] * n, [n_steps] * n, seed, trials, [0] * n, "monotonicity-ledger")
    half_wd = 0.5 * np.array(wds)
    log_spectra = np.multiply.outer(np.arange(n_steps + 1), np.sort(step_eigen(h, eta, wds)[0])[:, ::-1])
    vals = []
    for theta in states.swapaxes(0, 1):
        loss = _half_quadratic(h, theta - minimizers)[0]
        vals.append(loss + half_wd * (theta[:, None, :] @ theta[:, :, None])[:, 0, 0])
    return wds, capacity.spectra_effective_rank(log_spectra), np.array(vals)


def run_composition_check(cfg: ExperimentConfig) -> tuple[dict, dict]:
    d = cfg.dim
    seed = cfg.master_seed
    # a block of trials at a time, its draws freed before the next is drawn
    comp = _concatenate([_composition_table(d, seed, trials) for trials in _blocks(range(cfg.n_trials), d * d)])
    sub = _submultiplicativity_table(seed, cfg.n_trials)
    n_mono = max(cfg.n_trials // 5, 1)
    ledgers = []
    for trials in _blocks(range(n_mono), d * d):
        wds, ranks, vals = _monotonicity_ledgers(d, seed, trials)
        rises = np.concatenate([np.zeros((1, len(trials))), np.diff(ranks, axis=0), np.diff(vals, axis=0)])
        ledgers.append({
            "trial": np.asarray(trials), "n_steps": np.full(len(trials), len(ranks) - 1),
            "weight_decay": np.array(wds), "max_increase": rises.max(axis=0),
        })
    mono = _concatenate(ledgers)

    summary = {
        "n_trials": cfg.n_trials,
        "max_composition_error": float(np.max(comp["max_abs_error"])),
        "submultiplicativity_violations": int(np.count_nonzero(~sub["ok"])),
        "n_monotonicity_trials": n_mono,
        "max_monotonicity_increase": float(np.max(mono["max_increase"])),
    }
    return summary, {"composition.csv": comp, "submultiplicativity.csv": sub, "monotonicity.csv": mono}


def check_composition_check(summary: dict, cfg: ExperimentConfig) -> None:
    if not summary["max_composition_error"] <= 1e-10:
        raise CheckError(f"composition-check: split/compose mismatch {summary['max_composition_error']:.3e}")
    if summary["submultiplicativity_violations"] != 0:
        raise CheckError(
            f"composition-check: {summary['submultiplicativity_violations']} "
            "submultiplicativity violations"
        )
    if not summary["max_monotonicity_increase"] <= 1e-10:
        raise CheckError(
            f"composition-check: descent quantity rose by "
            f"{summary['max_monotonicity_increase']:.3e}"
        )


# ---------------------------------------------------------------------------
# proxy-probe: gradient-spread proxy tracked against the usable count


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    values = np.asarray(x, dtype=float)[order]
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _spearman(a, b) -> float:
    """Spearman's rank correlation of two finite series, as
    ``scipy.stats.spearmanr`` computes it bit for bit: Pearson's r of the
    average ranks, from ``np.corrcoef`` over the two rank columns.  NaN when
    either series is constant."""
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _validate_proxy_probe(cfg: ExperimentConfig) -> None:
    decaying_pair(cfg)
    if cfg.probe.checkpoint_every < 1 or cfg.probe.checkpoint_every > cfg.n_steps:
        raise ConfigError("probe.checkpoint_every: must be in [1, n_steps]")
    if cfg.probe.n_probe_samples < 2:
        raise ConfigError("probe.n_probe_samples: must be >= 2")
    if cfg.probe.probe_noise < 0:
        raise ConfigError("probe.probe_noise: must be >= 0")
    # the participation ratio squares the probe covariance's trace, about
    # dim * probe_noise^2
    noise = float(cfg.probe.probe_noise)
    spread = cfg.dim * noise * noise
    _require_square_below_limit(cfg, "probe.probe_noise", noise, spread * spread)


def run_proxy_probe(cfg: ExperimentConfig) -> tuple[dict, dict]:
    pair = decaying_pair(cfg)
    task_a = pair.task_a
    rule = cfg.rule
    basis = pair.preserving_basis
    tau = cfg.thresholds.tau_sigma
    log_rates, eigvecs = step_eigen(task_a.hessian, rule.step_size, rule.weight_decay)
    # H's eigenvalues m - wd in V's basis, its roundoff on the preserved
    # directions, which would leak them, set to 0
    curvature = np.diagonal(eigvecs.T @ task_a.hessian @ eigvecs).copy()
    curvature[curvature <= RANK_TOL_REL * curvature.max()] = 0.0

    # one fixed ensemble pushed through the deterministic step map; probes are
    # plain first-task gradients of the ensemble (task A's minimizer is the
    # origin), with optional sensor noise.  In V's basis, which moves no
    # participation ratio, those at step k are the samples' coordinates times
    # |lambda|^k (m - wd): a sign of lambda^k reflects a coordinate, which
    # moves no ratio, and a reflected noise row is as likely as the row
    p_cfg = cfg.probe
    gen = rng.stream(cfg.master_seed, rng.STREAM_PROBE, 0)
    coords = gen.standard_normal((p_cfg.n_probe_samples, cfg.dim)) @ eigvecs
    normal_rates = np.abs(contraction_rates(pair, rule)[cfg.k_a :])
    live_rates = np.where(curvature > 0.0, np.exp(log_rates), 0.0)
    # without noise the ratio does not depend on scale: the largest |lambda| is 1
    scale = 1.0 if p_cfg.probe_noise > 0.0 else max(live_rates.max(), RANK_TOL_ABS)

    checkpoints = range(0, cfg.n_steps + 1, p_cfg.checkpoint_every)
    pr_series = []
    for step_idx in checkpoints:
        probes = coords * ((live_rates / scale) ** step_idx * curvature)
        if p_cfg.probe_noise > 0.0:
            noise_gen = rng.stream(cfg.master_seed, rng.STREAM_PROBE, 1, step_idx)
            probes = probes + p_cfg.probe_noise * noise_gen.standard_normal(probes.shape) @ eigvecs
        pr_series.append(capacity.participation_ratio(probes))
    usable_series = [
        u for block in _blocks(checkpoints, eigvecs.size)
        for u in capacity.usable_count(capacity.power_log_spectra(log_rates, eigvecs, basis, block), tau).tolist()
    ]
    table = {
        "step": np.asarray(checkpoints), "pr": np.array(pr_series), "usable": np.array(usable_series),
        "surviving_normals": np.array([np.count_nonzero(normal_rates**k > tau) for k in checkpoints]),
    }
    usable_zero_step = next((k for k, u in zip(checkpoints, usable_series) if u == 0), None)

    # calibration: an isotropic task should spread the probe over all of
    # parameter space, so the ratio to dim checks the estimator's scale
    iso_gen = rng.stream(cfg.master_seed, rng.STREAM_PROBE, 2)
    iso_samples = iso_gen.standard_normal((p_cfg.n_probe_samples, cfg.dim))
    pr_isotropic = capacity.participation_ratio(iso_samples)

    summary = {
        "n_checkpoints": len(checkpoints),
        "spearman_pr_vs_usable": _spearman(pr_series, usable_series),
        "pr_first": pr_series[0],
        "pr_last": pr_series[-1],
        "usable_first": usable_series[0],
        "usable_last": usable_series[-1],
        "usable_zero_step": usable_zero_step,
        "pr_isotropic": pr_isotropic,
        "pr_isotropic_over_dim": pr_isotropic / cfg.dim,
    }
    return summary, {"proxy.csv": table}


def check_proxy_probe(summary: dict, cfg: ExperimentConfig) -> None:
    sp = summary["spearman_pr_vs_usable"]
    if not sp >= 0.8:
        raise CheckError(f"proxy-probe: rank correlation {sp} below 0.8")
    if not summary["pr_first"] > summary["pr_last"]:
        raise CheckError("proxy-probe: probe spread did not shrink over the run")
    if summary["usable_last"] != 0:
        raise CheckError("proxy-probe: usable count never collapsed")
    if not summary["pr_isotropic_over_dim"] >= 0.7:
        raise CheckError(f"proxy-probe: isotropic calibration ratio {summary['pr_isotropic_over_dim']:.3f}")


# ---------------------------------------------------------------------------

SCENARIOS = {
    record.default.scenario: record
    for record in (
        Scenario(
            ExperimentConfig(
                scenario="esl-gap", dim=2, k_a=1, n_steps=20, pair=PairConfig(spectrum_b_on_a=(1.0,)),
                rule=StepRule(kind=StepKind.LANGEVIN, step_size=0.05, noise_scale=0.5),
            ),
            _validate_esl_gap, run_esl_gap, check_esl_gap,
        ),
        Scenario(
            ExperimentConfig(scenario="rank-decay", n_steps=1400, rule=StepRule(step_size=0.1, weight_decay=0.1)),
            _validate_rank_decay, run_rank_decay, check_rank_decay,
        ),
        Scenario(
            ExperimentConfig(scenario="threshold-sweep", pair=PairConfig(spectrum_b_on_a=(1.0,) * 8)),
            _validate_threshold_sweep, run_threshold_sweep, check_threshold_sweep,
        ),
        Scenario(
            ExperimentConfig(scenario="composition-check"),
            _validate_composition_check, run_composition_check, check_composition_check,
        ),
        Scenario(
            ExperimentConfig(
                scenario="proxy-probe", n_steps=270, rule=StepRule(step_size=0.1, weight_decay=0.5),
                probe=ProbeConfig(checkpoint_every=4),
            ),
            _validate_proxy_probe, run_proxy_probe, check_proxy_probe,
        ),
    )
}


def run_scenario(cfg: ExperimentConfig, out_dir=None, check: bool = False) -> dict:
    """Run one scenario, then write its outputs: config.json first, so a run
    that raises has written only that file, then the runner's tables as CSV,
    summary.json and manifest.json.

    Returns the summary dict.  With check=True the record's check runs on
    the summary and the config and raises CheckError on violation (after all
    files are written, so failures stay inspectable).
    """
    scenario = SCENARIOS[cfg.scenario]
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir) / cfg.scenario
    out.mkdir(parents=True, exist_ok=True)
    started_at = datetime.now(timezone.utc).isoformat()
    save_config(cfg, out / "config.json")
    summary, tables = scenario.run(cfg)
    for name, table in tables.items():
        write_csv(out / name, list(table), list(table.values()))
    write_json(out / "summary.json", summary)
    write_manifest(cfg, out, ["config.json", "summary.json", *tables], started_at)
    if check:
        scenario.check(summary, cfg)
    return summary
