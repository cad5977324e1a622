"""Config contract, scenario runs, CLI exit codes, and replay determinism."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import reconcap
from reconcap import capacity, cli, scenarios, transport
from reconcap.config import (
    ConfigError,
    ExperimentConfig,
    PairConfig,
    ProbeConfig,
    SweepConfig,
    ThermoConfig,
    config_hash,
    default_config,
    load_config,
    save_config,
    write_csv,
)
from reconcap.scenarios import STEP_BUDGET, CheckError, decaying_pair, run_scenario, sweep_phase1_steps
from reconcap.spectral import spectrum_rank
from reconcap.transport import DivergenceError, StepRule

from _oracles import full_length_escape, full_length_stage1, per_cell_stage1


# -- config contract --------------------------------------------------------


def test_default_configs_validate():
    for name in ["esl-gap", "rank-decay", "threshold-sweep", "composition-check", "proxy-probe"]:
        cfg = default_config(name)
        assert cfg.scenario == name


def test_round_trip_through_dict():
    cfg = default_config("threshold-sweep")
    rebuilt = ExperimentConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg


def test_round_trip_through_file(tmp_path):
    cfg = default_config("esl-gap")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert config_hash(load_config(path)) == config_hash(cfg)


def test_unknown_top_level_key_rejected():
    payload = default_config("composition-check").to_dict()
    payload["typo_field"] = 3
    with pytest.raises(ConfigError, match="typo_field"):
        ExperimentConfig.from_dict(payload)


@pytest.mark.parametrize("section", ["rule", "pair", "sweep", "thermo", "probe", "thresholds"])
def test_unknown_nested_key_rejected(section):
    payload = default_config("threshold-sweep").to_dict()
    payload[section]["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        ExperimentConfig.from_dict(payload)


def test_bad_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig(scenario="thermo-magic").validate()


def test_unstable_step_size_rejected():
    cfg = ExperimentConfig(scenario="rank-decay", rule=StepRule(step_size=1.5, weight_decay=0.1))
    with pytest.raises(ConfigError, match="unstable"):
        cfg.validate()


def test_weight_decay_needs_gradient_descent():
    payload = default_config("rank-decay").to_dict()
    payload["rule"] = {"kind": "langevin", "noise_scale": 0.3, "weight_decay": 0.1}
    with pytest.raises(ConfigError, match="weight_decay"):
        ExperimentConfig.from_dict(payload)


def test_esl_gap_requires_langevin():
    cfg = default_config("esl-gap")
    payload = cfg.to_dict()
    payload["rule"]["kind"] = "gradient_descent"
    payload["rule"]["noise_scale"] = 0.0
    with pytest.raises(ConfigError, match="langevin"):
        ExperimentConfig.from_dict(payload)


def test_esl_gap_horizon_capped():
    cfg = default_config("esl-gap")
    payload = cfg.to_dict()
    payload["n_steps"] = 200  # 200 * 0.05 = 10 time units
    with pytest.raises(ConfigError, match="horizon"):
        ExperimentConfig.from_dict(payload)


def test_spectrum_length_must_match_k_a():
    payload = default_config("rank-decay").to_dict()
    payload["pair"]["spectrum_b_on_a"] = [1.0, 1.0]
    with pytest.raises(ConfigError, match="spectrum_b_on_a"):
        ExperimentConfig.from_dict(payload)


def test_sweep_targets_bounded_by_k_a():
    payload = default_config("threshold-sweep").to_dict()
    payload["sweep"]["usable_targets"] = [0, 9]
    with pytest.raises(ConfigError, match="usable_targets"):
        ExperimentConfig.from_dict(payload)


def test_sweep_tilt_counts_in_stability_bound():
    # a tilted demand has curvature 1 + tilt^2: 5 * 0.5 >= 2 diverges at run time
    payload = default_config("threshold-sweep").to_dict()
    payload["sweep"]["tilt"] = 2.0
    payload["rule"]["step_size"] = 0.5
    with pytest.raises(ConfigError, match="unstable"):
        ExperimentConfig.from_dict(payload)


def test_sweep_rejects_a_rule_it_does_not_step_with():
    # sweep cells step with plain gradient descent; a noisy rule would be ignored
    payload = default_config("threshold-sweep").to_dict()
    payload["rule"].update(kind="langevin", noise_scale=0.3)
    with pytest.raises(ConfigError, match="threshold-sweep"):
        ExperimentConfig.from_dict(payload)


def test_composition_check_ignores_rule():
    # its trials step with fixed rules, so the configured one is never iterated
    payload = default_config("composition-check").to_dict()
    payload["rule"]["step_size"] = 1.5
    assert ExperimentConfig.from_dict(payload).rule.step_size == 1.5


def test_format_float_and_csv(tmp_path):
    # each column is formatted by its dtype: repr for numbers, true/false for
    # bools, strings as they are
    path = tmp_path / "t.csv"
    write_csv(
        path,
        ["a", "b", "c", "d"],
        [np.array([1, 2]), np.array([0.5, 0.25]), np.array([True, False]), np.array(["langevin", "x"])],
    )
    assert path.read_text() == "a,b,c,d\n1,0.5,true,langevin\n2,0.25,false,x\n"
    write_csv(path, ["f"], [np.array([0.1, 1.0 / 3.0])])
    assert path.read_text() == "f\n0.1\n0.3333333333333333\n"
    # rows reach the file a block of 256 at a time, so a failure past the
    # first block removes the partial file, and the earlier file it replaced
    steps = np.arange(300)
    for bad, error in (
        ([steps, np.array(["ok"] * 299 + ["a,b"])], "needs quoting"),
        ([steps, np.arange(299.0)], "shorter"),
    ):
        write_csv(path, ["a"], [steps])
        with pytest.raises(ValueError, match=error) as err:
            write_csv(path, ["a", "b"], bad)
        assert "\n" not in str(err.value)
        assert not path.exists()


def test_csv_rows_match_per_field_format(tmp_path):
    # the edge values of every column kind, pinned byte for byte
    path = tmp_path / "mixed.csv"
    columns = [
        np.array([0, -7, 3, 2**62, -(2**63), 1]),
        np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 1 / 3]),
        np.array([2**70, -(2**70), 0, 1, 2**64, -1], dtype=object),
        np.array([True, False, True, False, False, True]),
        np.array(["langevin", "gradient_descent", "", "noisy_gradient", "a b", "x"]),
    ]
    write_csv(path, ["i", "f", "big", "b", "s"], columns)
    assert path.read_bytes() == (
        b"i,f,big,b,s\n"
        b"0,-0.0,1180591620717411303424,true,langevin\n"
        b"-7,nan,-1180591620717411303424,false,gradient_descent\n"
        b"3,inf,0,true,\n"
        b"4611686018427387904,-inf,1,false,noisy_gradient\n"
        b"-9223372036854775808,1e-300,18446744073709551616,false,a b\n"
        b"1,0.3333333333333333,-1,true,x\n"
    )


# -- scenario runs ----------------------------------------------------------


def test_composition_check_reduced(tmp_path):
    cfg = ExperimentConfig(scenario="composition-check", n_trials=50)
    cfg.validate()
    summary = run_scenario(cfg, out_dir=tmp_path, check=True)
    assert summary["max_composition_error"] <= 1e-10
    assert summary["submultiplicativity_violations"] == 0
    assert (tmp_path / "composition.csv").exists()
    assert (tmp_path / "submultiplicativity.csv").exists()
    assert (tmp_path / "monotonicity.csv").exists()


def test_esl_gap_run(tmp_path):
    summary = run_scenario(default_config("esl-gap"), out_dir=tmp_path, check=True)
    assert summary["slack"] >= -1e-6
    assert summary["geodesic_rel_error"] <= 0.05
    assert summary["total_production"] >= summary["transport_floor"]
    lines = (tmp_path / "dynamics.csv").read_text().splitlines()
    assert lines[0] == "step,sigma,free_energy,w2_from_start"
    assert len(lines) == 22  # header + 21 states


def test_esl_gap_check_is_strict_at_the_geodesic_action():
    # criterion 6 is strict: production equal to the ideal transport's fails
    cfg = default_config("esl-gap")
    summary = {
        "slack": 0.1,
        "geodesic_rel_error": 0.0,
        "geodesic_action": 1.0,
        "geodesic_action_coarse": 1.0,
        "total_production": 1.0,
    }
    with pytest.raises(CheckError, match="ideal transport"):
        scenarios.check_esl_gap(summary, cfg)
    scenarios.check_esl_gap(dict(summary, total_production=1.0 + 1e-12), cfg)


# each checker's bounds on a summary that passes them; every float field is
# one the checker reads, so a NaN in any of them must fail the check
PASSING_SUMMARIES = {
    "esl-gap": {
        "slack": 0.5,
        "geodesic_rel_error": 0.01,
        "geodesic_action": 1.0,
        "geodesic_action_coarse": 1.01,
        "total_production": 1.5,
    },
    "rank-decay": {
        "max_monotonicity_violation": 0.0,
        "strict_closed_form_error": 1e-12,
        "abs_profile_error": 1e-12,
        "final_usable_count": 0,
        "usable_zero_step": 9,
        "usable_zero_step_closed_form": 9,
        "collapse_step": 30,
        "collapse_step_closed_form": 31,
    },
    "threshold-sweep": {
        "agreement_rate": 1.0,
        "zero_usable_all_incompatible": True,
        "forced_exit_forgetting_min": 0.25,
    },
    "composition-check": {
        "max_composition_error": 1e-15,
        "submultiplicativity_violations": 0,
        "max_monotonicity_increase": 0.0,
    },
    "proxy-probe": {
        "spearman_pr_vs_usable": 0.9,
        "pr_first": 5.0,
        "pr_last": 1.0,
        "usable_last": 0,
        "pr_isotropic_over_dim": 0.95,
    },
}


@pytest.mark.parametrize("scenario", sorted(PASSING_SUMMARIES))
def test_check_rejects_nan(scenario):
    checker = scenarios.SCENARIOS[scenario].check
    cfg = default_config(scenario)
    summary = PASSING_SUMMARIES[scenario]
    checker(summary, cfg)
    floats = [key for key, value in summary.items() if isinstance(value, float)]
    with pytest.raises(CheckError):
        checker(dict(summary, **{key: float("nan") for key in floats}), cfg)
    for key in floats:
        with pytest.raises(CheckError):
            checker(dict(summary, **{key: float("nan")}), cfg)


def test_rank_decay_summary_keeps_a_nan(tmp_path, monkeypatch):
    # one NaN effective rank at the last step, in each ledger of ranks;
    # max() would drop it from the errors and the rank rises
    def with_nan(log_spectra):
        ranks = spectra_effective_rank(log_spectra)
        ranks[-1] = np.nan
        return ranks

    spectra_effective_rank = capacity.spectra_effective_rank
    monkeypatch.setattr(capacity, "spectra_effective_rank", with_nan)
    summary = run_scenario(default_config("rank-decay"), out_dir=tmp_path)
    assert np.isnan(summary["strict_closed_form_error"])
    assert np.isnan(summary["max_monotonicity_violation"])


def test_composition_summary_keeps_a_nan(tmp_path, monkeypatch):
    # trial 0's direct run comes back NaN; max() would drop its error
    calls = []

    def first_is_nan(*args):
        states = propagate(*args)
        if not calls:
            states[0] = np.nan
        calls.append(None)
        return states

    propagate = scenarios.propagate
    monkeypatch.setattr(scenarios, "propagate", first_is_nan)
    cfg = ExperimentConfig(scenario="composition-check", n_trials=4)
    cfg.validate()
    summary = run_scenario(cfg, out_dir=tmp_path)
    assert np.isnan(summary["max_composition_error"])
    with pytest.raises(CheckError, match="split/compose"):
        scenarios.check_composition_check(summary, cfg)


def test_rank_decay_run(tmp_path):
    summary = run_scenario(default_config("rank-decay"), out_dir=tmp_path, check=True)
    assert summary["usable_zero_step"] == summary["usable_zero_step_closed_form"]
    assert summary["final_effective_rank"] == 0.0
    assert summary["max_monotonicity_violation"] <= 1e-10


def _unblocked_rank_decay_columns(cfg):
    # the ledger of every power A^0 ... A^n_steps at once: their spectra
    # from the eigen-solve, those of J Q from one SVD of one stack
    pair = decaying_pair(cfg)
    log_rates, eigvecs = transport.step_eigen(pair.task_a.hessian, cfg.rule.step_size, cfg.rule.weight_decay)
    steps = range(cfg.n_steps + 1)
    log_svs = np.multiply.outer(steps, np.sort(log_rates)[::-1])
    log_compats = capacity.power_log_spectra(log_rates, eigvecs, pair.preserving_basis, steps)
    svs = np.exp(log_svs)
    columns = (
        capacity.spectra_effective_rank(log_svs), capacity.spectra_effective_rank(log_compats),
        capacity.usable_count(log_compats, cfg.thresholds.tau_sigma), spectrum_rank(svs),
    )
    return [list(steps), *(c.tolist() for c in columns), *svs.T.tolist()]


@pytest.mark.parametrize("n_steps, block_sizes", [(63, [64]), (64, [64, 1]), (65, [64, 2])])
def test_rank_decay_blocks_match_one_unblocked_ledger(n_steps, block_sizes, monkeypatch):
    # 64 powers of a 16 x 16 step matrix fill the block budget
    cfg = dataclasses.replace(default_config("rank-decay"), n_steps=n_steps)
    cfg.validate()
    blocks = []
    power_log_spectra = capacity.power_log_spectra

    def counting(log_rates, eigvecs, basis, exponents):
        blocks.append(len(exponents))
        return power_log_spectra(log_rates, eigvecs, basis, exponents)

    monkeypatch.setattr(capacity, "power_log_spectra", counting)
    _, tables = scenarios.run_rank_decay(cfg)
    monkeypatch.undo()
    assert blocks == block_sizes
    table = tables["rank_decay.csv"]
    expected = _unblocked_rank_decay_columns(cfg)
    assert list(table)[:5] == ["step", "effective_rank", "compatible_rank", "usable_count", "rank_j"]
    assert [repr(column.tolist()) for column in table.values()] == list(map(repr, expected))


def test_rank_decay_holds_no_stack_of_every_power():
    # one (n_steps + 1, 16, 16) float64 stack is 41 MB at 20,000 steps, more
    # than the run may hold at its peak
    cfg = dataclasses.replace(default_config("rank-decay"), n_steps=20_000)
    cfg.validate()
    stack_bytes = (cfg.n_steps + 1) * cfg.dim * cfg.dim * 8
    tracemalloc.start()
    try:
        _, tables = scenarios.run_rank_decay(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes
    # the returned table is dim + 5 eight-byte columns, about 0.17 KB a step,
    # held while it is alive; the bound leaves twice that
    assert held < 2 * (cfg.n_steps + 1) * (cfg.dim + 5) * 8
    assert len(tables["rank_decay.csv"]["step"]) == cfg.n_steps + 1


def test_proxy_probe_checkpoints_every_step_in_blocks():
    # checkpoint_every 1 takes every power: the usable series from blocks
    # of powers, against one stack of them all
    cfg = dataclasses.replace(default_config("proxy-probe"), probe=ProbeConfig(checkpoint_every=1))
    cfg.validate()
    pair = decaying_pair(cfg)
    a_mat = transport.step_map(pair.task_a, cfg.rule)[0]
    powers = np.array(list(transport.step_powers(a_mat, range(cfg.n_steps + 1))))
    _, usable = capacity.compatible_effective_rank(powers, pair.preserving_basis, cfg.thresholds.tau_sigma)
    _, tables = scenarios.run_proxy_probe(cfg)
    assert tables["proxy.csv"]["usable"].tolist() == usable.tolist()


def test_rank_decay_check_reports_a_missing_collapse(tmp_path):
    # near-equal rates: the usable count hits zero long before the volume
    # collapses, so a short run ends with no collapse step to compare
    cfg = dataclasses.replace(
        default_config("rank-decay"), n_steps=1000, pair=PairConfig(a_spectrum=(0.01,) * 8)
    )
    cfg.validate()
    with pytest.raises(CheckError, match="volume collapse at step None"):
        run_scenario(cfg, out_dir=tmp_path, check=True)


def test_proxy_probe_run(tmp_path):
    summary = run_scenario(default_config("proxy-probe"), out_dir=tmp_path, check=True)
    assert summary["spearman_pr_vs_usable"] >= 0.8
    assert summary["pr_first"] > summary["pr_last"]
    assert summary["usable_first"] == 8 and summary["usable_last"] == 0


def test_spearman_matches_scipy_with_ties_and_constant_series():
    from scipy.stats import spearmanr

    gen = np.random.default_rng(3)
    cases = [([1.0, 2.0, 3.0], [4, 4, 4]), ([5.0, 5.0, 5.0], [1, 2, 3]), ([1.0, 2.0, 2.0, 3.0], [5, 5, 6, 7])]
    for trial in range(300):
        # continuous or tied values against tied integer ranks, some constant
        n = int(gen.integers(3, 80))
        a = gen.standard_normal(n) if trial % 2 else gen.integers(0, 4, n).astype(float)
        cases.append((a.tolist(), gen.integers(0, 1 + n // (1 + trial % 9), n).tolist()))
    for a, b in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant series
            expected = float(spearmanr(a, b).statistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scenarios._spearman(a, b)
        assert repr(got) == repr(expected), (a, b)
    assert np.isnan(scenarios._spearman([1.0, 2.0, 3.0], [4, 4, 4]))


def test_threshold_sweep_reduced(tmp_path):
    cfg = ExperimentConfig(
        scenario="threshold-sweep",
        sweep=SweepConfig(m_b_targets=(0, 2, 8), usable_targets=(0, 2, 8)),
    )
    cfg.validate()
    summary = run_scenario(cfg, out_dir=tmp_path, check=True)
    assert summary["n_cells"] == 9
    assert summary["agreement_rate"] == 1.0
    assert summary["zero_usable_all_incompatible"]


def test_threshold_sweep_reduced_step_count(tmp_path, monkeypatch):
    # one stacked propagation takes the 200 phase-1 steps of each cell and
    # nothing else, and one eigen-solve of the 9 step matrices gives the
    # spectra of their Jacobians A^200, with no product of them;
    # the stacked escape evaluates task B's loss at each escaping cell's
    # start and after each of its phase2_steps steps, and at nothing else
    cfg = ExperimentConfig(
        scenario="threshold-sweep",
        sweep=SweepConfig(m_b_targets=(0, 2, 8), usable_targets=(0, 2, 8)),
    )
    cfg.validate()
    stacks, solves, powers, escaping = [], [], [], []
    escape_evals, in_escape = 0, False
    propagate, step_eigen = scenarios.propagate, scenarios.step_eigen
    escape, half_quadratic = scenarios._escape, scenarios._half_quadratic

    def counting_stack(*args, **kwargs):
        stacks.append(list(args[4]))
        return propagate(*args, **kwargs)

    def counting_eigen(hessian, *args):
        solves.append(hessian.shape)
        return step_eigen(hessian, *args)

    def counting_escape(theta, *args):
        nonlocal in_escape
        escaping.append(len(theta))
        in_escape = True
        try:
            return escape(theta, *args)
        finally:
            in_escape = False

    def counting_losses(h, d):
        nonlocal escape_evals
        if in_escape:
            escape_evals += len(d)
        return half_quadratic(h, d)

    monkeypatch.setattr(scenarios, "propagate", counting_stack)
    monkeypatch.setattr(scenarios, "step_eigen", counting_eigen)
    monkeypatch.setattr(scenarios, "step_powers", lambda *args: powers.append(args))
    monkeypatch.setattr(scenarios, "_escape", counting_escape)
    monkeypatch.setattr(scenarios, "_half_quadratic", counting_losses)
    run_scenario(cfg, out_dir=tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    column = lines[0].split(",").index("phase2_steps")
    phase2_steps = [int(line.split(",")[column]) for line in lines[1:]]
    assert stacks == [[200] * 9]
    assert solves == [(9, 16, 16)] and powers == []
    assert len(escaping) == 1
    assert escape_evals == sum(phase2_steps) + escaping[0]
    assert sum(phase2_steps) == 69


def test_threshold_sweep_decomposes_each_stack_once(tmp_path, monkeypatch):
    # a default run builds its 81 cells' inputs as stacks: one QR of the
    # rotations; eigvalsh of tasks A, of tasks B and of Q_A^T H_B Q_A (m_B),
    # the anchored tasks being PSD sums not checked again; one eigh of the
    # anchored tasks, whose rates give the spectra of the Jacobians, and one
    # SVD of the scaled J Q_A; its forgetting columns are value differences.
    # Built cell by cell the run made 81 QR, 235 eigvalsh, 117 eigh and 162
    # SVD calls; from the products A^k1, no eigh and 2 SVD calls.
    cfg = default_config("threshold-sweep")
    cfg.validate()
    names = ("qr", "eigvalsh", "eigh", "svd")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    run_scenario(cfg, out_dir=tmp_path, check=True)
    assert calls == {"qr": 1, "eigvalsh": 3, "eigh": 1, "svd": 1}


def test_rank_decay_takes_one_eigen_solve_and_one_svd_per_power_block(monkeypatch):
    # 1,401 powers: the spectra of all from one eigh of H + wd I, those of
    # J Q from one SVD per block of 64; building the pair takes one QR and 3
    # eigvalsh.  From the products, with an eigvalsh for each block's
    # spectra, the run made 25 eigvalsh calls; with an SVD, 44 SVD calls.
    cfg = default_config("rank-decay")
    names = ("qr", "eigvalsh", "eigh", "svd")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    blocks = []

    def counting_spectra(log_rates, eigvecs, basis, exponents, _call=capacity.power_log_spectra):
        blocks.append(len(exponents))
        return _call(log_rates, eigvecs, basis, exponents)

    monkeypatch.setattr(capacity, "power_log_spectra", counting_spectra)
    scenarios.run_rank_decay(cfg)
    assert blocks == [64] * 21 + [57]
    assert calls == {"qr": 1, "eigvalsh": 3, "eigh": 1, "svd": 22}


# sha256 of the default threshold-sweep's data files, as written since each
# step is the affine map A theta + b; sweep.csv as written since the
# Jacobians' spectra come from one eigen-solve of the step matrices
SWEEP_DIGESTS = {
    "summary.json": "279801fd42660d43ec1e7687aff00a18ae59e59e4c6c59827ca66256ad21110b",
    "sweep.csv": "b43905f49036830e86d1170914654e8946f7d8abc03fe896cc1fdb8f029158aa",
}


def test_default_threshold_sweep_is_byte_stable(tmp_path):
    run_scenario(default_config("threshold-sweep"), out_dir=tmp_path, check=True)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SWEEP_DIGESTS
    }
    assert digests == SWEEP_DIGESTS


# sha256 of the default data files of the closed-form scenarios: esl-gap's
# as written while capacity diagnostics took ensembles of one Jacobian;
# rank-decay's and proxy-probe's as written since every power's spectra
# come from one eigen-solve of the step matrix, k log|lambda|
CLOSED_FORM_DIGESTS = {
    "rank-decay": {
        "rank_decay.csv": "ed72a4b7930b2dc52346002fba04a3d5625bac35c1428d15509e72ef0232cd95",
        "summary.json": "0b2c284833ac3b918e8d81bea24aa522e99e04d170e3c226e8b9a600672c479f",
    },
    "proxy-probe": {
        "proxy.csv": "c27ede3d46c39b1b0901d39d1db88b97fd2716fd3a6ad27dd912c63d05a52b65",
        "summary.json": "6957f5783b454b511ea37624ce4d932c5d111fa8418950935c9f999b0c2970da",
    },
    "esl-gap": {
        "dynamics.csv": "e30b89b283e5a2217e02833c6ba2704b4b19ffe4f8cf1f6d05b35a77cc41149f",
        "geodesic.csv": "c7019fcfa2df161bdc85342aa7b71b7aa6e2907803660186219f1090247a811e",
        "summary.json": "1e7f88159a2860a7e56ea4c2fec98d17edc0ae19daa213f4f5a83516b8bd3a53",
    },
}


@pytest.mark.parametrize("scenario", sorted(CLOSED_FORM_DIGESTS))
def test_default_closed_form_scenario_is_byte_stable(scenario, tmp_path):
    run_scenario(default_config(scenario), out_dir=tmp_path, check=True)
    expected = CLOSED_FORM_DIGESTS[scenario]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == expected


SEEDED_DIGESTS = Path(__file__).parent / "seeded_digests.txt"


def _data_digests_tool():
    spec = importlib.util.spec_from_file_location(
        "data_digests", Path(__file__).resolve().parents[1] / "tools" / "data_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_seeded_runs_are_byte_stable(tmp_path, monkeypatch, capsys):
    # the seed-7 and seed-21 lines of tools/data_digests.py, against the copy
    # checked in beside this file; any change to them has to update it
    tool = _data_digests_tool()
    monkeypatch.setattr(tool, "SEEDS", (7, 21))
    tool.main([str(tmp_path)])
    assert capsys.readouterr().out == SEEDED_DIGESTS.read_text()


def test_data_digests_do_not_depend_on_blas_threads(tmp_path):
    # every data file of the five scenarios at all three seeds, with one and
    # with two BLAS threads; the stacked products are held to single-member
    # calls bit for bit, which a threaded BLAS must not regroup
    tool = Path(__file__).resolve().parents[1] / "tools" / "data_digests.py"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, str(tool)], capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 54
    assert outputs[0] == outputs[1]


def test_data_digests_list_only_the_files_the_run_wrote(tmp_path, monkeypatch, capsys):
    # a stale file and a subdirectory in the output tree are neither listed nor read
    tool = _data_digests_tool()
    monkeypatch.setattr(tool, "SEEDS", (7,))
    monkeypatch.setattr(tool, "SCENARIOS", {"esl-gap": scenarios.SCENARIOS["esl-gap"]})
    out = tmp_path / "7" / "esl-gap"
    (out / "sub").mkdir(parents=True)
    (out / "old.csv").write_text("stale\n")
    tool.main([str(tmp_path)])
    expected = [line for line in SEEDED_DIGESTS.read_text().splitlines() if line.startswith("7/esl-gap/")]
    assert len(expected) == 4
    assert capsys.readouterr().out.splitlines() == expected


def _sweep_config(seed, limit):
    """The default sweep, re-seeded (``master_seed`` and ``pair.rotation_seed``)
    unless ``seed`` is None, with phase 2 cut at ``limit`` updates."""
    cfg = default_config("threshold-sweep")
    if seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=seed, pair=dataclasses.replace(cfg.pair, rotation_seed=seed))
    cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, phase2_step_limit=limit))
    cfg.validate()
    return cfg


def _stage1_per_member(loop):
    """A stacked stage 1 made of one ``loop`` call per member."""

    def stage1(theta_start, survivors, h_b, target, eta, eps_b, limit):
        runs = [loop(theta_start[i], s, h_b[i], target[i], eta, eps_b, limit) for i, s in enumerate(survivors)]
        return np.array([t for t, _ in runs]).reshape(theta_start.shape), np.array([v for _, v in runs])

    return stage1


def _escape_per_member(theta, h_b, target, rule, limit, eps_b):
    """A stacked escape made of one ``full_length_escape`` per member."""
    runs = [full_length_escape(theta[i], h_b[i], target[i], rule, limit, eps_b) for i in range(len(theta))]
    return (
        np.array([r[0] for r in runs], dtype=int),
        np.array([r[1] for r in runs]).reshape(theta.shape),
        np.array([r[2] for r in runs], dtype=bool),
    )


def _same_bits(got, expected):
    # equal arrays whose floats also print the same, so -0.0 != 0.0
    assert np.array_equal(got, expected)
    assert repr(np.asarray(got).tolist()) == repr(np.asarray(expected).tolist())


@pytest.mark.parametrize("seed", [None, 7, 21, 123, 4294967295])
def test_lockstep_phase2_matches_per_cell_loops(seed, monkeypatch):
    # every member of the sweep's two stacked phase-2 calls over the 81
    # default cells, and every member run again as a one-member stack,
    # against one cell's loops: stage 1 with its repeat exit, and the escape
    # run over the whole limit; limits 5, 21 and 37 cut loops short
    for limit in (5, 21, 37, 2000):
        calls = {}
        with monkeypatch.context() as patch:
            for name in ("_descend_survivors", "_escape"):

                def recording(*args, name=name, run=getattr(scenarios, name)):
                    calls[name] = args, run(*args)
                    return calls[name][1]

                patch.setattr(scenarios, name, recording)
            scenarios.run_threshold_sweep(_sweep_config(seed, limit))

        args, (theta, loss) = calls["_descend_survivors"]
        assert len(loss) == 81 and args[-1] == limit
        one = [tuple(a[i : i + 1] for a in args[:4]) + args[4:] for i in range(81)]
        alone = [scenarios._descend_survivors(*member) for member in one]
        _same_bits(np.array([t[0] for t, _ in alone]), theta)
        _same_bits(np.array([v[0] for _, v in alone]), loss)
        expected = _stage1_per_member(per_cell_stage1)(*args)
        _same_bits(theta, expected[0])
        _same_bits(loss, expected[1])

        args, escaped = calls["_escape"]
        assert 0 < len(escaped[0]) < 81
        expected = _escape_per_member(*args)
        for i in range(len(escaped[0])):
            member = tuple(a[i : i + 1] for a in args[:3]) + args[3:]
            for got in (tuple(v[i] for v in escaped), tuple(v[0] for v in scenarios._escape(*member))):
                for g, e in zip(got, (v[i] for v in expected)):
                    _same_bits(g, e)


@pytest.mark.parametrize("seed", [None, 7])
def test_stage1_members_do_not_depend_on_stack_order(seed, monkeypatch):
    # the 81 default cells' stage 1 in their given order, reversed and
    # shuffled: each cell's (theta, loss) bit for bit the same
    calls = []
    with monkeypatch.context() as patch:
        run = scenarios._descend_survivors
        patch.setattr(scenarios, "_descend_survivors", lambda *args: calls.append(args) or run(*args))
        scenarios.run_threshold_sweep(_sweep_config(seed, 2000))
    (args,) = calls
    theta, loss = scenarios._descend_survivors(*args)
    assert len(loss) == 81
    for order in (np.arange(81)[::-1], np.random.default_rng(0).permutation(81)):
        got_theta, got_loss = scenarios._descend_survivors(*(a[order] for a in args[:4]), *args[4:])
        _same_bits(got_theta, theta[order])
        _same_bits(got_loss, loss[order])


def test_sweep_early_exits_match_full_length_loops(monkeypatch):
    # (cell_index, m_b_target, usable_target) of the default grid, by seed.
    # At the default limit of 2000 and the default seed: stage 1 reaches
    # eps_b; u = 0; stage 1 stalls at a fixed point (three cells).  At seed 7
    # stage 1 cycles with period 2 (both cells).  Limits 5, 21 and 37 cut
    # some escapes short of the state within eps_b.
    cells = {
        None: [(10, 1, 1), (9, 1, 0), (19, 2, 1), (65, 7, 2), (79, 8, 7)],
        7: [(38, 4, 2), (66, 7, 3)],
    }
    seen = set()
    for seed, seed_cells in cells.items():
        for limit in (5, 21, 37, 2000):
            cfg = _sweep_config(seed, limit)
            for cell in seed_cells:
                jumps = 0
                half_quadratic = scenarios._half_quadratic

                def counting(h, d):
                    # a repeat exit evaluates its jump target as one offset;
                    # every other loss of a sweep is a stacked call
                    nonlocal jumps
                    jumps += d.ndim == 1
                    return half_quadratic(h, d)

                with monkeypatch.context() as patch:
                    patch.setattr(scenarios, "_half_quadratic", counting)
                    table = scenarios._sweep_table(cfg, [cell])
                with monkeypatch.context() as patch:
                    patch.setattr(scenarios, "_descend_survivors", _stage1_per_member(full_length_stage1))
                    patch.setattr(scenarios, "_escape", _escape_per_member)
                    oracle = scenarios._sweep_table(cfg, [cell])
                assert list(table) == list(oracle) == scenarios.SWEEP_HEADER
                assert [repr(c.tolist()) for c in table.values()] == [repr(c.tolist()) for c in oracle.values()]

                u, stage1_reached, escape_reached = (
                    table[name][0] for name in ("usable_target", "stage1_reached", "escape_reached")
                )
                if stage1_reached:
                    seen.add("stage 1 reached")
                    assert jumps == 0
                    continue
                seen.add("escape reached" if escape_reached else "escape cut")
                if u == 0:
                    seen.add("u = 0")
                elif jumps:
                    seen.add(f"stage 1 repeat, seed {seed}")
                assert jumps <= 1
    assert seen == {
        "stage 1 reached",
        "u = 0",
        "stage 1 repeat, seed None",
        "stage 1 repeat, seed 7",
        "escape reached",
        "escape cut",
    }


def test_threshold_sweep_ignores_pair_spectra(tmp_path):
    # sweep cells build their own pairs, so a stiff configured A spectrum is
    # neither read nor counted in the stability bound
    cfg = ExperimentConfig(
        scenario="threshold-sweep",
        sweep=SweepConfig(m_b_targets=(0, 8), usable_targets=(0, 8)),
    )
    stiff = dataclasses.replace(cfg, pair=PairConfig(a_spectrum=(30.0,) * 8))
    stiff.validate()
    run_scenario(cfg, out_dir=tmp_path / "default")
    run_scenario(stiff, out_dir=tmp_path / "stiff")
    assert (tmp_path / "default" / "sweep.csv").read_bytes() == (
        tmp_path / "stiff" / "sweep.csv"
    ).read_bytes()


def test_noisy_probe_fails_check(tmp_path):
    # a large isotropic sensor floor spreads the probe back out at collapse,
    # flipping the correlation; the check must catch that
    cfg = default_config("proxy-probe")
    payload = cfg.to_dict()
    payload["probe"]["probe_noise"] = 10.0
    cfg = ExperimentConfig.from_dict(payload)
    with pytest.raises(CheckError, match="correlation"):
        run_scenario(cfg, out_dir=tmp_path, check=True)


def test_replay_is_byte_identical(tmp_path):
    cfg = default_config("proxy-probe")
    run_scenario(cfg, out_dir=tmp_path / "first")
    run_scenario(cfg, out_dir=tmp_path / "second")
    for path in sorted((tmp_path / "first").iterdir()):
        if path.name == "manifest.json":
            continue
        assert path.read_bytes() == (tmp_path / "second" / path.name).read_bytes()
    m1 = json.loads((tmp_path / "first" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "second" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert m1["config_sha256"] == m2["config_sha256"]
    assert m1["started_at"] != "" and m1["finished_at"] != ""


def test_manifest_covers_outputs(tmp_path):
    run_scenario(default_config("esl-gap"), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    names = set(manifest["files"])
    assert {"config.json", "dynamics.csv", "geodesic.csv", "summary.json"} <= names
    assert manifest["seed_ledger"]["master_seed"] == 2024
    assert manifest["seed_ledger"]["streams"] == {
        "step_noise": 0, "init": 1, "task": 2, "probe": 3,
    }
    assert manifest["seed_ledger"]["chunk_steps"] == 256
    assert manifest["artifact_version"]


# The tables each scenario's runner returns, one CSV file each, by header
_SERIES_HEADER = ["step", "sigma", "free_energy", "w2_from_start"]
TABLES = {
    "esl-gap": {"dynamics.csv": _SERIES_HEADER, "geodesic.csv": _SERIES_HEADER},
    "rank-decay": {
        "rank_decay.csv": ["step", "effective_rank", "compatible_rank", "usable_count", "rank_j"]
        + [f"sv_{i}" for i in range(16)],
    },
    "threshold-sweep": {"sweep.csv": scenarios.SWEEP_HEADER},
    "composition-check": {
        "composition.csv": ["trial", "len_a", "len_b", "len_c", "rule_kind", "max_abs_error"],
        "submultiplicativity.csv": ["trial", "dim", "sigma_slack", "rank_a", "rank_b", "rank_prod", "ok"],
        "monotonicity.csv": ["trial", "n_steps", "weight_decay", "max_increase"],
    },
    "proxy-probe": {"proxy.csv": ["step", "pr", "usable", "surviving_normals"]},
}


@pytest.mark.parametrize("scenario", sorted(scenarios.SCENARIOS))
def test_runner_returns_its_tables_and_writes_nothing(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    summary, tables = scenarios.SCENARIOS[scenario].run(default_config(scenario))
    assert list(tmp_path.iterdir()) == []
    assert set(tables) == set(TABLES[scenario]) and summary
    for name, table in tables.items():
        assert list(table) == TABLES[scenario][name]
        n_rows = len(table[TABLES[scenario][name][0]])
        assert n_rows and all(column.ndim == 1 and len(column) == n_rows for column in table.values())
        # the fields write_csv writes, as perfbench's tracer counts them
        assert sum(len(column) for column in table.values()) == n_rows * len(table)


@pytest.mark.parametrize("scenario", sorted(scenarios.SCENARIOS))
def test_default_run_writes_exactly_its_listed_files(scenario, tmp_path):
    run_scenario(default_config(scenario), out_dir=tmp_path)
    listed = {"config.json", "summary.json", *TABLES[scenario]}
    assert {path.name for path in tmp_path.iterdir()} == listed | {"manifest.json"}
    assert set(json.loads((tmp_path / "manifest.json").read_text())["files"]) == listed


def test_manifest_leaves_out_a_stale_file(tmp_path):
    (tmp_path / "old.csv").write_text("step\n0\n")
    run_scenario(default_config("esl-gap"), out_dir=tmp_path)
    assert "old.csv" not in json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert (tmp_path / "old.csv").read_text() == "step\n0\n"


# -- CLI --------------------------------------------------------------------


def test_cli_version(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip() == "0.26.0"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None and match.group(1) == reconcap.__version__


PUBLIC_NAMES = [
    "COVARIANCE_FLOOR",
    "CapacityReport",
    "ConfigError",
    "DissipationLedger",
    "DivergenceError",
    "ExperimentConfig",
    "GaussianState",
    "PairConfig",
    "ProbeConfig",
    "QuadraticTask",
    "SCENARIOS",
    "STREAM_INIT",
    "STREAM_PROBE",
    "STREAM_STEP_NOISE",
    "STREAM_TASK",
    "StepKind",
    "StepRule",
    "SubspaceBasis",
    "SweepConfig",
    "TaskPair",
    "ThermoConfig",
    "ThresholdConfig",
    "clamped_state",
    "compatible_effective_rank",
    "default_config",
    "effective_rank",
    "entropy",
    "entropy_production_step",
    "esl_slack",
    "free_energy",
    "geodesic_action_ledger",
    "load_config",
    "make_task_pair",
    "ot_geodesic",
    "participation_ratio",
    "predict_incompatibility",
    "propagate",
    "random_rotations",
    "restricted_hessian",
    "run_scenario",
    "save_config",
    "simulate_relaxation",
    "singular_values",
    "stable_rank",
    "step_powers",
    "stream",
    "w2_gaussian",
]


def test_public_surface():
    assert sorted(reconcap.__all__) == PUBLIC_NAMES
    for name in reconcap.__all__:
        assert hasattr(reconcap, name), name


def test_cli_scenarios(capsys):
    assert cli.main(["scenarios"]) == 0
    assert "threshold-sweep" in capsys.readouterr().out


def test_scenario_names_agree_across_the_records_the_cli_and_the_readme(tmp_path, capsys, monkeypatch):
    # the README "reads" table has one row per record, in the records' order;
    # `reconcap scenarios` lists them and `run --scenario` takes each of them
    names = ["esl-gap", "rank-decay", "threshold-sweep", "composition-check", "proxy-probe"]
    assert list(scenarios.SCENARIOS) == names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| scenario | reads |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    assert [row.split("|")[1].strip() for row in table.splitlines()] == names
    assert cli.main(["scenarios"]) == 0
    assert capsys.readouterr().out.splitlines() == names
    ran = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg, **kwargs: ran.append(cfg.scenario) or {})
    for name in names:
        assert cli.main(["run", "--scenario", name, "--out-dir", str(tmp_path)]) == 0
    assert ran == names
    assert cli.main(["run", "--scenario", "rank_decay"]) == 1


def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    save_config(default_config("esl-gap"), path)
    assert cli.main(["validate", str(path)]) == 0
    assert "ok scenario=esl-gap" in capsys.readouterr().out


def test_cli_validate_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    payload = default_config("esl-gap").to_dict()
    payload["mystery"] = True
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("reconcap-error code=1 kind=config")


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "dim", "16"),
        (None, "n_steps", True),
        (None, "master_seed", 1.5),
        ("pair", "spectrum_b_on_a", [float("nan")] + [1.0] * 7),
    ],
    ids=["str-for-int", "bool-for-int", "float-for-int", "nan-in-tuple"],
)
def test_cli_validate_rejects_mistyped_field(tmp_path, capsys, section, key, value):
    payload = default_config("composition-check").to_dict()
    (payload[section] if section else payload)[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("reconcap-error code=1 kind=config")
    assert key in err and err.count("\n") == 1


def test_cli_validate_rejects_pair_tilt(tmp_path, capsys):
    # rank-decay never read pair.tilt; an untiltable pair once passed
    # validate and then failed the run as a numerical error
    payload = default_config("rank-decay").to_dict()
    payload.update(dim=6, k_a=4)
    payload["pair"].update(spectrum_b_on_a=[1.0] * 4, tilt=1.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 1
    assert "unknown keys ['tilt']" in capsys.readouterr().err


def test_cli_validate_rejects_sweep_whose_stacked_pairs_cannot_build(tmp_path, capsys):
    # the largest demand of 4 needs a fourth A-normal partner for its tilt,
    # and dim - k_a = 3: validate reports, as one config line, the message
    # the run's stacked build of the cells raises
    sweep = SweepConfig(m_b_targets=(0, 4), usable_targets=(0, 4))
    cfg = ExperimentConfig(scenario="threshold-sweep", dim=7, k_a=4, sweep=sweep)
    with pytest.raises(ValueError) as run:
        scenarios._sweep_table(cfg, [(0, 0, 0), (1, 0, 4), (2, 4, 0), (3, 4, 4)])
    assert "positive spectrum index 3 has no partner (d - k_a = 3)" in str(run.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("reconcap-error code=1 kind=config") and err.count("\n") == 1
    assert str(run.value) in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"dim": 2, "k_a": 1, "pair": {"spectrum_b_on_a": [1.0]}, "rule": {"weight_decay": 0.0}},
        {
            "dim": 2,
            "k_a": 1,
            "pair": {"spectrum_b_on_a": [1.0], "a_spectrum": [3.8]},
            "rule": {"step_size": 0.5, "weight_decay": 0.1},
        },
        {"rule": {"weight_decay": 2.5e-150}},
        {"pair": {"spectrum_b_on_a": [-1.0] + [1.0] * 7}},
    ],
    ids=["no-decay", "equal-rates", "decay-below-roundoff", "negative-demand"],
)
def test_cli_rank_decay_that_cannot_run_is_a_config_error(tmp_path, capsys, overrides):
    # each once passed validate, then crashed, failed as "numerical", or
    # failed its check against a closed form that took the log of a rate of 1
    payload = default_config("rank-decay").to_dict()
    for key, value in overrides.items():
        if isinstance(value, dict):
            payload[key].update(value)
        else:
            payload[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--check"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("reconcap-error code=1 kind=config") and err.count("\n") == 1


def test_cli_underflowed_spectrum_passes_check_with_nothing_on_stderr(tmp_path):
    # at weight decay 5 the spectrum underflows to 0.0 in the file, all of it
    # from step 1,076, but every check reads its logs: the closed form is
    # matched at every step, and no numpy warning reaches stderr
    payload = default_config("rank-decay").to_dict()
    payload["rule"]["weight_decay"] = 5.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    proc = _cli_in_subprocess("run", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--check")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["strict_closed_form_error"] <= 1e-11
    last = (tmp_path / "o" / "rank_decay.csv").read_text().splitlines()[-1].split(",")
    assert set(last[5:]) == {"0.0"}


def test_rank_decay_at_the_step_budget_passes_its_check():
    # 100,000 steps: the strict closed-form error grows as k times the
    # eigenvalue error, and stays under the check's 1e-9
    cfg = dataclasses.replace(default_config("rank-decay"), n_steps=STEP_BUDGET)
    cfg.validate()
    record = scenarios.SCENARIOS["rank-decay"]
    summary, _ = record.run(cfg)
    record.check(summary, cfg)
    assert summary["strict_closed_form_error"] <= 1e-10


def test_proxy_probe_at_light_weight_decay_tracks_the_usable_count():
    # at weight decay 0.1 the normals fall below roundoff of the preserved
    # directions long before the run ends; stepped by products, the probes
    # leaked those directions and the correlation read -0.358
    rule = StepRule(step_size=0.1, weight_decay=0.1)
    cfg = dataclasses.replace(default_config("proxy-probe"), n_steps=1400, rule=rule)
    cfg.validate()
    record = scenarios.SCENARIOS["proxy-probe"]
    summary, _ = record.run(cfg)
    record.check(summary, cfg)
    assert summary["spearman_pr_vs_usable"] >= 0.8


def test_proxy_probe_with_a_rate_of_exactly_zero_raises_no_float_fault():
    # eta (a + wd) = 1 on the one normal direction: its rate is exactly 0 at
    # this seed, log|lambda| is -inf, and after step 0 the probes vanish
    rule = StepRule(step_size=0.5, weight_decay=0.5)
    pair_cfg = PairConfig(spectrum_b_on_a=(1.0,), a_spectrum=(1.5,), rotation_seed=0)
    cfg = dataclasses.replace(default_config("proxy-probe"), dim=2, k_a=1, rule=rule, pair=pair_cfg)
    cfg.validate()
    assert -np.inf in transport.step_eigen(decaying_pair(cfg).task_a.hessian, 0.5, 0.5)[0]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        summary, tables = scenarios.run_proxy_probe(cfg)
    assert tables["proxy.csv"]["pr"].tolist() == [1.0] + [0.0] * (len(tables["proxy.csv"]["pr"]) - 1)
    assert summary["usable_first"] == 1 and summary["usable_last"] == 0


def test_noisy_proxy_probe_matches_the_stepped_probes():
    # with sensor noise the probes are not rescaled: their ratios match
    # probes stepped one matrix product at a time, x' = x A, and taken as
    # x H plus the noise rows, as the run once computed them
    probe = ProbeConfig(checkpoint_every=4, probe_noise=0.05)
    cfg = dataclasses.replace(default_config("proxy-probe"), probe=probe)
    cfg.validate()
    _, tables = scenarios.run_proxy_probe(cfg)
    pair = decaying_pair(cfg)
    a_mat = transport.step_map(pair.task_a, cfg.rule)[0]
    samples = reconcap.stream(cfg.master_seed, reconcap.STREAM_PROBE, 0).standard_normal((256, cfg.dim))
    expected = []
    for k in range(cfg.n_steps + 1):
        if k % 4 == 0:
            noise = reconcap.stream(cfg.master_seed, reconcap.STREAM_PROBE, 1, k).standard_normal(samples.shape)
            expected.append(capacity.participation_ratio(samples @ pair.task_a.hessian + 0.05 * noise))
        samples = samples @ a_mat
    assert np.allclose(tables["proxy.csv"]["pr"], expected, rtol=1e-9, atol=0.0)


def _cli_in_subprocess(*argv):
    # a fresh interpreter, whose numpy warnings reach stderr as a user's would
    env = {**os.environ, "PYTHONPATH": str(Path(reconcap.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "reconcap.cli", *argv], capture_output=True, text=True, timeout=120, env=env
    )


@pytest.mark.parametrize(
    "command, scenario, section, key, value",
    [
        ("validate", "threshold-sweep", "sweep", "tilt", 1e160),
        ("run", "proxy-probe", "probe", "probe_noise", 1e153),
        ("run", "threshold-sweep", "sweep", "offset_scale", 1e200),
        ("run", "esl-gap", "thermo", "start_cov_scale", 1e200),
        ("validate", "proxy-probe", "probe", "probe_noise", 1e153),
        ("validate", "threshold-sweep", "sweep", "offset_scale", 1e200),
        ("validate", "esl-gap", "thermo", "start_cov_scale", 1e200),
        ("run", "esl-gap", "thermo", "start_mean", [1e200, -1.5]),
        ("validate", "esl-gap", "thermo", "start_mean", [1e200, -1.5]),
        ("run", "esl-gap", "rule", "noise_scale", 1e200),
        ("validate", "esl-gap", "rule", "noise_scale", 1e200),
    ],
    ids=["sweep-tilt", "probe-noise", "sweep-offset", "esl-gap-start-cov",
         "probe-noise-validate", "sweep-offset-validate", "esl-gap-start-cov-validate",
         "esl-gap-start-mean", "esl-gap-start-mean-validate", "esl-gap-temperature",
         "esl-gap-temperature-validate"],
)
def test_cli_float_fault_is_one_stderr_line(tmp_path, command, scenario, section, key, value):
    # each once wrote numpy RuntimeWarnings to stderr ahead of its error line:
    # building the tilted pair at validation overflows, and so did the runs'
    # matmuls (the sweep's offset then ran on to a check of inf losses, exit
    # 3); the tilt's error named neither scenario nor field, and the other
    # four passed validate and then exited 2 at run (esl-gap's start_mean in
    # a matmul of its mean value).  Now validation rejects each, naming the
    # scenario and the field.
    payload = default_config(scenario).to_dict()
    payload[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    run_args = ["--config", str(path), "--out-dir", str(tmp_path / "o"), "--check"]
    proc = _cli_in_subprocess(command, *([str(path)] if command == "validate" else run_args))
    assert proc.returncode == 1
    assert _single_error_line(proc.stderr, 1, "config"), proc.stderr
    assert f"msg={scenario}: " in proc.stderr and f"{section}.{key}" in proc.stderr


@pytest.mark.parametrize(
    "scenario, section, key, value",
    [
        ("threshold-sweep", "sweep", "offset_scale", 2.4e149),
        ("proxy-probe", "probe", "probe_noise", 2.4e74),
        ("esl-gap", "thermo", "start_cov_scale", 7.0e149),
        ("esl-gap", "thermo", "start_mean", [4.9e149, -1.5]),
    ],
    ids=["sweep-offset", "probe-noise", "esl-gap-start-cov", "esl-gap-start-mean"],
)
def test_cli_largest_accepted_magnitude_runs_without_a_float_fault(tmp_path, scenario, section, key, value):
    # just under SQUARE_LIMIT each run ends in its check (exit 3) or passes,
    # never in a float fault: the limit leaves the run's sums room
    payload = default_config(scenario).to_dict()
    payload[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    proc = _cli_in_subprocess("run", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--check")
    assert proc.returncode in (0, 3), proc.stderr
    larger = [x * 1.1 for x in value] if isinstance(value, list) else value * 1.1
    bigger = dict(payload, **{section: dict(payload[section], **{key: larger})})
    path.write_text(json.dumps(bigger))
    assert _cli_in_subprocess("validate", str(path)).returncode == 1


@pytest.mark.parametrize(
    "scenario, thresholds",
    [
        ("rank-decay", {"tau_sigma": 0.0}),
        ("rank-decay", {"tau_sigma": -1.0}),
        ("proxy-probe", {"tau_sigma": 0.0}),
        ("threshold-sweep", {"tau_sigma": 0.0}),
        ("threshold-sweep", {"epsilon_high": 0.0}),
    ],
    ids=["rank-decay-zero-tau", "rank-decay-negative-tau", "proxy-probe-zero-tau",
         "sweep-zero-tau", "sweep-zero-epsilon-high"],
)
def test_cli_threshold_the_run_reads_is_validated(tmp_path, capsys, scenario, thresholds):
    # tau_sigma = 0 once passed validate, then failed the run as "numerical"
    # (rank-decay, proxy-probe) or in math.log (threshold-sweep)
    payload = default_config(scenario).to_dict()
    payload["thresholds"].update(thresholds)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--check"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("reconcap-error code=1 kind=config") and err.count("\n") == 1
    assert f"thresholds.{next(iter(thresholds))}" in err


@pytest.mark.parametrize(
    "scenario, tau", [("rank-decay", 2.0), ("rank-decay", 1.0), ("proxy-probe", 2.0)],
    ids=["rank-decay-two", "rank-decay-one", "proxy-probe-two"],
)
def test_cli_validate_rejects_tau_sigma_of_one_or_more(tmp_path, capsys, scenario, tau):
    # the singular values of A^0 Q are 1, so no such tau leaves a count to
    # follow: these validated, then failed their checks (rank-decay's closed
    # form said step -68 at 2.0 and step 0 at 1.0; proxy-probe's correlation
    # read nan)
    payload = default_config(scenario).to_dict()
    payload["thresholds"]["tau_sigma"] = tau
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert _single_error_line(err, 1, "config") and "thresholds.tau_sigma" in err
    payload["thresholds"]["tau_sigma"] = math.nextafter(1.0, 0.0)
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 0


def test_cli_validate_rejects_an_esl_gap_step_that_moves_no_state(tmp_path, capsys):
    # at eta 1e-100, 1 - eta * h rounds to 1 for every curvature: the run
    # ended where it began and its relative geodesic error divided 0 by 0
    payload = default_config("esl-gap").to_dict()
    payload["rule"]["step_size"] = 1e-100
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert _single_error_line(err, 1, "config") and "msg=rule.step_size: " in err
    payload["rule"]["step_size"] = 1e-6
    path.write_text(json.dumps(payload))
    assert cli.main(["validate", str(path)]) == 0


def test_sweep_check_enforces_forced_exit_threshold(tmp_path):
    cfg = dataclasses.replace(
        default_config("threshold-sweep"),
        sweep=SweepConfig(m_b_targets=(0, 4), usable_targets=(0, 4)),
    )
    cfg.validate()
    summary = run_scenario(cfg, out_dir=tmp_path / "ok", check=True)
    forced_min = summary["forced_exit_forgetting_min"]
    assert forced_min >= cfg.thresholds.epsilon_high
    strict = dataclasses.replace(
        cfg, thresholds=dataclasses.replace(cfg.thresholds, epsilon_high=2.0 * forced_min)
    )
    strict.validate()
    with pytest.raises(CheckError, match="forced-exit forgetting"):
        run_scenario(strict, out_dir=tmp_path / "strict", check=True)
    # the data files do not depend on epsilon_high
    for name in ("sweep.csv", "summary.json"):
        assert (tmp_path / "ok" / name).read_bytes() == (tmp_path / "strict" / name).read_bytes()
    no_exits = dict(summary, forced_exit_forgetting_min=None)
    scenarios.check_threshold_sweep(no_exits, strict)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy is a test dependency only: not even proxy-probe's rank
    # correlation loads it
    code = (
        "import sys, reconcap; "
        "reconcap.run_scenario(reconcap.default_config('proxy-probe'), out_dir=sys.argv[1], check=True); "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _sweep_config_file(tmp_path, **sweep):
    payload = default_config("threshold-sweep").to_dict()
    payload["sweep"].update(sweep)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def _collapse_strength_for_k1(k1_target):
    # the weakest anchor whose phase 1 takes at most k1_target steps
    cfg = default_config("threshold-sweep")
    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        strength = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, collapse_strength=mid))
        lo, hi = (lo, mid) if sweep_phase1_steps(strength) <= k1_target else (mid, hi)
    return hi


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"collapse_strength": 1e-9}, "phase 1 takes k1 = 69077547071 steps per cell"),
        ({"phase2_step_limit": STEP_BUDGET + 1}, f"phase2_step_limit: {STEP_BUDGET + 1} is above"),
        # 1 - eta * strength rounds to 1: the run once divided by its log of 0
        ({"collapse_strength": 1e-17}, "1 - eta * collapse_strength must be in (0, 1)"),
    ],
    ids=["k1-over-budget", "phase2-over-budget", "no-contraction"],
)
def test_cli_validate_rejects_sweep_over_the_step_budget(tmp_path, capsys, sweep, message):
    # k1 = 69,077,547,071 steps per cell once validated, and its run then
    # asked propagate for an array of that many steps
    path = _sweep_config_file(tmp_path, **sweep)
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert _single_error_line(err, 1, "config") and message in err


def test_cli_validate_accepts_sweep_at_the_step_budget(tmp_path, capsys):
    strength = _collapse_strength_for_k1(STEP_BUDGET)
    cfg = default_config("threshold-sweep")
    cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, collapse_strength=strength))
    assert STEP_BUDGET - 10 < sweep_phase1_steps(cfg) <= STEP_BUDGET
    path = _sweep_config_file(tmp_path, collapse_strength=strength, phase2_step_limit=STEP_BUDGET)
    assert cli.main(["validate", str(path)]) == 0
    assert "ok scenario=threshold-sweep" in capsys.readouterr().out
    weaker = _sweep_config_file(tmp_path, collapse_strength=strength * (1 - 1e-3))
    assert cli.main(["validate", str(weaker)]) == 1
    assert "above the step budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, section, key, overrides",
    [
        ("rank-decay", None, "n_steps", {}),
        ("proxy-probe", None, "n_steps", {}),
        # the unit-time horizon n_steps * step_size <= 1 holds at the budget
        ("esl-gap", None, "n_steps", {"rule": {"step_size": 1.0 / STEP_BUDGET}}),
        ("esl-gap", "thermo", "n_geodesic_steps", {}),
    ],
    ids=["rank-decay-n-steps", "proxy-probe-n-steps", "esl-gap-n-steps", "esl-gap-geodesic-steps"],
)
def test_cli_validate_bounds_step_counts_by_the_step_budget(tmp_path, capsys, scenario, section, key, overrides):
    # each once validated at any size, and its run then allocated arrays of
    # that many steps and looped over them
    field = f"{section}.{key}" if section else key
    for steps, code in ((STEP_BUDGET, 0), (STEP_BUDGET + 1, 1)):
        payload = default_config(scenario).to_dict()
        for name, value in overrides.items():
            payload[name].update(value)
        (payload[section] if section else payload)[key] = steps
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["validate", str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert _single_error_line(err, 1, "config")
            assert f"msg={field}: {steps} is above the step budget of {STEP_BUDGET}" in err
        else:
            assert f"ok scenario={scenario}" in out and not err


def test_sweep_rows_take_the_validated_phase1_steps(monkeypatch):
    # the run steps phase 1 for the k1 that validation bounded
    cfg = default_config("threshold-sweep")
    steps = []

    def recording(theta0, a, b, gains, n_steps, *args, **kwargs):
        steps.extend(n_steps)
        return propagate(theta0, a, b, gains, n_steps, *args, **kwargs)

    propagate = scenarios.propagate
    monkeypatch.setattr(scenarios, "propagate", recording)
    scenarios._sweep_table(cfg, [(0, 1, 1), (1, 2, 0)])
    assert steps == [sweep_phase1_steps(cfg)] * 2 == [200, 200]


def test_cli_validate_missing_file(capsys):
    assert cli.main(["validate", "/nonexistent/cfg.json"]) == 1


def test_cli_run_writes_outputs(tmp_path, capsys):
    assert cli.main(["run", "--scenario", "esl-gap", "--out-dir", str(tmp_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip())["clamp_events"] == 0
    assert (tmp_path / "summary.json").exists()


def test_cli_run_env_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECONCAP_OUT_DIR", str(tmp_path / "env-out"))
    assert cli.main(["run", "--scenario", "proxy-probe"]) == 0
    assert (tmp_path / "env-out" / "proxy.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_esl_gap_start_under_the_covariance_floor_is_a_config_error(tmp_path, capsys, command):
    # 1e-20 once passed validate, then failed the run as "numerical" when
    # GaussianState rejected the start covariance
    payload = default_config("esl-gap").to_dict()
    payload["thermo"]["start_cov_scale"] = 1e-20
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    argv = [command, str(path)] if command == "validate" else [
        "run", "--config", str(path), "--out-dir", str(tmp_path / "o")
    ]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert _single_error_line(err, 1, "config") and "start_cov_scale must be >= 1.0e-12" in err


def test_cli_check_failure_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    payload = default_config("proxy-probe").to_dict()
    payload["probe"]["probe_noise"] = 10.0
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--check"])
    assert code == 3
    assert capsys.readouterr().err.startswith("reconcap-error code=3 kind=check")


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    with mock.patch.object(cli, "run_scenario", side_effect=DivergenceError("boom")):
        code = cli.main(["run", "--scenario", "esl-gap", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "kind=numerical" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["", "Unable to allocate 550. GiB"], ids=["bare", "numpy"])
def test_cli_memory_error_from_a_run_is_one_line(tmp_path, capsys, message):
    # raised by a stand-in for the run: nothing is allocated for real
    with mock.patch.object(cli, "run_scenario", side_effect=MemoryError(message)):
        code = cli.main(["run", "--scenario", "esl-gap", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert _single_error_line(err, 1, "memory") and err.strip().endswith(message or "out of memory")


@pytest.mark.parametrize(
    "command",
    [["validate", "cfg.json"], ["run", "--config", "cfg.json"], ["run", "--scenario", "esl-gap"]],
    ids=["validate", "run-config", "run-scenario"],
)
def test_cli_memory_error_from_loading_a_config_is_one_line(capsys, monkeypatch, command):
    # raised by stand-ins for the loaders: nothing is read or allocated
    def out_of_memory(_):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "load_config", out_of_memory)
    monkeypatch.setattr(cli, "default_config", out_of_memory)
    with mock.patch.object(cli, "run_scenario") as run:
        assert cli.main(command) == 1
    run.assert_not_called()
    err = capsys.readouterr().err
    assert _single_error_line(err, 1, "memory") and err.strip().endswith("7.28 TiB")


def _single_error_line(err: str, code: int, kind: str) -> bool:
    return err.startswith(f"reconcap-error code={code} kind={kind} msg=") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "nope"],
        ["run", "--scenario", "esl-gap", "--workers", "2"],
        ["run", "--scenario", "esl-gap", "--bogus"],
    ],
    ids=["invalid-choice", "removed-workers", "unknown-flag"],
)
def test_cli_usage_error_is_a_config_error(argv, capsys):
    assert cli.main(argv) == 1
    assert _single_error_line(capsys.readouterr().err, 1, "config")


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert "--out-dir" in capsys.readouterr().out


def test_cli_run_io_error_exits_1(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = cli.main(["run", "--scenario", "esl-gap", "--out-dir", str(blocker / "sub")])
    assert code == 1
    assert _single_error_line(capsys.readouterr().err, 1, "config")


def test_cli_run_beside_an_earlier_runs_directory(tmp_path, capsys):
    # --out-dir runs, after a run without it left runs/<scenario>/ there
    (tmp_path / "esl-gap").mkdir()
    (tmp_path / "esl-gap" / "summary.json").write_text("{}\n")
    assert cli.main(["run", "--scenario", "esl-gap", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["files"]) == {"config.json", "dynamics.csv", "geodesic.csv", "summary.json"}
    assert (tmp_path / "esl-gap" / "summary.json").read_text() == "{}\n"


@pytest.mark.parametrize("command", [["validate"], ["run", "--config"]], ids=["validate", "run"])
def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    # UTF-16 with its byte-order mark: the first byte, 0xff, is not UTF-8
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config("esl-gap").to_dict()), encoding="utf-16")
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert cli.main([*command, str(path)]) == 1
    assert _single_error_line(capsys.readouterr().err, 1, "config")


DUPLICATE_KEY_CONFIGS = {
    "top": '{"scenario": "rank-decay", "dim": 4, "dim": 16,'
    ' "rule": {"step_size": 0.1, "weight_decay": 0.1}}',
    "rule": '{"scenario": "rank-decay", "dim": 16,'
    ' "rule": {"step_size": 0.3, "step_size": 0.1, "weight_decay": 0.1}}',
}


@pytest.mark.parametrize("where", sorted(DUPLICATE_KEY_CONFIGS))
@pytest.mark.parametrize("command", [["validate"], ["run", "--config"]], ids=["validate", "run"])
def test_cli_config_with_a_duplicate_key_is_a_config_error(tmp_path, capsys, command, where):
    text = DUPLICATE_KEY_CONFIGS[where]
    # json.loads alone keeps the last value, and the result validates
    ExperimentConfig.from_dict(json.loads(text))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(path)
    assert cli.main([*command, str(path)]) == 1
    assert _single_error_line(capsys.readouterr().err, 1, "config")


def test_probe_config_bounds():
    cfg = ExperimentConfig(
        scenario="proxy-probe",
        rule=StepRule(step_size=0.1, weight_decay=0.5),
        probe=ProbeConfig(checkpoint_every=0),
    )
    with pytest.raises(ConfigError, match="checkpoint_every"):
        cfg.validate()


def test_thermo_mismatched_lengths():
    cfg = default_config("esl-gap")
    payload = cfg.to_dict()
    payload["thermo"]["start_mean"] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError, match="lengths"):
        ExperimentConfig.from_dict(payload)
