"""Config contract, scenario runs, CLI exit codes, and replay determinism."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import reconcap
from reconcap import cli, scenarios, transport
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
    format_float,
    write_csv,
)
from reconcap.scenarios import CheckError, run_scenario
from reconcap.transport import DivergenceError, StepRule

from _oracles import full_length_escape, full_length_stage1


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
    assert format_float(True) == "true"
    assert format_float(np.int64(3)) == "3"
    assert format_float(0.1) == "0.1"
    assert format_float(1.0 / 3.0) == "0.3333333333333333"
    assert format_float("langevin") == "langevin"
    with pytest.raises(ValueError, match="quoting"):
        format_float("a,b")
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 0.5], [2, float(np.float64(0.25))]])
    assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"


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


def test_rank_decay_run(tmp_path):
    summary = run_scenario(default_config("rank-decay"), out_dir=tmp_path, check=True)
    assert summary["usable_zero_step"] == summary["usable_zero_step_closed_form"]
    assert summary["final_effective_rank"] == 0.0
    assert summary["max_monotonicity_violation"] <= 1e-10


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
    # every propagated step is one _advance call: 200 phase-1 steps per cell,
    # then each escape runs segments of 1, 2, 4, ... steps through the one
    # that holds its first state within eps_b, 2**n - 1 steps in all for a
    # phase2_steps of n bits
    cfg = ExperimentConfig(
        scenario="threshold-sweep",
        sweep=SweepConfig(m_b_targets=(0, 2, 8), usable_targets=(0, 2, 8)),
    )
    cfg.validate()
    steps = 0
    advance = transport._advance

    def counting_advance(*args):
        nonlocal steps
        steps += 1
        return advance(*args)

    monkeypatch.setattr(transport, "_advance", counting_advance)
    run_scenario(cfg, out_dir=tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    column = lines[0].split(",").index("phase2_steps")
    phase2_steps = [int(line.split(",")[column]) for line in lines[1:]]
    escape_steps = sum((1 << n.bit_length()) - 1 for n in phase2_steps)
    assert steps == 9 * 200 + escape_steps == 1893


def test_sweep_early_exits_match_full_length_loops(monkeypatch):
    # (cell_index, m_b_target, usable_target) of the default grid.  At the
    # default limit of 2000: stage 1 reaches eps_b; u = 0; stage 1 stalls at
    # a fixed point (two cells); stage 1 cycles to the limit.  Limits 5, 21
    # and 37 cut runs mid-segment (segments end at steps 1, 3, 7, 15, 31, ...).
    cells = [(10, 1, 1), (9, 1, 0), (19, 2, 1), (65, 7, 2), (79, 8, 7)]
    base = default_config("threshold-sweep")
    seen = set()
    for limit in (5, 21, 37, 2000):
        cfg = dataclasses.replace(
            base, sweep=dataclasses.replace(base.sweep, phase2_step_limit=limit)
        )
        for cell in cells:
            calls = 0
            half_quadratic = scenarios._half_quadratic

            def counting(*args):
                nonlocal calls
                calls += 1
                return half_quadratic(*args)

            with monkeypatch.context() as patch:
                patch.setattr(scenarios, "_half_quadratic", counting)
                row = scenarios._sweep_cell(cfg, *cell)
            with monkeypatch.context() as patch:
                patch.setattr(scenarios, "_descend_survivors", full_length_stage1)
                patch.setattr(scenarios, "_escape", full_length_escape)
                oracle = scenarios._sweep_cell(cfg, *cell)
            assert [repr(x) for x in row] == [repr(x) for x in oracle]

            u, stage1_reached, steps, escape_reached = row[1], row[7], row[12], row[14]
            if stage1_reached:
                seen.add("stage 1 reached")
                continue
            seen.add("escape reached" if escape_reached else "escape cut")
            # the escape scans steps + 1 states; stage 1 alone would take limit + 1
            if u == 0:
                seen.add("u = 0")
            elif calls - (steps + 1) < limit + 1:
                seen.add("stage 1 fixed point")
    assert seen == {
        "stage 1 reached", "u = 0", "stage 1 fixed point", "escape reached", "escape cut"
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
        "step_noise": 0, "init": 1, "task": 2, "probe": 3, "oracle": 4,
    }
    assert manifest["seed_ledger"]["chunk_steps"] == 256
    assert manifest["artifact_version"]


# -- CLI --------------------------------------------------------------------


def test_cli_version(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip() == "0.7.0"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None and match.group(1) == reconcap.__version__


PUBLIC_NAMES = [
    "COVARIANCE_FLOOR",
    "CapacityReport",
    "ConfigError",
    "DEFAULT_TAU_SIGMA",
    "DissipationLedger",
    "DivergenceError",
    "ExperimentConfig",
    "ForgettingResult",
    "GaussianState",
    "PairConfig",
    "ProbeConfig",
    "QuadraticTask",
    "RunManifest",
    "SCENARIOS",
    "STREAM_INIT",
    "STREAM_ORACLE",
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
    "Trajectory",
    "clamped_state",
    "combine",
    "compatible_effective_rank",
    "compose",
    "default_config",
    "effective_rank",
    "entropy",
    "entropy_production_step",
    "esl_slack",
    "free_energy",
    "geodesic_action_ledger",
    "load_config",
    "make_task_pair",
    "measure_forgetting",
    "normal_draw",
    "numerical_rank",
    "ot_geodesic",
    "participation_ratio",
    "predict_incompatibility",
    "propagate",
    "random_rotations",
    "reconfiguration_dimension",
    "restricted_hessian",
    "run_scenario",
    "save_config",
    "simulate_relaxation",
    "singular_values",
    "stable_rank",
    "step_jacobian",
    "stream",
    "value",
    "w2_gaussian",
]


def test_public_surface():
    assert sorted(reconcap.__all__) == PUBLIC_NAMES
    for name in reconcap.__all__:
        assert hasattr(reconcap, name), name


def test_cli_scenarios(capsys):
    assert cli.main(["scenarios"]) == 0
    assert "threshold-sweep" in capsys.readouterr().out


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


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, reconcap; assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
