"""Tests for the benchmark's tracer and pass accounting.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reconcap
from reconcap import capacity, scenarios, spectral
from reconcap.scenarios import CheckError

from child import measure, run_pass
from speed import REF_SAMPLE_S, SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, workload_configs

PERFBENCH = Path(__file__).resolve().parents[1]


def test_traced_sweep_counts_at_default_configs(tmp_path):
    configs = workload_configs("sweep", None)
    reference = {}
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        _, failed = run_pass(configs, tmp_path, reference, tracer)
        assert failed == 0
    counts = tracers[0].counts()
    assert counts["transport.steps"] == 88200
    assert counts["tasks.evals"] == 234235
    assert counts["rng.streams"] == 162
    assert counts["config.fields_written"] == 81 * len(scenarios.SWEEP_HEADER)
    assert tracers[1].counts() == counts


def test_tracing_leaves_data_digests_unchanged(tmp_path):
    configs = workload_configs("closed-form", 7)
    reference = {}
    _, failed = run_pass(configs, tmp_path, reference)
    assert failed == 0
    untraced = {name: dict(d) for name, d in reference.items()}
    tracer = Tracer()
    seconds, failed = run_pass(configs, tmp_path, reference, tracer)
    assert failed == 0
    assert reference == untraced
    assert sorted(reference) == sorted(WORKLOADS["closed-form"])
    counts = tracer.counts()
    assert counts["gaussian.states"] > 0 and counts["thermo.calls"] > 0
    assert abs(sum(tracer.self_times().values()) - seconds) <= 0.05 * seconds


def test_tracer_rebinds_imported_names_and_restores_them():
    originals = (spectral.singular_values, capacity.singular_values, np.linalg.svd)
    assert capacity.singular_values is spectral.singular_values
    with Tracer():
        assert capacity.singular_values is spectral.singular_values
        assert spectral.singular_values is not originals[0]
        assert reconcap.singular_values is spectral.singular_values
        assert np.linalg.svd is not originals[2]
    assert (spectral.singular_values, capacity.singular_values, np.linalg.svd) == originals


def test_failed_check_is_counted_not_raised(tmp_path, monkeypatch):
    def failing_check(summary):
        raise CheckError("forced failure")

    runner, _ = scenarios.SCENARIOS["esl-gap"]
    monkeypatch.setitem(scenarios.SCENARIOS, "esl-gap", (runner, failing_check))
    result = measure(workload_configs("closed-form", 7), tmp_path, seconds=0.0)
    # warm-up plus one timed pass, three scenarios each, esl-gap failing in both
    assert result["attempted"] == 6
    assert result["failed"] == 2
    assert result["wall_s"] > 0.0 and result["norm_wall_s"] > 0.0


def test_seed_reaches_every_config():
    for name in WORKLOADS:
        for cfg in workload_configs(name, 99):
            assert cfg.master_seed == 99
            assert cfg.pair.rotation_seed == 99


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_probe_clock_stops_while_sampling():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        sampled, start, wall = probe.sample_s, probe.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        elapsed, wall = probe.now() - start, time.perf_counter() - wall
        sampled = probe.sample_s - sampled
    assert probe.samples > 2 and sampled > 0.0
    assert abs(elapsed + sampled - wall) < 1e-3
    assert probe.normalise(elapsed) == elapsed * REF_SAMPLE_S / probe.mean_sample_s()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_end_to_end_metric_names_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared["end_to_end"]
    }


def test_trace_metric_names_match_benchmark_json():
    from run import IDLE_IN_SOME_WORKLOADS

    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    reported = set(tracer.counts()) | set(tracer.self_times())
    reported -= set(IDLE_IN_SOME_WORKLOADS)
    reported |= {"tracer.wall_s", "tracer.overhead_s"}
    assert reported == {entry["name"] for entry in declared["per_layer"]}
