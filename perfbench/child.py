"""One benchmark process: import, build the workload, warm up, time passes.

Run by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread and ``src`` first on ``PYTHONPATH``.  Prints one JSON object on
stdout; progress and failure tracebacks go to stderr.

A pass runs every scenario of the workload once through the public API,
``run_scenario(cfg, out_dir, check=True)``, which writes the artifacts and
runs the scenario's check.  A scenario run fails if it raises, if its check
fails, or if the sha256 digests of its data files (every file except
``manifest.json``) differ from the first completed run of that scenario in
this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def data_digests(out: Path) -> dict:
    """sha256 of every data file in a scenario's output directory."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


def run_pass(
    configs, out_root: Path, reference: dict, tracer=None, clock=time.perf_counter
) -> tuple[float, int]:
    """Run each config once; returns (seconds spent in run_scenario, failures).

    ``reference`` maps scenario name to its first completed data digests and
    is filled in by the first pass that completes each scenario.  ``clock``
    times the run_scenario calls.
    """
    from reconcap import scenarios

    seconds = 0.0
    failed = 0
    with tracer if tracer is not None else contextlib.nullcontext():
        for cfg in configs:
            out = out_root / cfg.scenario
            shutil.rmtree(out, ignore_errors=True)
            start = clock()
            try:
                scenarios.run_scenario(cfg, out_dir=out, check=True)
            except Exception:
                seconds += clock() - start
                print(f"perfbench: {cfg.scenario} failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            seconds += clock() - start
            digests = data_digests(out)
            if reference.setdefault(cfg.scenario, digests) != digests:
                print(f"perfbench: {cfg.scenario} data files changed between passes", file=sys.stderr)
                failed += 1
    return seconds, failed


def _median_of_ok(passes, index=0) -> float:
    ok = [p[index] for p in passes if p[1] == 0]
    return statistics.median(ok or [p[index] for p in passes])


def probed_pass(configs, out_root: Path, reference: dict) -> tuple[float, int, float, float]:
    """``run_pass`` under a SpeedProbe.

    Returns (seconds, failures, seconds at the reference speed, mean
    calibration sample seconds); the seconds exclude the probe's samples.
    """
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        seconds, failed = run_pass(configs, out_root, reference, clock=probe.now)
    return seconds, failed, probe.normalise(seconds), probe.mean_sample_s()


def measure(configs, out_root: Path, seconds: float) -> dict:
    """One untimed warm-up pass, then timed passes for ``seconds``."""
    reference = {}
    passes = [probed_pass(configs, out_root, reference)]
    timed = []
    begin = time.perf_counter()
    while not timed or time.perf_counter() - begin < seconds:
        timed.append(probed_pass(configs, out_root, reference))
    passes += timed
    return {
        "attempted": len(passes) * len(configs),
        "failed": sum(p[1] for p in passes),
        "passes": len(timed),
        "wall_s": _median_of_ok(timed),
        "norm_wall_s": _median_of_ok(timed, 2),
        "sample_s": statistics.median(p[3] for p in timed),
    }


def measure_traced(configs, out_root: Path, seconds: float) -> dict:
    """Alternate untraced and traced passes for ``seconds`` (at least two pairs).

    Traced passes must reproduce the data digests of the untraced warm-up,
    report identical counts, and have layer self times that sum to the
    traced pass time within 5%.
    """
    from tracer import Tracer

    reference = {}
    passes = [run_pass(configs, out_root, reference)]
    untraced, traced, tracers = [], [], []
    begin = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - begin < seconds:
        untraced.append(run_pass(configs, out_root, reference))
        tracers.append(Tracer())
        traced.append(run_pass(configs, out_root, reference, tracers[-1]))
    passes += untraced + traced

    problems = []
    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers[1:]):
        problems.append("per-layer counts differ between traced passes")
    for (wall, _), tracer in zip(traced, tracers):
        covered = sum(tracer.self_times().values())
        if abs(covered - wall) > 0.05 * wall:
            problems.append(f"layer self times sum to {covered:.4f} s of a {wall:.4f} s pass")
    times = {
        name: statistics.median(t.self_times()[name] for t in tracers)
        for name in tracers[0].self_times()
    }
    traced_wall = _median_of_ok(traced)
    return {
        "attempted": len(passes) * len(configs),
        "failed": sum(failed for _, failed in passes),
        "passes": len(traced),
        "problems": problems,
        "counts": counts,
        "self_s": times,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": _median_of_ok(untraced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from speed import SpeedProbe

    with SpeedProbe() as probe:
        import reconcap  # part of the set-up a CLI user pays
        from workloads import workload_configs

        configs = workload_configs(args.workload, args.seed)
        ready = time.monotonic() - probe.sample_s
    result = {
        "ready": ready,
        "setup_sample_s": probe.mean_sample_s(),
        "reconcap": reconcap.__file__,
    }
    if not args.setup_only:
        if args.trace:
            result.update(measure_traced(configs, args.out, args.seconds))
        else:
            result.update(measure(configs, args.out, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
