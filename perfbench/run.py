"""reconcap benchmark: command-line entry point.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout; the package is imported from
``src`` and never installed.  Each run starts a fresh single-threaded child
process (``child.py``) that builds the workload from the seed, runs one
untimed warm-up pass and then times passes for ``--seconds``, with every
scenario's check on; ``speed.py`` rescales each pass to a fixed reference
machine speed.  With ``--trace 0`` the run also starts set-up probes,
children that stop right before their first scenario call, and reports the
end-to-end metrics; with ``--trace 1`` the child alternates untraced and
traced passes and reports the per-layer metrics.  ``--workload all`` runs
every workload in turn.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REF_SAMPLE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up samples per timed run: the timed child plus this many probes less one
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# thermo and gaussian run only in closed-form; their self times are printed
# but kept out of the JSON, where an idle layer would read exactly 0 every run.
IDLE_IN_SOME_WORKLOADS = ("thermo.self_s", "gaussian.self_s")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, out: Path, setup_only=False):
    """Start child.py, wait for it, and return (its JSON result, set-up seconds).

    Set-up runs from just before the child starts to its first scenario call,
    less the speed probe's samples; it is returned as measured and at the
    reference speed.
    """
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["reconcap"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"child imported reconcap from {result['reconcap']}, not from src")
    setup_s = result["ready"] - start
    return result, (setup_s, setup_s * REF_SAMPLE_S / result["setup_sample_s"])


def environment() -> dict:
    """Machine and library versions, so runs from different machines stay apart."""
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "threads": {name: "1" for name in THREAD_VARS},
        "git_commit": commit,
    }


def bench(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """One benchmark run of one workload; returns the result object."""
    child, setup_s = run_child(workload, seed, seconds, trace, work / "timed")
    attempted, failed = child["attempted"], child["failed"]
    rows = [("passes", child["passes"], "count")]
    if trace:
        metrics = dict(child["counts"])
        metrics.update(child["self_s"])
        metrics["tracer.wall_s"] = child["traced_wall_s"]
        metrics["tracer.overhead_s"] = child["traced_wall_s"] - child["untraced_wall_s"]
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        for problem in child["problems"]:
            print(f"perfbench: {problem}", file=sys.stderr)
        correct = failed == 0 and not child["problems"]
    else:
        setups = [setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(workload, seed, seconds, 0, work / "probe", setup_only=True)[1])
        raw_setups, norm_setups = zip(*setups)
        metrics = {
            "norm_wall_s": child["norm_wall_s"],
            "setup_s": statistics.median(norm_setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "pass_rate": (attempted - failed) / attempted,
        }
        units = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}
        rows += [
            ("wall_s", child["wall_s"], "s (as measured, not at the reference speed)"),
            ("raw_setup_s", statistics.median(raw_setups), "s (as measured)"),
            ("sample_ms", child["sample_s"] * 1000.0, f"ms (reference {REF_SAMPLE_S * 1000.0:g} ms)"),
            ("fail_rate", failed / attempted, f"ratio ({failed} of {attempted} scenario runs)"),
        ]
        correct = failed == 0
    rows = [(name, metrics[name], units[name]) for name in metrics] + rows
    print(f"# workload={workload} seed={seed} trace={trace} correct={correct}")
    for name, value, unit in rows:
        print(f"{name:28s} {value:>14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name not in IDLE_IN_SOME_WORKLOADS
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reconcap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the running child and the output directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "reconcap" / "__init__.py").is_file():
        print(f"perfbench: no reconcap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        print("# env " + json.dumps(environment(), sort_keys=True))
        results = {name: bench(name, args.seed, args.seconds, args.trace, work) for name in names}
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
