"""Run the benchmark in two checkouts as alternating pairs and summarize them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S \\
        --seconds T --pairs N --out FILE

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T``
once in each checkout (its working directory), one after the other: pair 1
runs the parent first, pair 2 the change first, and so on.  The last line of
every run's stdout is kept, parsed as JSON.  FILE gets, under the label
``seed<S>_<W>``:

* ``runs[label]``: ``{"parent": [...], "change": [...]}``, every run's JSON
  in pair order;
* ``summary["<label>:<metric>"]`` for every metric, named
  ``<workload>.<name>`` (a single workload's run reports bare names): each
  side's values in pair order, its ``[q1, median, q3]`` (linear
  interpolation, as numpy's percentiles), the parent's IQR and
  ``change_wins``, the number of pairs the change did strictly better.
  Better is lower except where the parent's ``BENCHMARK.json`` lists the
  metric as ``"better": "higher"``.  Values are rounded to 4 decimals.

An existing FILE keeps its other keys and labels, so one file can gather a
claim's runs and a held-out seed's.  Progress goes to stderr.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: the JSON of its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"bench_pairs: {checkout}: no JSON last line (exit {proc.returncode}): {proc.stderr.strip()}")


def higher_is_better(checkout: Path) -> set:
    """Metric names the checkout's BENCHMARK.json marks better when higher."""
    path = checkout / "BENCHMARK.json"
    if not path.exists():
        return set()
    return {m["name"] for m in json.loads(path.read_text()).get("end_to_end", []) if m.get("better") == "higher"}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(label: str, workload: str, runs: dict, higher: set) -> dict:
    """The summary entries of one label's runs, by ``<label>:<metric>``."""
    def metrics(run):
        return {
            name if "." in name else f"{workload}.{name}": entry["value"]
            for name, entry in run["metrics"].items()
        }

    per_side = {side: [metrics(run) for run in runs[side]] for side in SIDES}
    summary = {}
    for name in sorted(per_side["parent"][0]):
        parent = [m[name] for m in per_side["parent"]]
        change = [m[name] for m in per_side["change"]]
        sign = -1.0 if name.rsplit(".", 1)[-1] in higher else 1.0
        q_parent, q_change = quartiles(parent), quartiles(change)
        summary[f"{label}:{name}"] = {
            "parent": [round(v, 4) for v in parent],
            "change": [round(v, 4) for v in change],
            "parent_q1_median_q3": [round(v, 4) for v in q_parent],
            "change_q1_median_q3": [round(v, 4) for v in q_change],
            "parent_iqr": round(q_parent[2] - q_parent[0], 4),
            "change_wins": sum(1 for p, c in zip(parent, change) if sign * c < sign * p),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    checkouts = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, args.seconds))
            print(f"bench_pairs: pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)

    label = f"seed{args.seed}_{args.workload}"
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("order", "alternating: odd pairs run the parent first, even pairs the change first")
    out.setdefault("env", {
        "python": platform.python_version(), "machine": platform.machine(), "nproc": os.cpu_count(),
    })
    out.setdefault("commands", {})[label] = (
        f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} --seconds {args.seconds:g}"
    )
    out.setdefault("pairs", {})[label] = args.pairs
    out.setdefault("runs", {})[label] = runs
    out.setdefault("summary", {}).update(
        summarize(label, args.workload, runs, higher_is_better(checkouts["parent"]))
    )
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
