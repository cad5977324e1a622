import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# a stand-in benchmark: logs its side and arguments, then prints a human line
# and one JSON line whose values come from the side's list, one per call
STUB = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
log = here.parent / "calls.log"
with log.open("a") as f:
    f.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
n = sum(1 for line in log.read_text().splitlines() if line.startswith(here.name))
walls, rss = {walls}, {rss}
print("human-readable line")
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
    "norm_wall_s": {{"unit": "s", "value": walls[n - 1]}},
    "peak_rss_mb": {{"unit": "MB", "value": rss[n - 1]}},
    "pass_rate": {{"unit": "ratio", "value": 1.0}},
}}}}))
"""

PARENT_WALLS = [0.113, 0.112, 0.114, 0.1125, 0.111]
CHANGE_WALLS = [0.105, 0.104, 0.115, 0.106, 0.1045]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _checkout(root: Path, name: str, walls, rss) -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB.format(walls=walls, rss=rss))
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "norm_wall_s", "better": "lower"}, {"name": "pass_rate", "better": "higher"},
    ]}))
    return checkout


@pytest.fixture
def checkouts(tmp_path):
    return (
        _checkout(tmp_path, "parent", PARENT_WALLS, [42.0] * 5),
        _checkout(tmp_path, "change", CHANGE_WALLS, [42.0, 42.1, 41.9, 42.0, 42.0]),
    )


def test_pairs_alternate_and_summarize(tmp_path, checkouts):
    out = tmp_path / "BENCH.json"
    argv = [*map(str, checkouts), "--workload", "closed-form", "--seed", "7", "--seconds", "5", "--pairs", "5"]
    assert _tool().main([*argv, "--out", str(out)]) == 0

    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert [line.split()[0] for line in calls] == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert set(line.split(" ", 1)[1] for line in calls) == {"--workload closed-form --seed 7 --seconds 5.0"}

    bench = json.loads(out.read_text())
    label = "seed7_closed-form"
    assert [run["metrics"]["norm_wall_s"]["value"] for run in bench["runs"][label]["parent"]] == PARENT_WALLS
    assert bench["pairs"] == {label: 5}
    assert bench["commands"][label] == "python3 perfbench/run.py --workload closed-form --seed 7 --seconds 5"
    wall = bench["summary"][f"{label}:closed-form.norm_wall_s"]
    assert wall["parent"] == PARENT_WALLS and wall["change"] == CHANGE_WALLS
    # numpy's linear percentiles, rounded
    q = np.round(np.percentile(PARENT_WALLS, [25, 50, 75]), 4).tolist()
    assert wall["parent_q1_median_q3"] == q
    assert wall["parent_iqr"] == round(q[2] - q[0], 4)
    assert wall["change_wins"] == 4
    # lower RSS wins, a tie does not; a higher pass_rate would
    assert bench["summary"][f"{label}:closed-form.peak_rss_mb"]["change_wins"] == 1
    assert bench["summary"][f"{label}:closed-form.pass_rate"]["change_wins"] == 0


def test_a_second_label_joins_an_existing_file(tmp_path, checkouts):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"note": "kept", "summary": {"other:x.y": {"change_wins": 1}}}))
    argv = [*map(str, checkouts), "--workload", "sweep", "--seed", "123", "--seconds", "1", "--pairs", "1"]
    assert _tool().main([*argv, "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["note"] == "kept"
    assert sorted(bench["summary"]) == [
        "other:x.y", "seed123_sweep:sweep.norm_wall_s", "seed123_sweep:sweep.pass_rate",
        "seed123_sweep:sweep.peak_rss_mb",
    ]
    assert bench["summary"]["seed123_sweep:sweep.norm_wall_s"]["parent_q1_median_q3"] == [0.113] * 3


def test_a_run_without_a_json_line_stops_the_tool(tmp_path, checkouts):
    (checkouts[1] / "perfbench" / "run.py").write_text("import sys\nprint('no json')\nsys.exit(2)\n")
    argv = [*map(str, checkouts), "--workload", "sweep", "--seed", "7", "--seconds", "1", "--pairs", "1"]
    with pytest.raises(SystemExit, match="no JSON last line"):
        _tool().main([*argv, "--out", str(tmp_path / "BENCH.json")])
    assert not (tmp_path / "BENCH.json").exists()
