"""tools/column_diff.py on small synthetic output trees."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "column_diff.py"
_spec = importlib.util.spec_from_file_location("column_diff", _TOOL)
column_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(column_diff)

BASE = {
    "default/esl-gap/dynamics.csv": "step,sigma,flag\n0,0.0,true\n1,0.25,false\n2,0.125,false\n",
    "7/rank-decay/rank_decay.csv": "step,sv_0\n0,1.0\n1,0.5\n",
    "default/esl-gap/summary.json": '{"n_steps": 40, "slack": 1.2e-12, "ok": true}',
}


def _tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _diff(tmp_path, new_files: dict, capsys) -> tuple[int, list[str]]:
    old = _tree(tmp_path / "old", BASE)
    new = _tree(tmp_path / "new", new_files)
    code = column_diff.main([str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees(tmp_path, capsys):
    assert _diff(tmp_path, BASE, capsys) == (0, [])


def test_moved_numeric_column(tmp_path, capsys):
    moved = dict(
        BASE,
        **{"default/esl-gap/dynamics.csv": "step,sigma,flag\n0,0.0,true\n1,0.5,false\n2,0.0,false\n"},
    )
    assert _diff(tmp_path, moved, capsys) == (1, ["default/esl-gap/dynamics.csv sigma 2 2.500e-01"])


@pytest.mark.parametrize(
    "rel, text, line",
    [
        (
            "default/esl-gap/dynamics.csv",
            "step,sigma,flag\n0,0.0,false\n1,0.25,false\n2,0.125,false\n",
            "default/esl-gap/dynamics.csv flag 1 - non-numeric=1",
        ),
        (
            "7/rank-decay/rank_decay.csv",
            "step,sv_0\n0,1.0\n1,0.5\n2,0.25\n",
            "7/rank-decay/rank_decay.csv * shape differs",
        ),
        (
            "7/rank-decay/rank_decay.csv",
            "step,sv_1\n0,1.0\n1,0.5\n",
            "7/rank-decay/rank_decay.csv * shape differs",
        ),
        ("21/proxy-probe/proxy.csv", "step,pr\n0,1.0\n", "21/proxy-probe/proxy.csv * only in NEW"),
    ],
    ids=["non-numeric", "row-count", "header", "only-in-new"],
)
def test_flagged_differences(tmp_path, capsys, rel, text, line):
    assert _diff(tmp_path, dict(BASE, **{rel: text}), capsys) == (1, [line])


def test_moved_summary_fields(tmp_path, capsys):
    moved = dict(
        BASE,
        **{"default/esl-gap/summary.json": '{"n_steps": 40, "slack": 5e-14, "ok": false}'},
    )
    assert _diff(tmp_path, moved, capsys) == (
        1,
        [
            "default/esl-gap/summary.json slack 1 1.150e-12",
            "default/esl-gap/summary.json ok 1 - non-numeric=1",
        ],
    )


def test_file_only_in_old(tmp_path, capsys):
    fewer = {k: v for k, v in BASE.items() if "rank-decay" not in k}
    assert _diff(tmp_path, fewer, capsys) == (1, ["7/rank-decay/rank_decay.csv * only in OLD"])
