"""Report which CSV columns and summary fields changed between two output
trees, and by how much.

    python3 tools/column_diff.py OLD_DIR NEW_DIR

For every ``*.csv`` and ``summary.json`` at the same relative path under both
directories, prints one line per column with at least one changed field:

    <file> <column> <n changed> <max abs change>

A ``summary.json`` is read as a table of one row, its keys the header and
each value's JSON text a field, so a changed key prints ``<file> <key> 1 ...``.

A field counts as changed when its text differs.  The largest absolute
change is taken over the changed fields that parse as finite floats on both
sides; a changed field that does not (``True``/``False``, text, ``nan``,
``inf``, ``null``, a list) is flagged by a trailing ``non-numeric=<count>``, and the maximum
reads ``-`` if no changed field is numeric.  A file whose header or row
count (for a summary, whose keys) differ gets a single ``<file> * shape
differs`` line, and a file present in only one tree a ``<file> * only in
OLD|NEW`` line.

Trees to compare come from ``tools/data_digests.py OUT_DIR``, run in each
checkout.  Exits 0 when nothing differs and 1 otherwise.  Standard library
only.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _read(path: Path) -> list[list[str]]:
    if path.suffix == ".json":
        summary = json.loads(path.read_text())
        return [list(summary), [json.dumps(value) for value in summary.values()]]
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _outputs(root: Path) -> set[Path]:
    patterns = ("*.csv", "summary.json")
    return {p.relative_to(root) for pattern in patterns for p in root.rglob(pattern)}


def _finite(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def column_changes(old: list[list[str]], new: list[list[str]]) -> list[tuple] | None:
    """(column, n changed, max abs change or None, n non-numeric) for each
    changed column; None when the header or row count differs."""
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return None
    changes = []
    for j, name in enumerate(old[0]):
        n_changed = n_text = 0
        largest = None
        for row_old, row_new in zip(old[1:], new[1:]):
            a, b = row_old[j], row_new[j]
            if a == b:
                continue
            n_changed += 1
            x, y = _finite(a), _finite(b)
            if x is None or y is None:
                n_text += 1
            else:
                largest = max(abs(y - x), largest or 0.0)
        if n_changed:
            changes.append((name, n_changed, largest, n_text))
    return changes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: column_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_root, new_root = (Path(a) for a in argv)
    old_files, new_files = _outputs(old_root), _outputs(new_root)
    differs = False
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            print(f"{rel} * only in {'OLD' if rel in old_files else 'NEW'}")
            differs = True
            continue
        changes = column_changes(_read(old_root / rel), _read(new_root / rel))
        if changes is None:
            print(f"{rel} * shape differs")
            differs = True
            continue
        for name, n_changed, largest, n_text in changes:
            line = f"{rel} {name} {n_changed} {'-' if largest is None else f'{largest:.3e}'}"
            print(line + (f" non-numeric={n_text}" if n_text else ""))
            differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
