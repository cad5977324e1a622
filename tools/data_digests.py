"""Print the sha256 of every data file the five scenarios write.

Runs each scenario at its default config and re-seeded at seeds 7 and 21
(``master_seed`` and ``pair.rotation_seed`` set to the seed, validated
again), in a temporary directory, and prints one line per output file
except ``manifest.json``:

    <seed>/<scenario>/<file> <sha256>

where <seed> is ``default``, ``7`` or ``21``.  The package is imported from
the ``src/`` next to this script.  Two checkouts produce identical data
files exactly when this prints the same lines in both:

    python3 tools/data_digests.py > a.txt   # in each checkout, then diff

With a directory argument the output trees are kept there, for
``tools/column_diff.py`` to compare column by column:

    python3 tools/data_digests.py OUT_DIR > a.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reconcap.config import SCENARIO_NAMES, default_config  # noqa: E402
from reconcap.scenarios import run_scenario  # noqa: E402

SEEDS = (None, 7, 21)


def _config(scenario: str, seed: int | None):
    cfg = default_config(scenario)
    if seed is None:
        return cfg
    cfg = dataclasses.replace(
        cfg, master_seed=seed, pair=dataclasses.replace(cfg.pair, rotation_seed=seed)
    )
    cfg.validate()
    return cfg


def write_digests(root: Path) -> None:
    for seed in SEEDS:
        label = "default" if seed is None else str(seed)
        for scenario in SCENARIO_NAMES:
            out = root / label / scenario
            run_scenario(_config(scenario, seed), out_dir=out)
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{label}/{scenario}/{path.name} {digest}")


def main(argv: list[str]) -> None:
    if len(argv) > 1:
        sys.exit("usage: data_digests.py [OUT_DIR]")
    if argv:
        write_digests(Path(argv[0]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            write_digests(Path(tmp))


if __name__ == "__main__":
    main(sys.argv[1:])
