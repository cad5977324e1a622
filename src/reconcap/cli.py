"""Command-line entry point.

Exit codes: 0 success, 1 configuration, usage or I/O error, a float fault
while loading a config, or a config load or run out of memory, 2 numerical
failure (a float fault included) during a run, 3 a --check validation failed.
Errors print as a single machine-parseable line on stderr:
``reconcap-error code=<n> kind=<name> msg=<text>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, default_config, load_config
from .scenarios import SCENARIOS, CheckError, run_scenario
from .transport import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


def _fail(code: int, kind: str, msg: str) -> int:
    text = " ".join(str(msg).split())
    print(f"reconcap-error code={code} kind={kind} msg={text}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error: exit 1 with the one-line format,
        # not argparse's usage dump and exit 2 (the numerical-failure code)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reconcap",
        description="Run capacity, incompatibility, and dissipation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write its outputs")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON experiment config")
    src.add_argument("--scenario", choices=list(SCENARIOS), help="run a scenario with its defaults")
    run.add_argument(
        "--out-dir",
        default=None,
        help="output directory (default: RECONCAP_OUT_DIR or <output_dir>/<scenario>)",
    )
    run.add_argument(
        "--check",
        action="store_true",
        help="validate the scenario's summary after the run",
    )

    val = sub.add_parser("validate", help="parse and validate a config, then exit")
    val.add_argument("config", help="path to a JSON experiment config")

    sub.add_parser("scenarios", help="list available scenarios")
    sub.add_parser("version", help="print the package version")
    return parser


# a float overflow, or an invalid or divide-by-zero result, raises where numpy
# would warn, and leaves through the one-line error instead of extra stderr
@np.errstate(over="raise", invalid="raise", divide="raise")
def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", exc)

    if args.command == "version":
        print(__version__)
        return EXIT_OK

    if args.command == "scenarios":
        print(*SCENARIOS, sep="\n")
        return EXIT_OK

    try:  # validate's config is required, run's is given or a --scenario
        cfg = load_config(args.config) if args.config is not None else default_config(args.scenario)
    except (ConfigError, OSError, FloatingPointError) as exc:
        return _fail(EXIT_CONFIG, "config", exc)
    except MemoryError as exc:
        return _fail(EXIT_CONFIG, "memory", str(exc) or "out of memory")
    if args.command == "validate":
        print(f"ok scenario={cfg.scenario} dim={cfg.dim} seed={cfg.master_seed}")
        return EXIT_OK

    out_dir = args.out_dir or os.environ.get("RECONCAP_OUT_DIR") or None
    try:
        summary = run_scenario(cfg, out_dir=out_dir, check=args.check)
    except CheckError as exc:
        return _fail(EXIT_CHECK, "check", exc)
    except OSError as exc:
        return _fail(EXIT_CONFIG, "config", exc)
    except MemoryError as exc:
        return _fail(EXIT_CONFIG, "memory", str(exc) or "out of memory")
    except (DivergenceError, FloatingPointError, ValueError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERICAL, "numerical", exc)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
