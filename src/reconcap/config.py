"""Experiment configuration: parsing, type checks, sections and writers.

Configs are plain JSON with nested sections.  Loading is strict: unknown keys
at any level and values of the wrong type are errors, and then the
scenario's record (``scenarios.SCENARIOS``) validates the numeric ranges its
run depends on before anything runs.  ``write_manifest`` writes a run's
``manifest.json`` (config snapshot and hash, version, timestamps, per-file
checksums, seed ledger) so outputs can be audited and replays compared;
``write_csv`` and ``write_json`` are the byte-stable writers of every data
file.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__ as _version, rng
from .transport import StepRule

UNIT_CONVENTION = (
    "entropy in nats; per-step sigma dimensionless; runs compared against the "
    "transport floor W2^2/2 over a unit time horizon (n_steps * step_size <= 1)"
)


class ConfigError(ValueError):
    """Configuration rejected before any computation started."""


def _check_type(hint, value, where: str) -> None:
    """Reject a JSON value that does not match a field annotation: ints are
    never bools or floats, floats are finite numbers, tuples are lists whose
    entries follow the same rules, and an optional field may be null."""
    if isinstance(hint, types.UnionType):
        if value is None:
            return
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if isinstance(hint, type) and issubclass(hint, str):  # a str-valued enum
        hint = str
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        for i, x in enumerate(value):
            _check_type(typing.get_args(hint)[0], x, f"{where}[{i}]")
        return
    if hint is float:
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            ok = False
        want = "finite float"
    else:
        ok = isinstance(value, hint) and not isinstance(value, bool)
        want = hint.__name__
    if not ok:
        raise ConfigError(f"{where}: expected {want}, got {value!r}")


def _build(cls, payload: dict, context: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{context}: expected an object, got {type(payload).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in payload.items():
        where = name if cls is ExperimentConfig else f"{context}.{name}"
        if is_dataclass(hints[name]):
            kwargs[name] = _build(hints[name], value, where)
        else:
            _check_type(hints[name], value, where)
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a section that checks itself, such as StepRule
        raise ConfigError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class PairConfig:
    spectrum_b_on_a: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    a_spectrum: tuple[float, ...] | None = None
    rotation_seed: int = 7

    def __post_init__(self):
        object.__setattr__(self, "spectrum_b_on_a", tuple(float(x) for x in self.spectrum_b_on_a))
        if self.a_spectrum is not None:
            object.__setattr__(self, "a_spectrum", tuple(float(x) for x in self.a_spectrum))


@dataclass(frozen=True)
class SweepConfig:
    m_b_targets: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8)
    usable_targets: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8)
    collapse_strength: float = 0.9
    settle_steps: int = 200
    phase2_step_limit: int = 2000
    offset_scale: float = 1.0
    tilt: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m_b_targets", tuple(int(x) for x in self.m_b_targets))
        object.__setattr__(self, "usable_targets", tuple(int(x) for x in self.usable_targets))


@dataclass(frozen=True)
class ThermoConfig:
    start_mean: tuple[float, ...] = (2.0, -1.5)
    start_cov_scale: float = 0.02
    hessian_spectrum: tuple[float, ...] = (2.0, 0.5)
    n_geodesic_steps: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "start_mean", tuple(float(x) for x in self.start_mean))
        object.__setattr__(self, "hessian_spectrum", tuple(float(x) for x in self.hessian_spectrum))


@dataclass(frozen=True)
class ProbeConfig:
    checkpoint_every: int = 20
    n_probe_samples: int = 256
    probe_noise: float = 0.0


@dataclass(frozen=True)
class ThresholdConfig:
    tau_sigma: float = 1e-3
    epsilon_a: float = 1e-6
    epsilon_b: float = 1e-4
    epsilon_low: float = 1e-6
    epsilon_high: float = 1e-2


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "composition-check"
    dim: int = 16
    k_a: int = 8
    n_steps: int = 2000
    n_trials: int = 1000
    master_seed: int = 2024
    output_dir: str = "runs"
    rule: StepRule = field(default_factory=StepRule)
    pair: PairConfig = field(default_factory=PairConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    thermo: ThermoConfig = field(default_factory=ThermoConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)

    def to_dict(self) -> dict:
        d = asdict(self)
        # tuples are a construction detail; the file format uses lists
        return json.loads(json.dumps(d))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """A config from parsed JSON: its keys and value types, then ``validate``."""
        cfg = _build(cls, payload, "config")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check the fields the scenario reads, by its record's ``validate``."""
        scenario = _scenario(self.scenario)
        if self.master_seed < 0:  # every run's seed ledger records it
            raise ConfigError("master_seed: must be >= 0")
        scenario.validate(self)


def _scenario(name: str):
    """The ``scenarios.Scenario`` record named ``name``."""
    from .scenarios import SCENARIOS  # the records import this module

    if name not in SCENARIOS:
        raise ConfigError(f"scenario: {name!r} not one of {list(SCENARIOS)}")
    return SCENARIOS[name]


def default_config(scenario: str) -> ExperimentConfig:
    """The validated default config of ``scenario``, held by its record."""
    cfg = _scenario(scenario).default
    cfg.validate()
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, rejecting a key given twice (json.loads
    alone would keep its last value)."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def load_config(path) -> ExperimentConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a UnicodeDecodeError, JSONDecodeError or duplicate key
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(payload)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(cfg: ExperimentConfig, out: Path, names, started_at: str) -> None:
    """Write ``manifest.json`` into ``out``, the audit envelope of one run:
    config snapshot and hash, version, timestamps, the sha256 of each file
    in ``names`` and the seed ledger.  The timestamps make the manifest
    itself vary between runs; determinism claims cover the data files, whose
    checksums recorded here must match across replays."""
    write_json(out / "manifest.json", {
        "artifact_version": _version,
        "config": cfg.to_dict(),
        "config_sha256": config_hash(cfg),
        "files": {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names},
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "seed_ledger": {
            "master_seed": cfg.master_seed,
            "chunk_steps": rng.CHUNK_STEPS,
            "streams": {
                name.removeprefix("STREAM_").lower(): tag
                for name, tag in vars(rng).items()
                if name.startswith("STREAM_")
            },
        },
        "started_at": started_at,
        "unit_convention": UNIT_CONVENTION,
    })


# Rows write_csv formats and writes at a time: a table reaches the file a
# block at a time, and no string of a whole long table is built.
_CSV_BLOCK_ROWS = 256


def _fields(column) -> list:
    """A column's values as CSV fields: ``true``/``false`` for a bool
    column, a string column as is, and otherwise each value's ``repr``, the
    shortest decimal that round-trips a float, so replays are byte-identical."""
    values = column.tolist()
    if column.dtype.kind == "b":
        return ["true" if v else "false" for v in values]
    if column.dtype.kind != "U":
        return list(map(repr, values))
    for v in values:
        if "," in v or '"' in v or "\n" in v:
            raise ValueError(f"write_csv: field {v!r} needs quoting, which the byte-stable format avoids")
    return values


def write_csv(path, header, columns) -> None:
    """Write ``header`` as one comma-joined line, then the rows of
    ``columns``, one 1-D array per header name, ``_CSV_BLOCK_ROWS`` rows at a
    time to the open file, each field in ``_fields``' form.  A table that
    cannot be written, a string that would need quoting or a column shorter
    than the others, raises after removing the partial file: a failed write
    leaves no file at ``path``."""
    path = Path(path)
    n_rows = max(map(len, columns), default=0)
    try:
        with path.open("w", encoding="utf-8") as f:
            f.write(",".join(header) + "\n")
            for start in range(0, n_rows, _CSV_BLOCK_ROWS):
                block = (_fields(c[start : start + _CSV_BLOCK_ROWS]) for c in columns)
                f.write("".join(",".join(row) + "\n" for row in zip(*block, strict=True)))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
