"""Experiment configuration and run manifests.

Configs are plain JSON with nested sections.  Loading is strict: unknown keys
at any level are errors, and each scenario validates the numeric ranges it
depends on before anything runs.  ``write_manifest`` records what a run
wrote (config snapshot and hash, version, timestamps, per-file checksums,
seed ledger) so outputs can be audited and replays compared; ``write_csv``
and ``write_json`` are the byte-stable writers of every data file.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__ as _version, rng
from .gaussian import COVARIANCE_FLOOR
from .tasks import TaskPair, make_task_pair
from .transport import StepKind, StepRule, contraction_rates

SCENARIO_NAMES = (
    "esl-gap",
    "rank-decay",
    "threshold-sweep",
    "composition-check",
    "proxy-probe",
)

UNIT_CONVENTION = (
    "entropy in nats; per-step sigma dimensionless; runs compared against the "
    "transport floor W2^2/2 over a unit time horizon (n_steps * step_size <= 1)"
)


# The most steps one threshold-sweep cell may take in a phase: phase 1's k1
# and each phase-2 stage's ``sweep.phase2_step_limit``.  It bounds the run's
# work per cell, which validation checks before anything is allocated.
STEP_BUDGET = 100_000


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
        cfg = _build(cls, payload, "config")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check the fields the scenario reads, on the tasks its run steps on."""
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(
                f"scenario: {self.scenario!r} not one of {list(SCENARIO_NAMES)}"
            )
        if self.master_seed < 0:  # every run's seed ledger records it
            raise ConfigError("master_seed: must be >= 0")
        getattr(self, f"_validate_{self.scenario.replace('-', '_')}")()

    def _require_stable(self, lam_max: float) -> None:
        try:
            self.rule.require_stable(lam_max)
        except ValueError as exc:
            raise ConfigError(f"rule.{exc}") from exc

    def _require_positive_thresholds(self, *names: str) -> None:
        for name in names:
            if not getattr(self.thresholds, name) > 0:
                raise ConfigError(f"thresholds.{name}: must be > 0")

    def _task_pair(self, spectrum_b_on_a, **kwargs) -> TaskPair:
        """The task pair a run builds, so that building it cannot fail later."""
        try:
            return make_task_pair(
                self.dim, self.k_a, spectrum_b_on_a, self.pair.rotation_seed, **kwargs
            )
        except ValueError as exc:
            raise ConfigError(f"{self.scenario}: {exc}") from exc

    def decaying_pair(self) -> TaskPair:
        """rank-decay and proxy-probe's pair, built alike by validation and the run."""
        if self.n_steps < 1:
            raise ConfigError("n_steps: must be >= 1")
        if self.rule.kind is not StepKind.GRADIENT_DESCENT or self.rule.weight_decay <= 0:
            raise ConfigError(f"{self.scenario}: needs gradient_descent with weight_decay > 0")
        self._require_positive_thresholds("tau_sigma")
        pair = self._task_pair(self.pair.spectrum_b_on_a, a_spectrum=self.pair.a_spectrum)
        self._require_stable(max(pair.a_spectrum))
        return pair

    def _validate_esl_gap(self) -> None:
        t = self.thermo
        if self.n_steps < 1:
            raise ConfigError("n_steps: must be >= 1")
        if self.rule.kind is not StepKind.LANGEVIN:
            raise ConfigError("esl-gap: rule.kind must be langevin")
        if self.rule.noise_scale <= 0:
            raise ConfigError("esl-gap: rule.noise_scale is the temperature and must be > 0")
        if len(t.start_mean) != len(t.hessian_spectrum):
            raise ConfigError("esl-gap: start_mean and hessian_spectrum lengths differ")
        if not t.hessian_spectrum or min(t.hessian_spectrum) <= 0:
            raise ConfigError("esl-gap: hessian_spectrum must be nonempty and positive definite")
        if not t.start_cov_scale >= COVARIANCE_FLOOR:
            raise ConfigError(f"esl-gap: start_cov_scale must be >= {COVARIANCE_FLOOR:.1e}")
        if t.n_geodesic_steps < 2:
            raise ConfigError("esl-gap: n_geodesic_steps must be >= 2")
        horizon = self.n_steps * self.rule.step_size
        if horizon > 1.0 + 1e-12:
            raise ConfigError(
                f"esl-gap: n_steps * step_size = {horizon:.4f} exceeds the unit-time "
                "horizon the transport floor is stated for"
            )
        self._require_stable(max(t.hessian_spectrum))

    def _validate_rank_decay(self) -> None:
        pair = self.decaying_pair()
        # the preserved rate, signed, and the normals' magnitudes: the summary
        # takes logs of the top rate and of the bottom-to-top ratio, so the
        # rates must stay inside (0, 1) and apart, by a margin above roundoff
        rates = contraction_rates(pair, self.rule)
        rates[self.k_a :] = np.abs(rates[self.k_a :])
        lo, hi, margin = float(rates.min()), float(rates.max()), 1e-9
        if not (margin < lo and hi < 1.0 - margin and hi - lo > margin):
            raise ConfigError(f"rank-decay: contraction rates {lo!r}..{hi!r} not apart in (0, 1)")

    def _validate_threshold_sweep(self) -> None:
        s = self.sweep
        eta = self.rule.step_size
        if self.rule != StepRule(step_size=eta):
            raise ConfigError(
                "threshold-sweep: cells step with plain gradient_descent; "
                "rule may set only step_size"
            )
        if not s.m_b_targets or not s.usable_targets:
            raise ConfigError("threshold-sweep: sweep grids must be nonempty")
        if any(not 0 <= m <= self.k_a for m in s.m_b_targets):
            raise ConfigError("threshold-sweep: m_b_targets must lie in [0, k_a]")
        if any(not 0 <= u <= self.k_a for u in s.usable_targets):
            raise ConfigError("threshold-sweep: usable_targets must lie in [0, k_a]")
        # the rate phase 1's k1 takes the log of, as the run rounds it
        if not 0.0 < 1.0 - eta * s.collapse_strength < 1.0:
            raise ConfigError(
                "threshold-sweep: 1 - eta * collapse_strength must be in (0, 1) for "
                "monotone contraction"
            )
        if s.settle_steps < 1 or s.phase2_step_limit < 1:
            raise ConfigError("threshold-sweep: step counts must be >= 1")
        # the run reads the first four, its check reads epsilon_high
        self._require_positive_thresholds(
            "tau_sigma", "epsilon_a", "epsilon_b", "epsilon_low", "epsilon_high"
        )
        k1 = self.sweep_phase1_steps()
        if k1 > STEP_BUDGET:
            raise ConfigError(
                f"threshold-sweep: phase 1 takes k1 = {k1} steps per cell, above the "
                f"step budget of {STEP_BUDGET}; raise sweep.collapse_strength"
            )
        if s.phase2_step_limit > STEP_BUDGET:
            raise ConfigError(
                f"sweep.phase2_step_limit: {s.phase2_step_limit} is above the step "
                f"budget of {STEP_BUDGET}"
            )
        # cells differ only in rotation and demand: the largest demand builds
        # the stiffest task B, and every cell's task A has the default spectrum
        m = max(s.m_b_targets)
        pair = self._task_pair((1.0,) * m + (0.0,) * (self.k_a - m), tilt=s.tilt)
        self._require_stable(max(*pair.a_spectrum, pair.task_b.lam_max))

    def sweep_phase1_steps(self) -> int:
        """threshold-sweep's phase-1 step count k1, the same in every cell: the
        steps the anchored rate 1 - eta * collapse_strength takes to fall to
        ``tau_sigma``, and at least ``sweep.settle_steps``."""
        contraction = 1.0 - self.rule.step_size * self.sweep.collapse_strength
        k1 = int(math.ceil(math.log(self.thresholds.tau_sigma) / math.log(contraction)))
        return max(k1, self.sweep.settle_steps)

    def _validate_composition_check(self) -> None:
        # the trials draw their own tasks and step with fixed rules
        if self.dim < 2:
            raise ConfigError("dim: must be >= 2")
        if self.n_trials < 1:
            raise ConfigError("n_trials: must be >= 1")

    def _validate_proxy_probe(self) -> None:
        self.decaying_pair()
        if self.probe.checkpoint_every < 1 or self.probe.checkpoint_every > self.n_steps:
            raise ConfigError("probe.checkpoint_every: must be in [1, n_steps]")
        if self.probe.n_probe_samples < 2:
            raise ConfigError("probe.n_probe_samples: must be >= 2")
        if self.probe.probe_noise < 0:
            raise ConfigError("probe.probe_noise: must be >= 0")


def default_config(scenario: str) -> ExperimentConfig:
    """Per-scenario defaults matching the documented desk-scale experiments."""
    if scenario == "esl-gap":
        cfg = ExperimentConfig(
            scenario=scenario,
            dim=2,
            k_a=1,
            n_steps=20,
            rule=StepRule(kind=StepKind.LANGEVIN, step_size=0.05, noise_scale=0.5),
            pair=PairConfig(spectrum_b_on_a=(1.0,)),
        )
    elif scenario == "rank-decay":
        cfg = ExperimentConfig(
            scenario=scenario,
            n_steps=1400,
            rule=StepRule(step_size=0.1, weight_decay=0.1),
        )
    elif scenario == "threshold-sweep":
        cfg = ExperimentConfig(
            scenario=scenario,
            pair=PairConfig(spectrum_b_on_a=(1.0,) * 8),
        )
    elif scenario == "composition-check":
        cfg = ExperimentConfig(scenario=scenario)
    elif scenario == "proxy-probe":
        # weight decay close to the task curvatures keeps the whole run inside
        # float's resolvable dynamic range, so the probe's shape is not an
        # artifact of roundoff leaking the preserved directions
        cfg = ExperimentConfig(
            scenario=scenario,
            n_steps=270,
            rule=StepRule(step_size=0.1, weight_decay=0.5),
            probe=ProbeConfig(checkpoint_every=4),
        )
    else:
        raise ConfigError(f"scenario: {scenario!r} not one of {list(SCENARIO_NAMES)}")
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
    Path(path).write_text(
        json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


def format_float(x) -> str:
    """Shortest round-trip decimal form, used for every CSV float so that
    replays are byte-identical."""
    if isinstance(x, str):
        if "," in x or '"' in x or "\n" in x:
            raise ValueError(f"write_csv: field {x!r} needs quoting, which the byte-stable format avoids")
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# Field types whose repr is already format_float's form.  bool is not one
# (repr(True) is "True"), nor is any numpy scalar ("np.float64(0.5)").
_REPR_FIELDS = frozenset((int, float))


# Lines write_csv joins into one write: a table's rows reach the file a chunk
# at a time, and no string of a whole long table is built.
_CSV_CHUNK_LINES = 256


def _csv_lines(header, rows):
    """The header's line, then each row's, without line ends."""
    yield ",".join(header)
    for row in rows:
        # a row of plain ints and floats takes repr in one pass over the row
        fmt = repr if _REPR_FIELDS.issuperset(map(type, row)) else format_float
        yield ",".join(map(fmt, row))


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as one comma-joined line,
    every field in ``format_float``'s form, ``_CSV_CHUNK_LINES`` lines at a
    time to the open file.  A field that cannot be written, such as a string
    that would need quoting, raises after removing the partial file: a
    failed write leaves no file at ``path``."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as f:
            lines = _csv_lines(header, rows)
            while chunk := list(islice(lines, _CSV_CHUNK_LINES)):
                f.write("\n".join(chunk) + "\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
