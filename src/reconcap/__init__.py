"""Reconfiguration capacity toolkit.

Rank diagnostics for learned transport maps, incompatibility predictions for
task sequences, and dissipation accounting for Gaussian relaxation, all on
quadratic tasks where the dynamics stay closed-form.
"""

__version__ = "0.27.0"

from .capacity import (
    CapacityReport,
    compatible_effective_rank,
    effective_rank,
    participation_ratio,
    predict_incompatibility,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    PairConfig,
    ProbeConfig,
    SweepConfig,
    ThermoConfig,
    ThresholdConfig,
    default_config,
    load_config,
    save_config,
)
from .gaussian import COVARIANCE_FLOOR, GaussianState, clamped_state
from .rng import (
    STREAM_INIT,
    STREAM_PROBE,
    STREAM_STEP_NOISE,
    STREAM_TASK,
    stream,
)
from .spectral import (
    SubspaceBasis,
    singular_values,
    stable_rank,
)
from .tasks import (
    QuadraticTask,
    TaskPair,
    make_task_pair,
    random_rotations,
    restricted_hessian,
)
from .thermo import (
    DissipationLedger,
    entropy,
    entropy_production_step,
    esl_slack,
    free_energy,
    geodesic_action_ledger,
    ot_geodesic,
    simulate_relaxation,
    w2_gaussian,
)
from .scenarios import SCENARIOS, run_scenario
from .transport import (
    DivergenceError,
    StepKind,
    StepRule,
    propagate,
    step_powers,
)

__all__ = [
    "CapacityReport",
    "ConfigError",
    "COVARIANCE_FLOOR",
    "DissipationLedger",
    "DivergenceError",
    "ExperimentConfig",
    "GaussianState",
    "PairConfig",
    "ProbeConfig",
    "QuadraticTask",
    "SCENARIOS",
    "StepKind",
    "StepRule",
    "STREAM_INIT",
    "STREAM_PROBE",
    "STREAM_STEP_NOISE",
    "STREAM_TASK",
    "SubspaceBasis",
    "SweepConfig",
    "TaskPair",
    "ThermoConfig",
    "ThresholdConfig",
    "clamped_state",
    "default_config",
    "compatible_effective_rank",
    "effective_rank",
    "entropy",
    "entropy_production_step",
    "esl_slack",
    "free_energy",
    "geodesic_action_ledger",
    "load_config",
    "make_task_pair",
    "ot_geodesic",
    "participation_ratio",
    "predict_incompatibility",
    "propagate",
    "random_rotations",
    "restricted_hessian",
    "run_scenario",
    "save_config",
    "simulate_relaxation",
    "singular_values",
    "stable_rank",
    "step_powers",
    "stream",
    "w2_gaussian",
]
