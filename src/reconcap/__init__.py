"""Reconfiguration capacity toolkit.

Rank diagnostics for learned transport maps, forgetting predicates for task
sequences, and dissipation accounting for Gaussian relaxation, all on
quadratic tasks where the dynamics stay closed-form.
"""

__version__ = "0.7.0"

from .capacity import (
    DEFAULT_TAU_SIGMA,
    CapacityReport,
    ForgettingResult,
    compatible_effective_rank,
    effective_rank,
    measure_forgetting,
    participation_ratio,
    predict_incompatibility,
    reconfiguration_dimension,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    PairConfig,
    ProbeConfig,
    RunManifest,
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
    STREAM_ORACLE,
    STREAM_PROBE,
    STREAM_STEP_NOISE,
    STREAM_TASK,
    normal_draw,
    stream,
)
from .spectral import (
    SubspaceBasis,
    numerical_rank,
    singular_values,
    stable_rank,
)
from .tasks import (
    QuadraticTask,
    TaskPair,
    combine,
    make_task_pair,
    random_rotations,
    restricted_hessian,
    value,
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
    Trajectory,
    compose,
    propagate,
    step_jacobian,
)

__all__ = [
    "CapacityReport",
    "ConfigError",
    "COVARIANCE_FLOOR",
    "DEFAULT_TAU_SIGMA",
    "DissipationLedger",
    "DivergenceError",
    "ExperimentConfig",
    "ForgettingResult",
    "GaussianState",
    "PairConfig",
    "ProbeConfig",
    "QuadraticTask",
    "RunManifest",
    "SCENARIOS",
    "StepKind",
    "StepRule",
    "STREAM_INIT",
    "STREAM_ORACLE",
    "STREAM_PROBE",
    "STREAM_STEP_NOISE",
    "STREAM_TASK",
    "SubspaceBasis",
    "SweepConfig",
    "TaskPair",
    "ThermoConfig",
    "ThresholdConfig",
    "Trajectory",
    "clamped_state",
    "combine",
    "default_config",
    "compatible_effective_rank",
    "compose",
    "effective_rank",
    "entropy",
    "entropy_production_step",
    "esl_slack",
    "free_energy",
    "geodesic_action_ledger",
    "load_config",
    "make_task_pair",
    "measure_forgetting",
    "normal_draw",
    "numerical_rank",
    "ot_geodesic",
    "participation_ratio",
    "predict_incompatibility",
    "propagate",
    "random_rotations",
    "reconfiguration_dimension",
    "restricted_hessian",
    "run_scenario",
    "save_config",
    "simulate_relaxation",
    "singular_values",
    "stable_rank",
    "step_jacobian",
    "stream",
    "value",
    "w2_gaussian",
]
