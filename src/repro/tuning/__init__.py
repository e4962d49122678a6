"""Schedule auto-tuning (paper Sec. IV): design space, measurement harness,
cost-model features, boosted trees, simulated annealing, and the four
tuning methods of Table II."""

from .cache import (
    MeasurementCache,
    compiler_version_hash,
    gpu_fingerprint,
    measurement_key,
)
from .features import FEATURE_NAMES, featurize, featurize_batch
from .fleet import FleetTelemetry, fleet_sweep
from .gbt import GradientBoostedTrees, RegressionTree
from .measure import FAILED, Measurer, MeasureTelemetry
from .record import TrialRecord, TuneHistory, best_in_top_k
from .sa import SimulatedAnnealingSampler
from .space import (
    SUBSPACES,
    SpaceOptions,
    clear_space_caches,
    enumerate_space,
    restrict_space,
)
from .tuners import (
    AnalyticalOnlyTuner,
    GridSearchTuner,
    ModelAssistedXGBTuner,
    RandomSearchTuner,
    Tuner,
    XGBTuner,
    analytical_rank,
)

__all__ = [
    "MeasurementCache",
    "MeasureTelemetry",
    "compiler_version_hash",
    "gpu_fingerprint",
    "measurement_key",
    "FEATURE_NAMES",
    "featurize",
    "featurize_batch",
    "FleetTelemetry",
    "fleet_sweep",
    "GradientBoostedTrees",
    "RegressionTree",
    "FAILED",
    "Measurer",
    "TrialRecord",
    "TuneHistory",
    "best_in_top_k",
    "SimulatedAnnealingSampler",
    "SUBSPACES",
    "SpaceOptions",
    "clear_space_caches",
    "enumerate_space",
    "restrict_space",
    "AnalyticalOnlyTuner",
    "GridSearchTuner",
    "ModelAssistedXGBTuner",
    "RandomSearchTuner",
    "Tuner",
    "XGBTuner",
    "analytical_rank",
]
