"""Deep Validation: runtime validation of a DNN classifier's internal states.

The paper's primary contribution (Section III-B). A trained classifier's
hidden layers are instrumented with probes; per (layer, class) one-class
SVMs fitted on training-image representations model each layer's valid input
region; at inference the signed distance of the test representation to the
predicted class's hyperplane is negated into a per-layer discrepancy, and
the unweighted sum over layers is the joint discrepancy used to flag
error-inducing corner cases.
"""

from repro.core.checkpoint import (
    CheckpointIntegrityError,
    CheckpointStore,
    TaskJournal,
    default_checkpoint_store,
)
from repro.core.fitting import (
    HungWorkerError,
    ParallelFitWarning,
    default_fit_jobs,
    fit_validators_from_arrays,
    resolve_n_jobs,
    resolve_task_timeout,
)
from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig
from repro.core.thresholds import centroid_threshold, fpr_calibrated_threshold
from repro.core.monitor import RuntimeMonitor, ValidationVerdict
from repro.core.resilience import (
    CircuitBreaker,
    DegradedModeWarning,
    InputGuard,
)
from repro.core.weighting import (
    fit_auc_greedy_weights,
    fit_logistic_weights,
    weighted_auc,
)
from repro.core.selection import (
    SelectionStep,
    greedy_layer_selection,
    smallest_subset_reaching,
)
from repro.core.drift import DiscrepancyDriftMonitor, DriftState
from repro.core.bundle import (
    BundleError,
    BundleIntegrityError,
    BundleManifest,
    BundleStore,
    BundleValidationError,
    ValidatorBundle,
)
from repro.core.calibration import (
    IsotonicCalibrator,
    PlattCalibrator,
    expected_calibration_error,
)

__all__ = [
    "CheckpointIntegrityError",
    "CheckpointStore",
    "TaskJournal",
    "default_checkpoint_store",
    "HungWorkerError",
    "ParallelFitWarning",
    "default_fit_jobs",
    "fit_validators_from_arrays",
    "resolve_n_jobs",
    "resolve_task_timeout",
    "DeepValidator",
    "LayerValidator",
    "ValidatorConfig",
    "centroid_threshold",
    "fpr_calibrated_threshold",
    "RuntimeMonitor",
    "ValidationVerdict",
    "CircuitBreaker",
    "DegradedModeWarning",
    "InputGuard",
    "fit_logistic_weights",
    "fit_auc_greedy_weights",
    "weighted_auc",
    "SelectionStep",
    "greedy_layer_selection",
    "smallest_subset_reaching",
    "DiscrepancyDriftMonitor",
    "DriftState",
    "BundleError",
    "BundleIntegrityError",
    "BundleManifest",
    "BundleStore",
    "BundleValidationError",
    "ValidatorBundle",
    "PlattCalibrator",
    "IsotonicCalibrator",
    "expected_calibration_error",
]
