"""Shared, cached experiment context.

Everything expensive an experiment needs — the trained classifier, the
corner-case suite, the fitted Deep Validator, and a matched clean evaluation
sample — is built once per (dataset, profile, seed) and cached on disk, so
tests, benchmarks, and examples all reuse the same artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.checkpoint import CheckpointStore
from repro.core.fitting import default_fit_jobs
from repro.core.validator import DeepValidator, ValidatorConfig
from repro.corner.suite import CornerCaseSuite, build_corner_case_suite
from repro.utils.cache import ArtifactCache, default_cache
from repro.utils.rng import new_rng
from repro.zoo.recipes import TrainedClassifier, get_trained_classifier

#: Number of rear layers validated on the DenseNet (paper Section IV-C).
DENSENET_REAR_LAYERS = 6

#: Per-profile corner-search scale.
_SUITE_PARAMS = {
    "tiny": {"seed_count": 120, "scan_seeds": 60},
    "bench": {"seed_count": 200, "scan_seeds": 100},
}

_VALIDATOR_PARAMS = {
    "tiny": {"nu": 0.1, "max_per_class": 120},
    "bench": {"nu": 0.1, "max_per_class": 200},
}


def rear_layer_indices(probe_count: int, count: int = DENSENET_REAR_LAYERS) -> list[int]:
    """Indices of the last ``count`` probeable layers."""
    count = min(count, probe_count)
    return list(range(probe_count - count, probe_count))


@dataclass
class ExperimentContext:
    """All shared artifacts for one dataset/profile pair."""

    dataset_name: str
    profile: str
    classifier: TrainedClassifier
    suite: CornerCaseSuite
    validator: DeepValidator
    clean_images: np.ndarray
    clean_labels: np.ndarray

    @property
    def model(self):
        return self.classifier.model

    @property
    def dataset(self):
        return self.classifier.dataset

    def validated_layer_names(self) -> list[str]:
        """Names of the probes the validator covers."""
        names = self.model.probe_names
        return [names[i] for i in self.validator.layer_indices]

    def monitor(self, **kwargs):
        """A fault-tolerant :class:`~repro.core.monitor.RuntimeMonitor`.

        The input guard is pinned to this dataset's per-image shape, so
        malformed traffic is quarantined instead of crashing the forward
        pass; breaker tuning and callbacks pass through via ``kwargs``.
        A fresh monitor is built per call — health counters and breaker
        state belong to the caller, not the cached context.
        """
        from repro.core.monitor import RuntimeMonitor
        from repro.core.resilience import InputGuard

        kwargs.setdefault(
            "guard",
            InputGuard(expected_shape=self.classifier.dataset.train_images.shape[1:]),
        )
        return RuntimeMonitor(self.validator, **kwargs)


def _build_context(
    dataset_name: str, profile: str, seed: int, cache: ArtifactCache
) -> ExperimentContext:
    """Build the context crash-safely.

    The two long stages — classifier training and Algorithm 1 fitting —
    checkpoint under ``<cache root>/.checkpoints/``: training snapshots
    every epoch, fitting journals every completed (layer, class) solve.
    A build killed partway through resumes from those on the next call
    and, because resume is bit-identical, yields exactly the artifacts of
    an uninterrupted build. Once the finished context lands in the
    artifact cache, its intermediate checkpoint state is discarded.
    """
    with obs.span("context.build", dataset=dataset_name, profile=profile):
        checkpoints = CheckpointStore(cache.root / ".checkpoints")
        with obs.span("context.train_classifier"):
            classifier = get_trained_classifier(
                dataset_name, profile, seed=seed, checkpoints=checkpoints
            )
        model = classifier.model
        dataset = classifier.dataset
        suite_params = _SUITE_PARAMS[profile]
        with obs.span("context.corner_suite"):
            suite = build_corner_case_suite(
                model, dataset, rng=seed, **suite_params
            )

        probe_count = len(model.probe_names)
        layers = None
        if dataset_name == "synth-cifar":
            # The paper validates only the rear layers of its DenseNet (IV-C).
            layers = rear_layer_indices(probe_count)
        # Parallel fitting is bit-identical to serial (the determinism suite
        # pins this), so the worker count does not belong in the cache key.
        config = ValidatorConfig(
            layers=layers, seed=seed, n_jobs=default_fit_jobs(),
            **_VALIDATOR_PARAMS[profile],
        )
        validator = DeepValidator(model, config)
        journal = checkpoints.journal(f"fit-{dataset_name}-{profile}-seed{seed}")
        with obs.span("context.fit_validator"):
            validator.fit(dataset.train_images, dataset.train_labels, journal=journal)
        journal.clear()  # the fitted validator lands in the artifact cache

    # Clean evaluation sample, disjoint from the corner-case seeds where
    # possible: the paper samples as many clean test images as corner cases.
    rng = new_rng(seed + 17)
    count = min(len(dataset.test_images), suite.total_corner_cases())
    chosen = rng.choice(len(dataset.test_images), size=count, replace=False)
    return ExperimentContext(
        dataset_name=dataset_name,
        profile=profile,
        classifier=classifier,
        suite=suite,
        validator=validator,
        clean_images=dataset.test_images[chosen],
        clean_labels=dataset.test_labels[chosen],
    )


def get_context(
    dataset_name: str,
    profile: str = "tiny",
    seed: int = 0,
    cache: ArtifactCache | None = None,
) -> ExperimentContext:
    """Load or build the cached experiment context."""
    cache = cache if cache is not None else default_cache()
    config = {"dataset": dataset_name, "profile": profile, "seed": seed, "kind": "context", "v": 2}
    return cache.get_or_build(
        "context", config, lambda: _build_context(dataset_name, profile, seed, cache)
    )
