"""Seed-independent deployment fixtures, built once and cached on disk.

Training the two ``tiny`` classifiers and fitting the served validators is
not part of any timed phase: the first run in a checkout builds them into
``perfbench/.cache/`` and every later run reuses them. Only the traffic
(see :mod:`perfbench.inputs`) depends on the ``--seed`` argument.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import BundleStore, DeepValidator, ValidatorBundle, ValidatorConfig
from repro.transforms import Rotation
from repro.utils.cache import ArtifactCache
from repro.zoo import get_trained_classifier

#: Bump when a fixture recipe changes, so stale caches are never reused.
FIXTURE_VERSION = 1

CACHE_DIR = Path(__file__).resolve().parent / ".cache" / f"v{FIXTURE_VERSION}"

#: (bundle name, dataset, validator config) of the two served deployments.
STREAM_BUNDLE = "stream"
BULK_BUNDLE = "bulk"
DEPLOYMENTS = {
    STREAM_BUNDLE: ("synth-mnist", ValidatorConfig(nu=0.1, max_per_class=120)),
    BULK_BUNDLE: ("synth-svhn", ValidatorConfig(nu=0.1, max_per_class=300)),
}

#: The refit workload's validator recipe (default ``n_jobs``).
REFIT_CONFIG = ValidatorConfig(nu=0.1, max_per_class=300)


def classifier(dataset: str):
    """The cached ``tiny`` :class:`~repro.zoo.TrainedClassifier` for ``dataset``."""
    return get_trained_classifier(
        dataset, "tiny", seed=0, cache=ArtifactCache(CACHE_DIR / "artifacts")
    )


def bundle_store() -> BundleStore:
    """The shelf holding the served deployments' bundles (version 1 each)."""
    return BundleStore(CACHE_DIR / "bundles")


def calibrated_validator(trained, config: ValidatorConfig) -> DeepValidator:
    """Fit on the classifier's training set; calibrate on clean vs rotated test images."""
    data = trained.dataset
    validator = DeepValidator(trained.model, config)
    validator.fit(data.train_images, data.train_labels)
    clean = data.test_images[:150]
    corner = Rotation(90.0)(data.test_images[150:300])
    validator.calibrate_threshold(clean, corner)
    return validator


def missing() -> bool:
    """Whether the fixtures still have to be built."""
    return not (CACHE_DIR / "complete").is_file()


def ensure_fixtures() -> None:
    """Build every missing fixture (classifiers, then the two bundles)."""
    store = bundle_store()
    for name, (dataset, config) in DEPLOYMENTS.items():
        trained = classifier(dataset)
        if not store.exists(name, 1):
            validator = calibrated_validator(trained, config)
            store.save(ValidatorBundle.pack(validator, version=1, name=name))
    (CACHE_DIR / "complete").touch()


if __name__ == "__main__":
    ensure_fixtures()
