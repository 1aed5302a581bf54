"""Shared fixtures.

Heavy artifacts (trained classifiers, corner-case suites) come from the
on-disk cache via session-scoped fixtures, so the full test run trains each
model at most once ever.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.utils.warnings_ import STRICT_ENV
from tests.helpers import make_tiny_model, train_tiny_model

# Property tests — fault-plan generation in particular — must draw and
# shrink identically on every run and every machine: derandomize seeds the
# generator from each test's source, and disabling the example database
# keeps previously-found failures from steering later runs.
settings.register_profile("repro-deterministic", derandomize=True, database=None)
settings.load_profile("repro-deterministic")


@pytest.fixture()
def strict_off(monkeypatch):
    """Pin ``REPRO_STRICT`` off for a test of the degraded path.

    Strict mode turns every degradation warning into a raise, so a test
    that checks what degraded scoring returns must run with it off, even
    in a strict-mode CI job.
    """
    monkeypatch.setenv(STRICT_ENV, "0")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_model():
    """A small untrained probed CNN over 1×12×12 inputs."""
    return make_tiny_model()


@pytest.fixture(scope="session")
def trained_tiny_model():
    """A small probed CNN trained on a trivially separable 3-class task."""
    return train_tiny_model()


@pytest.fixture(scope="session")
def mnist_context():
    from repro.experiments.context import get_context

    return get_context("synth-mnist", "tiny", seed=0)


@pytest.fixture(scope="session")
def svhn_context():
    from repro.experiments.context import get_context

    return get_context("synth-svhn", "tiny", seed=0)


@pytest.fixture(scope="session")
def cifar_context():
    from repro.experiments.context import get_context

    return get_context("synth-cifar", "tiny", seed=0)
