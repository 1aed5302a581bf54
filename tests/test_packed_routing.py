"""The packed scorer routes each sample to its predicted class's SVM only.

Algorithm 2 (Eq. 2) scores a sample against the one-class SVM of its
predicted class. ``PackedClassSVMs.discrepancy`` groups a chunk by
predicted class and runs one kernel GEMM per group against that class's
support-vector segment. The spy below pins the routing itself: every
kernel block has exactly ``M_c`` columns and holds only rows predicted
``c``. The hypothesis properties pin its consequence: a sample's
discrepancy depends on nothing else in the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validator import LayerValidator, ValidatorConfig
from repro.svm.packed import PackedClassSVMs

pytestmark = pytest.mark.engine

#: Batch-composition invariance: only float reassociation may differ.
#: A linear one-class SVM's decision is a ~1e-4 difference of O(1) inner
#: products divided by a ~1e-4 ``||w||``, which amplifies a reordered BLAS
#: accumulation to ~1e-10; it is held to the differential tolerance.
INVARIANCE = {"rbf": 1e-12, "poly": 1e-12, "linear": 1e-8}

#: Agreement with the per-class reference loop, as in the differential harness.
TOLERANCE = 1e-8

CLASS_SIZES = (24, 40, 12, 33, 18)


def fitted_layer(seed: int, kernel: str = "rbf", dim: int = 12) -> LayerValidator:
    """A LayerValidator over five Gaussian-blob classes of unequal size."""
    rng = np.random.default_rng(seed)
    reps = [
        rng.normal(loc=klass, scale=1.0 + 0.1 * klass, size=(size, dim))
        for klass, size in enumerate(CLASS_SIZES)
    ]
    labels = [np.full(size, klass) for klass, size in enumerate(CLASS_SIZES)]
    layer = LayerValidator(0, "probe0", ValidatorConfig(nu=0.3, kernel=kernel))
    layer.fit(np.concatenate(reps), np.concatenate(labels), rng=seed)
    return layer


def queries(seed: int, n: int, dim: int = 12) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed + 1)
    features = rng.normal(loc=2.0, scale=2.0, size=(n, dim))
    predicted = rng.integers(0, len(CLASS_SIZES), size=n)
    return features, predicted


class TestRouting:
    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    @pytest.mark.parametrize("chunk_size", [None, 7])
    def test_each_kernel_block_is_one_class(self, monkeypatch, kernel, chunk_size):
        layer = fitted_layer(3, kernel=kernel)
        pack = layer.packed()
        features, predicted = queries(3, 40)
        calls = []
        kernel_block = PackedClassSVMs._kernel_block

        def spy(self, position, group):
            block = kernel_block(self, position, group)
            calls.append((position, group.copy(), block.shape))
            return block

        monkeypatch.setattr(PackedClassSVMs, "_kernel_block", spy)
        pack.discrepancy(features, predicted, chunk_size=chunk_size)

        step = chunk_size or len(features)
        expected = []
        for start in range(0, len(features), step):
            rows = slice(start, start + step)
            for klass in np.unique(predicted[rows]):
                mine = predicted[rows] == klass
                expected.append((klass, features[rows][mine]))
        assert len(calls) == len(expected)
        for (position, group, shape), (klass, rows) in zip(calls, expected):
            assert pack.classes[position] == klass
            n_support = len(layer._svms[int(klass)].support_vectors_)
            assert shape == (len(rows), n_support)
            np.testing.assert_array_equal(group, rows)


class TestBatchIndependence:
    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_shuffle(self, seed, kernel):
        layer = fitted_layer(seed, kernel=kernel)
        features, predicted = queries(seed, 96)
        order = np.random.default_rng(seed + 2).permutation(len(features))
        scores = layer.discrepancy_batched(features, predicted)
        shuffled = layer.discrepancy_batched(features[order], predicted[order])
        np.testing.assert_allclose(
            shuffled, scores[order], atol=INVARIANCE[kernel], rtol=0
        )

    @given(
        seed=st.integers(0, 10_000),
        dropped=st.integers(0, len(CLASS_SIZES) - 1),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_drop_a_class(self, seed, dropped, kernel):
        layer = fitted_layer(seed, kernel=kernel)
        features, predicted = queries(seed, 96)
        kept = predicted != dropped
        scores = layer.discrepancy_batched(features, predicted)
        without = layer.discrepancy_batched(features[kept], predicted[kept])
        np.testing.assert_allclose(
            without, scores[kept], atol=INVARIANCE[kernel], rtol=0
        )

    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_width_one_equals_width_256(self, seed, kernel):
        layer = fitted_layer(seed, kernel=kernel)
        features, predicted = queries(seed, 256)
        wide = layer.discrepancy_batched(features, predicted, chunk_size=256)
        alone = np.concatenate(
            [
                layer.discrepancy_batched(features[i : i + 1], predicted[i : i + 1])
                for i in range(len(features))
            ]
        )
        np.testing.assert_allclose(alone, wide, atol=INVARIANCE[kernel], rtol=0)

    @given(
        seed=st.integers(0, 10_000),
        present=st.integers(0, len(CLASS_SIZES) - 1),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_single_class_batch(self, seed, present, kernel):
        layer = fitted_layer(seed, kernel=kernel)
        features, _ = queries(seed, 48)
        predicted = np.full(len(features), present)
        np.testing.assert_allclose(
            layer.discrepancy_batched(features, predicted),
            layer.discrepancy(features, predicted),
            atol=TOLERANCE,
            rtol=0,
        )
