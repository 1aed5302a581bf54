"""Differential harness: the batched scorer must equal the per-sample path.

The batched scoring path rewrites the numerical core of the
reproduction — stacked support vectors, one Gram block per layer,
segment-wise reductions — so every property here pins its output against
the paper-faithful reference implementation (``LayerValidator.discrepancy``
called one sample at a time) to 1e-8, across random kernels, nu values,
class skews, and degenerate inputs.

Image-level comparisons (``DeepValidator.reference_discrepancies`` vs
``DeepValidator.discrepancies``) use matching forward-pass chunking:
the float32 forward pass is only reproducible for identical batch
splits, and the point of this harness is the scoring math, not conv
GEMM accumulation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig

pytestmark = pytest.mark.engine

TOLERANCE = 1e-8


def fitted_layer_validator(
    seed: int,
    kernel: str = "rbf",
    nu: float = 0.2,
    class_sizes: tuple[int, ...] = (30, 30, 30),
    dim: int = 5,
    standardize: bool = True,
) -> tuple[LayerValidator, np.ndarray]:
    """A LayerValidator fitted on synthetic per-class Gaussian blobs."""
    rng = np.random.default_rng(seed)
    reps, labels = [], []
    for klass, size in enumerate(class_sizes):
        reps.append(
            rng.normal(loc=1.5 * klass, scale=1.0 + 0.2 * klass, size=(size, dim))
        )
        labels.append(np.full(size, klass, dtype=np.int64))
    config = ValidatorConfig(
        nu=nu, kernel=kernel, max_per_class=64, standardize=standardize
    )
    validator = LayerValidator(0, "probe0", config)
    validator.fit(np.concatenate(reps), np.concatenate(labels), rng=seed)
    return validator, rng.normal(loc=1.0, scale=2.0, size=(24, dim))


def per_sample_reference(
    validator: LayerValidator, queries: np.ndarray, predicted: np.ndarray
) -> np.ndarray:
    """The per-sample path: one reference call per individual sample."""
    return np.array(
        [
            validator.discrepancy(queries[i : i + 1], predicted[i : i + 1])[0]
            for i in range(len(queries))
        ]
    )


class TestBatchedEqualsPerSample:
    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
        nu=st.floats(0.05, 0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_kernels_and_nu(self, seed, kernel, nu):
        validator, queries = fitted_layer_validator(seed, kernel=kernel, nu=nu)
        predicted = np.random.default_rng(seed + 1).integers(0, 3, size=len(queries))
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)
        assert np.isfinite(batched).all()

    @given(
        seed=st.integers(0, 10_000),
        small=st.integers(2, 4),
        large=st.integers(50, 120),
        standardize=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_class_skew(self, seed, small, large, standardize):
        # One near-empty class, one dominant class, and predictions biased
        # toward the minority so the gather path sees the skew both ways.
        validator, queries = fitted_layer_validator(
            seed, class_sizes=(small, large, 10), standardize=standardize
        )
        rng = np.random.default_rng(seed + 2)
        predicted = rng.choice([0, 0, 0, 1, 2], size=len(queries))
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)

    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(["rbf", "linear"]))
    @settings(max_examples=20, deadline=None)
    def test_single_support_vector(self, seed, kernel):
        # Degenerate reference distribution: prune class 0's SVM to a single
        # support vector; packing and scoring must survive a length-1 segment.
        validator, queries = fitted_layer_validator(seed, kernel=kernel)
        svm = validator._svms[0]
        svm.support_vectors_ = svm.support_vectors_[:1]
        svm.dual_coef_ = np.array([1.0])
        validator.__dict__.pop("_pack", None)  # rebuild against pruned SVM
        predicted = np.zeros(len(queries), dtype=np.int64)
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)
        assert np.isfinite(batched).all()

    @given(
        seed=st.integers(0, 10_000),
        chunk=st.integers(1, 30),
        present=st.integers(0, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunking_and_absent_classes(self, seed, chunk, present):
        # The batch predicts only one of the three fitted classes (the other
        # segments are dead weight) and is scored through varying chunk
        # sizes; every variant must agree with the whole-batch result.
        validator, queries = fitted_layer_validator(seed)
        predicted = np.full(len(queries), present, dtype=np.int64)
        whole = validator.discrepancy_batched(queries, predicted)
        chunked = validator.discrepancy_batched(queries, predicted, chunk_size=chunk)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(whole, reference, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(chunked, whole, atol=1e-12, rtol=0)

    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-4, 1e4))
    @settings(max_examples=15, deadline=None)
    def test_nan_free_on_extreme_magnitudes(self, seed, scale):
        # RBF scores stay finite (exp underflows to 0, never overflows) even
        # for queries far outside the training distribution.
        validator, queries = fitted_layer_validator(seed)
        predicted = np.random.default_rng(seed).integers(0, 3, size=len(queries))
        batched = validator.discrepancy_batched(queries * scale, predicted)
        reference = per_sample_reference(validator, queries * scale, predicted)
        assert np.isfinite(batched).all()
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)


class TestErrorParity:
    def test_unknown_predicted_class_raises_on_both_paths(self):
        validator, queries = fitted_layer_validator(0)
        predicted = np.full(len(queries), 7, dtype=np.int64)
        with pytest.raises(KeyError, match="predicted class 7"):
            validator.discrepancy(queries, predicted)
        with pytest.raises(KeyError, match="predicted class 7"):
            validator.discrepancy_batched(queries, predicted)

    def test_unfitted_raises_on_both_paths(self):
        validator = LayerValidator(0, "probe0", ValidatorConfig())
        with pytest.raises(RuntimeError):
            validator.discrepancy(np.zeros((1, 3)), np.zeros(1, dtype=np.int64))
        with pytest.raises(RuntimeError):
            validator.discrepancy_batched(np.zeros((1, 3)), np.zeros(1, dtype=np.int64))


class TestEngineAgainstValidator:
    def test_image_level_agreement(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        predictions, reference = validator.reference_discrepancies(test_x)
        # Both paths forward in the same 256-image chunks.
        batched_predictions, batched = validator.discrepancies(test_x)
        np.testing.assert_array_equal(predictions, batched_predictions)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)
        # joint_discrepancy routes through the batched path; pin it against
        # the combined *reference* matrix, not against the batched path.
        np.testing.assert_allclose(
            validator.joint_discrepancy(test_x),
            validator.combine(reference),
            atol=TOLERANCE,
            rtol=0,
        )

    def test_engine_cache_hits_and_flags(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        first = validator.joint_discrepancy(test_x)
        second = validator.joint_discrepancy(test_x)
        np.testing.assert_array_equal(first, second)
        assert validator.score_cache.stats["hits"] >= 1
        np.testing.assert_array_equal(validator.flag(test_x), first > validator.epsilon)

    def test_deployment_helpers_route_through_engine(self, trained_tiny_model):
        # calibrate_threshold / joint_discrepancy / flag all go through the
        # batched path: scores must still match the per-class
        # reference loop at 1e-8, and calibrating then flagging the same
        # images must be a cache hit, not a recompute.
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        noise = np.random.default_rng(3).random((30, 1, 12, 12))

        epsilon = validator.calibrate_threshold(test_x[:30], noise)
        assert validator.score_cache.stats["misses"] == 2  # one per calibration batch
        flags = validator.flag(noise)
        assert validator.score_cache.stats["hits"] >= 1  # a cached replay

        from repro.core.thresholds import centroid_threshold

        clean_ref = validator.combine(validator.reference_discrepancies(test_x[:30])[1])
        noise_ref = validator.combine(validator.reference_discrepancies(noise)[1])
        assert abs(epsilon - centroid_threshold(clean_ref, noise_ref)) < TOLERANCE
        np.testing.assert_array_equal(flags, noise_ref > epsilon)

    def test_engine_survives_pickle_round_trip(self, trained_tiny_model):
        # Cached contexts pickle fitted validators; the score cache and packs
        # are left out and rebuilt after restore, which must score identically.
        import pickle

        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        expected = validator.joint_discrepancy(test_x)
        assert len(validator.score_cache) == 1
        restored = pickle.loads(pickle.dumps(validator))
        assert len(restored.score_cache) == 0
        np.testing.assert_allclose(
            restored.joint_discrepancy(test_x), expected, atol=TOLERANCE
        )


@pytest.fixture(scope="module")
def edge_case_validator(trained_tiny_model):
    """One fitted validator shared by the edge-batch tests below."""
    model, train_x, train_y, _, _ = trained_tiny_model
    validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
    validator.fit(train_x, train_y)
    return validator


class TestEngineEdgeBatches:
    """Serving-shaped inputs: empty windows, singletons, mixed dtypes.

    A monitor whose whole batch was quarantined hands the validator ``n=0``;
    batch-size-1 is the steady state of online monitoring; and producers
    ship float32 or float64 interchangeably. All three must agree with
    the reference path at 1e-8.
    """

    def test_empty_batch(self, edge_case_validator, trained_tiny_model):
        validator = edge_case_validator
        empty = np.empty((0, 1, 12, 12))
        predictions, per_layer = validator.discrepancies(empty)
        ref_predictions, ref_per_layer = validator.reference_discrepancies(empty)
        assert predictions.shape == ref_predictions.shape == (0,)
        assert per_layer.shape == ref_per_layer.shape == (0, 3)
        np.testing.assert_allclose(per_layer, ref_per_layer, atol=TOLERANCE, rtol=0)
        assert validator.joint_discrepancy(empty).shape == (0,)
        assert validator.flag(empty).shape == (0,)

    def test_single_image_batch(self, edge_case_validator, trained_tiny_model):
        validator = edge_case_validator
        _, _, _, test_x, _ = trained_tiny_model
        one = test_x[:1]
        predictions, per_layer = validator.discrepancies(one)
        ref_predictions, ref_per_layer = validator.reference_discrepancies(one)
        np.testing.assert_array_equal(predictions, ref_predictions)
        np.testing.assert_allclose(per_layer, ref_per_layer, atol=TOLERANCE, rtol=0)
        assert per_layer.shape == (1, 3)

    def test_mixed_dtype_inputs_agree(self, edge_case_validator, trained_tiny_model):
        validator = edge_case_validator
        _, _, _, test_x, _ = trained_tiny_model
        batch64 = np.ascontiguousarray(test_x[:16], dtype=np.float64)
        batch32 = np.ascontiguousarray(test_x[:16], dtype=np.float32)
        misses = validator.score_cache.stats["misses"]
        _, from64 = validator.discrepancies(batch64)
        _, from32 = validator.discrepancies(batch32)
        _, reference = validator.reference_discrepancies(batch64)
        # The forward pass casts to float32 either way: both dtypes must
        # match the reference path (and therefore each other) at 1e-8.
        np.testing.assert_allclose(from64, reference, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(from32, reference, atol=TOLERANCE, rtol=0)
        # Content hashing includes dtype, so the variants were distinct
        # cache entries rather than one entry serving both.
        assert validator.score_cache.stats["misses"] - misses == 2
