"""Determinism suite: the fitting pipeline is bit-identical to the serial path.

The fitting pipeline plans every (layer, class) task up front, then casts
and solves one task at a time. Its contract is that this changes nothing
but memory: support vectors, dual coefficients, offsets, scaler
statistics, and every downstream discrepancy must be *exactly* equal
(``==``, not allclose) to the paper-faithful per-layer
``LayerValidator.fit``, across random feature sets, class skews,
``max_per_class`` subsampling, and float32 or float64 representations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import fit_validators_from_arrays
from repro.core.validator import LayerValidator, ValidatorConfig


def random_layer_reps(seed, class_sizes, dims):
    """Per-layer representation matrices over shared labels."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate(
        [np.full(size, klass, dtype=np.int64) for klass, size in enumerate(class_sizes)]
    )
    rng.shuffle(labels)
    reps = [
        rng.normal(loc=labels[:, None] * 1.5, scale=1.0, size=(len(labels), dim))
        for dim in dims
    ]
    return reps, labels


def assert_validators_identical(fitted_a, fitted_b):
    assert len(fitted_a) == len(fitted_b)
    for a, b in zip(fitted_a, fitted_b):
        assert a.classes == b.classes
        for klass in a.classes:
            sa, sb = a._svms[klass], b._svms[klass]
            np.testing.assert_array_equal(sa.support_vectors_, sb.support_vectors_)
            np.testing.assert_array_equal(sa.dual_coef_, sb.dual_coef_)
            assert sa.rho_ == sb.rho_
            assert sa.norm_w_ == sb.norm_w_
            if a.config.standardize:
                np.testing.assert_array_equal(
                    a._scalers[klass].mean_, b._scalers[klass].mean_
                )
                np.testing.assert_array_equal(
                    a._scalers[klass].scale_, b._scalers[klass].scale_
                )


def serial_fit(reps, labels, config):
    """The reference: ``LayerValidator.fit`` per layer, seeded as the plan is."""
    return [
        LayerValidator(position, f"layer{position}", config).fit(
            rep, labels, rng=config.seed + position
        )
        for position, rep in enumerate(reps)
    ]


class TestPipelineBitIdentity:
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.tuples(st.integers(8, 40), st.integers(8, 40), st.integers(8, 40)),
        max_per_class=st.integers(5, 30),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_features_and_subsampling(self, seed, sizes, max_per_class):
        reps, labels = random_layer_reps(seed, sizes, dims=(4, 6))
        config = ValidatorConfig(max_per_class=max_per_class, seed=seed % 7)
        serial = serial_fit(reps, labels, config)
        pipeline = fit_validators_from_arrays(reps, labels, [0, 1], config)
        assert_validators_identical(serial, pipeline)
        # Downstream discrepancies are bit-identical too.
        queries = np.random.default_rng(seed + 1).normal(size=(16, 4))
        predicted = np.random.default_rng(seed + 2).integers(0, 3, size=16)
        np.testing.assert_array_equal(
            serial[0].discrepancy(queries, predicted),
            pipeline[0].discrepancy(queries, predicted),
        )

    @given(
        seed=st.integers(0, 10_000),
        small=st.integers(2, 5),
        large=st.integers(60, 120),
    )
    @settings(max_examples=5, deadline=None)
    def test_class_skew(self, seed, small, large):
        # One near-empty class against a dominant one: the skew must not
        # change which rows each task trains on.
        reps, labels = random_layer_reps(seed, (small, large), dims=(5,))
        config = ValidatorConfig(max_per_class=50, seed=1)
        serial = serial_fit(reps, labels, config)
        pipeline = fit_validators_from_arrays(reps, labels, [0], config)
        assert_validators_identical(serial, pipeline)

    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(["rbf", "linear", "poly"]))
    @settings(max_examples=5, deadline=None)
    def test_kernels_and_no_standardize(self, seed, kernel):
        reps, labels = random_layer_reps(seed, (20, 20), dims=(4,))
        config = ValidatorConfig(kernel=kernel, standardize=False, max_per_class=15)
        serial = serial_fit(reps, labels, config)
        pipeline = fit_validators_from_arrays(reps, labels, [0], config)
        assert_validators_identical(serial, pipeline)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_float32_representations_cast_per_task(self, seed):
        # The forward emits float32; the pipeline casts one task's rows at
        # a time, which must equal casting the whole matrix up front.
        reps, labels = random_layer_reps(seed, (15, 15, 15, 15), dims=(4, 6))
        reps = [rep.astype(np.float32) for rep in reps]
        config = ValidatorConfig(max_per_class=10, seed=2)
        serial = serial_fit(reps, labels, config)
        pipeline = fit_validators_from_arrays(reps, labels, [0, 1], config)
        assert_validators_identical(serial, pipeline)
