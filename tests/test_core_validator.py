"""Tests for LayerValidator / DeepValidator (Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.core import DeepValidator, ValidatorConfig
from repro.core.thresholds import centroid_threshold, fpr_calibrated_threshold
from repro.core.validator import LayerValidator


def gaussian_classes(seed=0, n=120, d=6, classes=3, spread=8.0):
    """Synthetic per-class Gaussian blobs as stand-in hidden representations."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    centers = rng.normal(size=(classes, d)) * spread
    reps = centers[labels] + rng.normal(size=(n, d))
    return reps, labels


class TestValidatorConfig:
    def test_invalid_combiner(self):
        with pytest.raises(ValueError):
            ValidatorConfig(combiner="median")

    @pytest.mark.parametrize("max_per_class", [-1, 0, 1])
    def test_rejects_max_per_class_below_two(self, max_per_class):
        # Rejected at construction, before any training-set forward pass:
        # a one-class SVM needs at least two points per class.
        with pytest.raises(ValueError, match="max_per_class"):
            ValidatorConfig(max_per_class=max_per_class)

    def test_accepts_max_per_class_two(self):
        assert ValidatorConfig(max_per_class=2).max_per_class == 2

    def test_defaults_match_paper(self):
        config = ValidatorConfig()
        assert config.combiner == "sum"  # Eq. 3: unweighted sum
        assert config.kernel == "rbf"


class TestLayerValidator:
    def test_fit_and_discrepancy_signs(self):
        reps, labels = gaussian_classes()
        validator = LayerValidator(0, "layer0", ValidatorConfig(nu=0.1))
        validator.fit(reps, labels)
        # In-distribution points score mostly negative discrepancy.
        inliers = validator.discrepancy(reps, labels)
        assert (inliers < 0).mean() > 0.7
        # Far-away points score positive.
        outliers = validator.discrepancy(np.full((10, reps.shape[1]), 100.0), np.zeros(10, dtype=int))
        assert np.all(outliers > 0)

    def test_wrong_class_reference_increases_discrepancy(self):
        reps, labels = gaussian_classes(spread=12.0)
        validator = LayerValidator(0, "layer0", ValidatorConfig(nu=0.1))
        validator.fit(reps, labels)
        right = validator.discrepancy(reps, labels)
        wrong = validator.discrepancy(reps, (labels + 1) % 3)
        assert wrong.mean() > right.mean()

    def test_classes_property(self):
        reps, labels = gaussian_classes()
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        assert validator.classes == [0, 1, 2]

    def test_unfitted_raises(self):
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        with pytest.raises(RuntimeError):
            validator.discrepancy(np.zeros((1, 4)), np.zeros(1, dtype=int))

    def test_unknown_predicted_class_raises(self):
        reps, labels = gaussian_classes()
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        with pytest.raises(KeyError):
            validator.discrepancy(reps[:2], np.array([7, 7]))

    def test_class_with_single_sample_rejected(self):
        reps = np.zeros((3, 4))
        labels = np.array([0, 0, 1])
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        with pytest.raises(ValueError):
            validator.fit(reps, labels)

    def test_max_per_class_subsampling(self):
        reps, labels = gaussian_classes(n=300)
        validator = LayerValidator(0, "layer0", ValidatorConfig(max_per_class=20))
        validator.fit(reps, labels)
        for svm in validator._svms.values():
            assert len(svm.support_vectors_) <= 20

    def test_length_mismatch_rejected(self):
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        with pytest.raises(ValueError):
            validator.fit(np.zeros((4, 2)), np.zeros(3, dtype=int))


class TestDeepValidator:
    def test_layer_selection_validation(self, trained_tiny_model):
        model, *_ = trained_tiny_model
        with pytest.raises(ValueError):
            DeepValidator(model, ValidatorConfig(layers=[99]))

    def test_weights_length_validation(self, trained_tiny_model):
        model, *_ = trained_tiny_model
        with pytest.raises(ValueError):
            DeepValidator(model, ValidatorConfig(weights=[1.0]))

    def test_fit_filters_misclassified(self, trained_tiny_model):
        model, train_x, train_y, *_ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15))
        validator.fit(train_x, train_y)
        summary = validator.fit_summary
        assert summary.total_training_images == len(train_x)
        assert summary.correctly_classified <= summary.total_training_images
        assert summary.layers_fitted == model.probe_names

    def test_unfitted_raises(self, trained_tiny_model):
        model, *_ = trained_tiny_model
        with pytest.raises(RuntimeError):
            DeepValidator(model).joint_discrepancy(np.zeros((1, 1, 12, 12)))

    def test_discrepancy_matrix_shape(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15))
        validator.fit(train_x, train_y)
        predictions, matrix = validator.discrepancies(test_x[:10])
        assert matrix.shape == (10, len(model.probe_names))
        assert predictions.shape == (10,)

    def test_separates_inliers_from_noise(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15))
        validator.fit(train_x, train_y)
        clean = validator.joint_discrepancy(test_x[:40])
        noise = validator.joint_discrepancy(
            np.random.default_rng(0).random((40, 1, 12, 12))
        )
        assert noise.mean() > clean.mean()

    def test_combiner_variants(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        scores = {}
        for combiner in ("sum", "mean", "max", "last"):
            validator = DeepValidator(model, ValidatorConfig(nu=0.15, combiner=combiner))
            validator.fit(train_x, train_y)
            scores[combiner] = validator.joint_discrepancy(test_x[:5])
        np.testing.assert_allclose(scores["mean"], scores["sum"] / 3, atol=1e-9)
        assert not np.allclose(scores["max"], scores["sum"])

    def test_weighted_combination(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        base = DeepValidator(model, ValidatorConfig(nu=0.15))
        base.fit(train_x, train_y)
        weighted = DeepValidator(
            model, ValidatorConfig(nu=0.15, weights=[2.0, 2.0, 2.0])
        )
        weighted.fit(train_x, train_y)
        np.testing.assert_allclose(
            weighted.joint_discrepancy(test_x[:5]),
            2.0 * base.joint_discrepancy(test_x[:5]),
            rtol=1e-9,
        )

    def test_layer_subset(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15, layers=[1, 2]))
        validator.fit(train_x, train_y)
        _, matrix = validator.discrepancies(test_x[:4])
        assert matrix.shape == (4, 2)

    def test_calibrate_and_flag(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15))
        validator.fit(train_x, train_y)
        noise = np.random.default_rng(1).random((40, 1, 12, 12))
        epsilon = validator.calibrate_threshold(test_x[:40], noise)
        assert validator.epsilon == epsilon
        assert validator.flag(noise).mean() > 0.5
        assert validator.flag(test_x[:40]).mean() < 0.5


class TestThresholds:
    def test_centroid_threshold_midpoint(self):
        assert centroid_threshold(np.array([-1.0, -3.0]), np.array([3.0, 5.0])) == 1.0

    def test_centroid_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid_threshold(np.array([]), np.array([1.0]))

    def test_fpr_calibrated_threshold(self):
        clean = np.linspace(0, 1, 100)
        threshold = fpr_calibrated_threshold(clean, 0.05)
        assert (clean >= threshold).mean() <= 0.05

    def test_fpr_empty_clean_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fpr_calibrated_threshold(np.array([]), 0.05)

    def test_all_identical_clean_scores_rejected(self):
        # A constant clean population carries no spread to calibrate
        # against; both calibrators must refuse it instead of shipping a
        # meaningless operating point.
        constant = np.full(50, 0.25)
        with pytest.raises(ValueError, match="all identical"):
            centroid_threshold(constant, np.array([3.0, 5.0]))
        with pytest.raises(ValueError, match="all identical"):
            fpr_calibrated_threshold(constant, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        poisoned = np.array([0.1, bad, 0.3])
        with pytest.raises(ValueError, match="non-finite"):
            centroid_threshold(poisoned, np.array([3.0, 5.0]))
        with pytest.raises(ValueError, match="non-finite"):
            centroid_threshold(np.array([-1.0, -3.0]), poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            fpr_calibrated_threshold(poisoned, 0.05)
