"""Tests for the in-process, single-pass fitting pipeline (Algorithm 1).

Covers the refit-staleness regressions, the one-forward-pass and
one-task-at-a-time memory contracts, and configs pickled before the
worker-count field was removed. The hypothesis-driven bit-identity
properties live in ``test_fitting_determinism.py``.
"""

import pickle
import warnings
import weakref

import numpy as np
import pytest

import repro.core.fitting as fitting
from repro.core.bundle import BundleStore, ValidatorBundle
from repro.core.fitting import (
    TaskFeatures,
    extract_kept_rows,
    fit_validators_from_arrays,
    plan_fit_tasks,
)
from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig
from repro.nn.sequential import ProbedSequential
from repro.svm.kernels import Kernel
from repro.svm.oneclass import OneClassSVM


def gaussian_classes(seed=0, n=120, d=6, classes=3, spread=8.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    centers = rng.normal(size=(classes, d)) * spread
    return centers[labels] + rng.normal(size=(n, d)), labels


class TestRefitStaleness:
    def test_layer_validator_refit_drops_stale_classes(self):
        reps, labels = gaussian_classes(classes=3)
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        assert validator.classes == [0, 1, 2]
        # Refit on a label subset: classes must shrink, not accumulate.
        subset = labels < 2
        validator.fit(reps[subset], labels[subset])
        assert validator.classes == [0, 1]
        assert sorted(validator._scalers) == [0, 1]
        # The stale class-2 SVM must not leak into scoring either.
        with pytest.raises(KeyError):
            validator.discrepancy(reps[:1], np.array([2]))

    def test_deep_validator_refit_resets_summary(self, trained_tiny_model):
        model, train_x, train_y, *_ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15))
        validator.fit(train_x, train_y)
        first = validator.fit_summary
        assert first.layers_fitted == model.probe_names
        validator.fit(train_x[:100], train_y[:100])
        second = validator.fit_summary
        # A refit reports its own run: no doubled layer list, fresh counts.
        assert second.layers_fitted == model.probe_names
        assert second.total_training_images == 100
        assert second.correctly_classified <= 100


class TestPlanning:
    def test_tasks_cover_layers_and_classes(self):
        _, labels = gaussian_classes(classes=3)
        config = ValidatorConfig()
        tasks = plan_fit_tasks(labels, [(0, 0), (1, 2)], config)
        assert {(t.position, t.layer_index, t.klass) for t in tasks} == {
            (0, 0, k) for k in range(3)
        } | {(1, 2, k) for k in range(3)}

    def test_subsampling_matches_serial_rng(self):
        # The planned rows must replay LayerValidator.fit's draws exactly:
        # same per-layer generator, classes in sorted order.
        from repro.utils.rng import new_rng

        _, labels = gaussian_classes(n=400, classes=3)
        config = ValidatorConfig(max_per_class=50, seed=9)
        tasks = plan_fit_tasks(labels, [(2, 0)], config)
        gen = new_rng(config.seed + 2)
        for task in tasks:
            rows = np.flatnonzero(labels == task.klass)
            if len(rows) > config.max_per_class:
                rows = gen.choice(rows, size=config.max_per_class, replace=False)
            np.testing.assert_array_equal(task.rows, rows)

    def test_tiny_class_rejected(self):
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            plan_fit_tasks(labels, [(0, 0)], ValidatorConfig())

    def test_per_class_false_collapses_to_one_task(self):
        _, labels = gaussian_classes(classes=3)
        tasks = plan_fit_tasks(labels, [(0, 0)], ValidatorConfig(per_class=False))
        assert [t.klass for t in tasks] == [0]
        assert len(tasks[0].rows) == len(labels)  # every image, one distribution


class TestChunkedExtraction:
    def test_fit_never_materialises_full_representations(
        self, trained_tiny_model, monkeypatch
    ):
        # The fit path must stream chunks, not call the materialising
        # hidden_representations; peak transient memory is the chunk.
        model, train_x, train_y, *_ = trained_tiny_model

        def forbidden(self, images, batch_size=256):
            raise AssertionError("fit must not materialise full representations")

        monkeypatch.setattr(ProbedSequential, "hidden_representations", forbidden)
        validator = DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=40))
        validator.fit(train_x, train_y, chunk_size=32)
        assert len(validator.validators) == len(model.probe_names)

    def test_forward_chunks_bounded_by_chunk_size(
        self, trained_tiny_model, monkeypatch
    ):
        model, train_x, train_y, *_ = trained_tiny_model
        seen: list[int] = []
        original = ProbedSequential.iter_hidden_representations

        # Spy on the chunking chokepoint itself — it covers both the
        # compiled-plan and Tensor forwards (forward_probes only runs on
        # the latter).
        def spying(self, images, batch_size=256, compiled=None):
            for start, probs, reps in original(
                self, images, batch_size=batch_size, compiled=compiled
            ):
                seen.append(probs.shape[0])
                yield start, probs, reps

        monkeypatch.setattr(
            ProbedSequential, "iter_hidden_representations", spying
        )
        DeepValidator(model, ValidatorConfig(nu=0.15)).fit(
            train_x, train_y, chunk_size=16
        )
        assert seen and max(seen) <= 16

    def test_fit_forwards_each_training_image_once(
        self, trained_tiny_model, monkeypatch
    ):
        # One pass finds the correctly classified images and keeps their
        # representations: no separate predict pass, no second forward.
        model, train_x, train_y, *_ = trained_tiny_model
        forwarded: list[int] = []
        original_iter = ProbedSequential.iter_hidden_representations
        original_proba = ProbedSequential.predict_proba

        def spying_iter(self, images, batch_size=256, compiled=None):
            for start, probs, reps in original_iter(
                self, images, batch_size=batch_size, compiled=compiled
            ):
                forwarded.append(len(probs))
                yield start, probs, reps

        def spying_proba(self, images, batch_size=256, compiled=None):
            probs = original_proba(self, images, batch_size=batch_size, compiled=compiled)
            forwarded.append(len(probs))
            return probs

        monkeypatch.setattr(ProbedSequential, "iter_hidden_representations", spying_iter)
        monkeypatch.setattr(ProbedSequential, "predict_proba", spying_proba)
        DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=40)).fit(
            train_x, train_y, chunk_size=64
        )
        assert sum(forwarded) == len(train_x)

    def test_one_task_alive_and_layer_buffers_released(
        self, trained_tiny_model, monkeypatch
    ):
        # Each task's float64 copy is built when it is solved and dead by
        # the next solve; a layer's buffer dies after its last task.
        model, train_x, train_y, *_ = trained_tiny_model
        buffers: dict[int, weakref.ref] = {}
        tasks: list[weakref.ref] = []
        original_extract = fitting.extract_kept_rows
        original_solve = fitting._solve_fit_task

        def spying_extract(*args, **kwargs):
            kept_labels, correct, layer_buffers = original_extract(*args, **kwargs)
            buffers.update({k: weakref.ref(v) for k, v in layer_buffers.items()})
            return kept_labels, correct, layer_buffers

        def spying_solve(payload):
            (position, _), features, _ = payload
            assert all(ref() is None for ref in tasks)
            # All probes are validated, so position == probe index.
            assert buffers[position]() is not None
            assert all(buffers[k]() is None for k in buffers if k < position)
            tasks.append(weakref.ref(features))
            return original_solve(payload)

        monkeypatch.setattr(fitting, "extract_kept_rows", spying_extract)
        monkeypatch.setattr(fitting, "_solve_fit_task", spying_solve)
        DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=40)).fit(
            train_x, train_y
        )
        assert len(tasks) == 3 * len(model.probe_names)
        assert sorted(buffers) == list(range(len(model.probe_names)))
        assert all(ref() is None for ref in [*tasks, *buffers.values()])

    def test_gathered_features_bounded_by_max_per_class(self, trained_tiny_model):
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(max_per_class=25)
        layers = list(range(len(model.probe_names)))
        kept_labels, _, buffers = extract_kept_rows(
            model, train_x, train_y, layers, chunk_size=16
        )
        tasks = plan_fit_tasks(kept_labels, list(enumerate(layers)), config)
        features = TaskFeatures(tasks, buffers)
        for task in tasks:
            assert len(features[task.key]) <= 25

    def test_extraction_matches_materialised_rows(self, trained_tiny_model):
        # The one pass must keep exactly the rows of the materialised
        # representations the model classifies correctly, in training
        # order, and gather each task's float64 rows bit-equal to slicing
        # them. Every seventh label is wrong, so the kept rows have gaps.
        model, train_x, train_y, *_ = trained_tiny_model
        labels = train_y.copy()
        labels[::7] = (labels[::7] + 1) % 3
        layers = list(range(len(model.probe_names)))
        kept_labels, correct, buffers = extract_kept_rows(
            model, train_x, labels, layers, chunk_size=256
        )
        probs, full = model.hidden_representations(train_x)
        kept = probs.argmax(axis=1) == labels
        assert 0 < kept.sum() < len(labels)
        assert correct == kept.sum()
        np.testing.assert_array_equal(kept_labels, labels[kept])
        tasks = plan_fit_tasks(
            kept_labels, list(enumerate(layers)), ValidatorConfig(max_per_class=30)
        )
        features = TaskFeatures(tasks, buffers)
        for task in tasks:
            expected = np.asarray(
                full[task.layer_index][kept][task.rows], dtype=np.float64
            )
            np.testing.assert_array_equal(features[task.key], expected)

    def test_unfiltered_pass_keeps_every_row(self, trained_tiny_model):
        model, train_x, train_y, *_ = trained_tiny_model
        labels = train_y.copy()
        labels[::7] = (labels[::7] + 1) % 3
        kept_labels, correct, buffers = extract_kept_rows(
            model, train_x, labels, [0], filter_misclassified=False
        )
        _, full = model.hidden_representations(train_x)
        assert correct < len(labels)
        np.testing.assert_array_equal(kept_labels, labels)
        np.testing.assert_array_equal(buffers[0], full[0])


class TestInProcessSolving:
    def test_unpicklable_kernel_fits_in_process(self):
        # A custom kernel holding a lambda cannot be pickled; fitting never
        # pickles it, so it fits without a warning.
        class LambdaKernel(Kernel):
            name = "lambda-linear"

            def __init__(self):
                self.fn = lambda a, b: a @ b.T

            def __call__(self, a, b):
                return self.fn(a, b)

            def diag(self, a):
                return np.einsum("ij,ij->i", a, a)

        reps, labels = gaussian_classes(d=4)
        config = ValidatorConfig(kernel=LambdaKernel(), standardize=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fit_validators_from_arrays([reps], labels, [0], config)
        assert fitted[0].classes == [0, 1, 2]
        scores = fitted[0].discrepancy(reps[:5], labels[:5])
        assert np.isfinite(scores).all()


class TestKnobs:
    def test_config_rejects_bad_n_jobs(self):
        # Fitting has no worker count any more; the field is gone.
        with pytest.raises(TypeError):
            ValidatorConfig(n_jobs=2)

    def test_legacy_worker_count_pickles_load_and_score_identically(
        self, trained_tiny_model, tmp_path
    ):
        # Validators and bundles pickled while ValidatorConfig still had
        # a worker-count field carry it in the config's state. They must
        # load, and score bit-identically to the validator they came from.
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=40))
        validator.fit(train_x, train_y)
        validator.calibrate_threshold(test_x[:16], test_x[16:32])
        expected = validator.joint_discrepancy(test_x[32:48])
        validator.config.__dict__["n_jobs"] = 4  # the old pickled state
        legacy = pickle.loads(pickle.dumps(validator))
        assert legacy.config.__dict__["n_jobs"] == 4
        np.testing.assert_array_equal(legacy.joint_discrepancy(test_x[32:48]), expected)
        store = BundleStore(tmp_path)
        store.save(ValidatorBundle.pack(validator, version=1, name="legacy"))
        loaded = store.load("legacy", 1).validator
        np.testing.assert_array_equal(loaded.joint_discrepancy(test_x[32:48]), expected)


class TestFromSolution:
    def test_round_trip_scores_identically(self):
        reps, labels = gaussian_classes()
        rows = labels == 0
        svm = OneClassSVM(nu=0.2).fit(reps[rows])
        rebuilt = OneClassSVM.from_solution(
            kernel=svm.kernel_,
            support_vectors=svm.support_vectors_,
            dual_coef=svm.dual_coef_,
            rho=svm.rho_,
            norm_w=svm.norm_w_,
            nu=0.2,
        )
        np.testing.assert_array_equal(
            rebuilt.signed_distance(reps[:10]), svm.signed_distance(reps[:10])
        )

    def test_shape_and_type_validation(self):
        from repro.svm.kernels import LinearKernel

        with pytest.raises(ValueError, match="support vectors"):
            OneClassSVM.from_solution(
                kernel=LinearKernel(), support_vectors=np.zeros(3),
                dual_coef=np.zeros(3), rho=0.0, norm_w=1.0,
            )
        with pytest.raises(ValueError, match="dual_coef"):
            OneClassSVM.from_solution(
                kernel=LinearKernel(), support_vectors=np.zeros((3, 2)),
                dual_coef=np.zeros(2), rho=0.0, norm_w=1.0,
            )
        with pytest.raises(TypeError, match="Kernel"):
            OneClassSVM.from_solution(
                kernel="rbf", support_vectors=np.zeros((3, 2)),
                dual_coef=np.zeros(3), rho=0.0, norm_w=1.0,
            )

    def test_install_invalidates_pack(self):
        reps, labels = gaussian_classes()
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        pack = validator.packed()
        assert pack is not None
        donor = validator._svms[0]
        validator.install(
            5,
            OneClassSVM.from_solution(
                kernel=donor.kernel_, support_vectors=donor.support_vectors_,
                dual_coef=donor.dual_coef_, rho=donor.rho_, norm_w=donor.norm_w_,
            ),
            validator._scalers[0],
        )
        assert validator.classes == [0, 1, 2, 5]
        assert validator.packed() is not pack  # rebuilt with the new class
