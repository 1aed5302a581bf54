"""Tests for Sequential and ProbedSequential."""

import numpy as np
import pytest

from repro import infer
from repro.autograd import Tensor
from repro.nn import (
    Dense,
    Flatten,
    ProbedSequential,
    ReLU,
    Sequential,
    Softmax,
)
from tests.helpers import make_tiny_model


class TestSequential:
    def test_iteration_and_indexing(self):
        model = Sequential(Dense(2, 3, rng=0), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_forward_composes(self):
        model = Sequential(Dense(2, 2, rng=0), ReLU())
        out = model(Tensor(np.ones((1, 2))))
        assert np.all(out.data >= 0)


class TestProbedSequential:
    def test_requires_two_stages(self):
        with pytest.raises(ValueError):
            ProbedSequential([("only", ReLU())])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ProbedSequential([("a", ReLU()), ("a", ReLU())])

    def test_probe_names_exclude_final(self):
        model = make_tiny_model()
        assert model.probe_names == ["conv1", "conv2", "fc1"]
        assert model.stage_names[-1] == "softmax"

    def test_stage_lookup(self):
        model = make_tiny_model()
        assert model.stage("conv1") is model.conv1
        with pytest.raises(KeyError):
            model.stage("nope")

    def test_forward_probes_count_and_consistency(self):
        model = make_tiny_model()
        x = Tensor(np.random.default_rng(0).random((2, 1, 12, 12)).astype(np.float32))
        out, probes = model.forward_probes(x)
        assert len(probes) == 3
        np.testing.assert_allclose(out.data, model(x).data)

    def test_forward_logits_matches_softmax_inverse(self):
        model = make_tiny_model()
        x = Tensor(np.random.default_rng(1).random((2, 1, 12, 12)).astype(np.float32))
        probs = model(x).data
        logits = model.forward_logits(x).data
        softmaxed = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, softmaxed, atol=1e-6)

    def test_forward_logits_rejects_non_softmax_final(self):
        model = ProbedSequential([("fc", Dense(4, 4, rng=0)), ("out", Dense(4, 2, rng=1))])
        with pytest.raises(TypeError):
            model.forward_logits(Tensor(np.zeros((1, 4))))

    def test_forward_logits_bare_softmax_final(self):
        model = ProbedSequential([("fc", Dense(4, 2, rng=0)), ("sm", Softmax())])
        x = Tensor(np.ones((1, 4)))
        logits = model.forward_logits(x)
        np.testing.assert_allclose(logits.data, model.fc(x).data)

    def test_predict_proba_rows_sum_to_one(self):
        model = make_tiny_model()
        images = np.random.default_rng(2).random((5, 1, 12, 12))
        probs = model.predict_proba(images)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_predict_matches_argmax(self):
        model = make_tiny_model()
        images = np.random.default_rng(3).random((5, 1, 12, 12))
        np.testing.assert_array_equal(
            model.predict(images), model.predict_proba(images).argmax(axis=1)
        )

    def test_hidden_representations_flattened(self):
        model = make_tiny_model()
        images = np.random.default_rng(4).random((3, 1, 12, 12))
        probs, reps = model.hidden_representations(images)
        assert probs.shape == (3, 3)
        assert len(reps) == 3
        for rep in reps:
            assert rep.shape[0] == 3
            assert rep.ndim == 2

    def test_batched_inference_matches_single_shot(self):
        model = make_tiny_model()
        images = np.random.default_rng(5).random((7, 1, 12, 12))
        np.testing.assert_allclose(
            model.predict_proba(images, batch_size=2),
            model.predict_proba(images, batch_size=100),
            atol=1e-6,
        )

    @pytest.mark.parametrize("plan", [True, False], ids=["plan", "tape"])
    def test_empty_batch_predictions(self, plan):
        model = make_tiny_model()
        empty = np.zeros((0, 1, 12, 12), np.float32)
        infer.set_plan_enabled(plan)
        try:
            probs = model.predict_proba(empty, compiled=plan)
            labels = model.predict(empty)
        finally:
            infer.set_plan_enabled(None)
        assert probs.shape == (0, 3)
        assert probs.dtype == model.predict_proba(np.zeros((1, 1, 12, 12))).dtype
        assert labels.shape == (0,)
