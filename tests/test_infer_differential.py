"""Differential suite: compiled inference plans vs the Tensor forward.

The compiled fast path is only allowed to exist because it is
*indistinguishable* from the Tensor path for the same chunking — every
probability and every flattened probe compares equal (``==``, NaNs in the
same positions, same dtypes). These tests pin that contract across the
model zoo, hypothesis-generated conv/pool geometries, degenerate batches,
and input dtypes, plus the routing rules around it: transparent fallback
for unlowerable models, call-time weight reads, recompile-on-structure-
change, and per-thread workspace isolation under concurrent serving.

Run with ``pytest -q -m infer`` (tier-2 entry point; also exercised under
``REPRO_STRICT=1`` in CI).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import infer
from repro.autograd.tensor import Tensor
from repro.nn import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ProbedSequential,
    ReLU,
    Sequential,
    Softmax,
)
from repro.nn.module import Module
from repro.zoo.architectures import densenet, mnist_cnn, svhn_cnn

pytestmark = pytest.mark.infer


def assert_paths_identical(model, images, batch_size=256):
    """Probs and every probe equal (values, NaN positions, dtypes)."""
    probs_t, reps_t = model.hidden_representations(
        images, batch_size=batch_size, compiled=False
    )
    probs_p, reps_p = model.hidden_representations(
        images, batch_size=batch_size, compiled=True
    )
    assert probs_p.dtype == probs_t.dtype
    np.testing.assert_array_equal(probs_p, probs_t)
    assert len(reps_p) == len(reps_t)
    for rep_p, rep_t in zip(reps_p, reps_t):
        assert rep_p.dtype == rep_t.dtype
        assert rep_p.shape == rep_t.shape
        np.testing.assert_array_equal(rep_p, rep_t)
    np.testing.assert_array_equal(
        model.predict_proba(images, batch_size=batch_size, compiled=True),
        model.predict_proba(images, batch_size=batch_size, compiled=False),
    )


@pytest.fixture(scope="module")
def zoo():
    rng = np.random.default_rng(7)
    return {
        "mnist": (mnist_cnn(width=2), rng.standard_normal((19, 1, 28, 28))),
        "svhn": (svhn_cnn(width=2), rng.standard_normal((19, 3, 32, 32))),
        "densenet": (
            densenet(growth=2, block_layers=2, initial_channels=2),
            rng.standard_normal((9, 3, 32, 32)),
        ),
    }


class TestZooIdentity:
    @pytest.mark.parametrize("name", ["mnist", "svhn", "densenet"])
    def test_identical_at_default_chunking(self, zoo, name):
        model, images = zoo[name]
        assert_paths_identical(model, images.astype(np.float32))

    @pytest.mark.parametrize("name", ["mnist", "svhn", "densenet"])
    def test_identical_with_uneven_chunks(self, zoo, name):
        # batch_size=4 over 19 (or 9) images: full chunks plus a short tail,
        # exercising per-shape workspace buffers within one stream.
        model, images = zoo[name]
        assert_paths_identical(model, images.astype(np.float32), batch_size=4)

    @pytest.mark.parametrize("name", ["mnist", "svhn", "densenet"])
    def test_single_image(self, zoo, name):
        model, images = zoo[name]
        assert_paths_identical(model, images[:1].astype(np.float32))

    def test_empty_batch(self, zoo):
        model, images = zoo["mnist"]
        empty = images[:0].astype(np.float32)
        probs, reps = model.hidden_representations(empty, compiled=True)
        assert probs.shape[0] == 0
        assert all(rep.shape[0] == 0 for rep in reps)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8, np.int32])
    def test_non_float32_inputs_cast_once_and_match(self, zoo, dtype):
        # Both paths cast to float32 up front; integer and double inputs
        # must land on identical bits.
        model, images = zoo["mnist"]
        cast = (np.abs(images) * 40).astype(dtype)
        assert_paths_identical(model, cast, batch_size=5)

    def test_nan_inputs_propagate_identically(self, zoo):
        model, images = zoo["mnist"]
        poisoned = images.astype(np.float32).copy()
        poisoned[::3] = np.nan
        assert_paths_identical(model, poisoned, batch_size=7)


class TestGeometryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.integers(1, 3),
        filters=st.integers(1, 4),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
        pool=st.integers(2, 3),
        size=st.integers(9, 14),
        batch=st.integers(1, 5),
        data=st.data(),
    )
    def test_conv_pool_geometries(
        self, channels, filters, kernel, stride, pad, pool, size, batch, data
    ):
        padded = size + 2 * pad
        if padded < kernel:
            return
        conv_out = (padded - kernel) // stride + 1
        if conv_out < pool:
            return
        pool_out = (conv_out - pool) // pool + 1
        model = ProbedSequential(
            [
                (
                    "conv",
                    Sequential(
                        Conv2d(
                            channels,
                            filters,
                            kernel=kernel,
                            stride=stride,
                            pad=pad,
                            rng=0,
                        ),
                        ReLU(),
                        MaxPool2d(pool),
                    ),
                ),
                (
                    "head",
                    Sequential(
                        Flatten(),
                        Dense(filters * pool_out * pool_out, 3, rng=1),
                        Softmax(),
                    ),
                ),
            ]
        )
        images = data.draw(
            st.integers(0, 2**32 - 1).map(
                lambda seed: np.random.default_rng(seed)
                .standard_normal((batch, channels, size, size))
                .astype(np.float32)
            )
        )
        assert_paths_identical(model, images, batch_size=3)


class UnlowerableModule(Module):
    """A module the plan compiler has no lowering for."""

    def forward(self, x: Tensor) -> Tensor:
        return x * Tensor.as_tensor(2.0)


class TestRoutingAndFallback:
    def _mixed_model(self):
        return ProbedSequential(
            [
                ("weird", UnlowerableModule()),
                ("head", Sequential(Flatten(), Dense(12, 3, rng=0), Softmax())),
            ]
        )

    def test_plan_for_returns_none_for_unsupported(self):
        assert infer.plan_for(self._mixed_model()) is None

    def test_compiled_true_raises_for_unsupported(self):
        model = self._mixed_model()
        images = np.zeros((2, 3, 2, 2), np.float32)
        with pytest.raises(infer.UnsupportedModuleError):
            list(model.iter_hidden_representations(images, compiled=True))

    def test_unsupported_model_falls_back_transparently(self):
        model = self._mixed_model()
        images = np.random.default_rng(0).standard_normal((5, 3, 2, 2))
        probs_auto, reps_auto = model.hidden_representations(images)
        probs_t, reps_t = model.hidden_representations(images, compiled=False)
        np.testing.assert_array_equal(probs_auto, probs_t)
        for a, b in zip(reps_auto, reps_t):
            np.testing.assert_array_equal(a, b)

    def test_kill_switch_disables_plan(self, zoo):
        model, _ = zoo["mnist"]
        try:
            infer.set_plan_enabled(False)
            assert infer.plan_for(model) is None
        finally:
            infer.set_plan_enabled(None)

    def test_plan_is_cached_per_model(self, zoo):
        model, _ = zoo["mnist"]
        assert infer.plan_for(model) is infer.plan_for(model)


class TestStructureAndWeights:
    def test_inplace_weight_updates_are_visible(self):
        # Optimizers mutate param.data in place; plans read weights at call
        # time, so no recompile (and no staleness) may occur.
        model = mnist_cnn(width=2)
        images = np.random.default_rng(3).standard_normal((4, 1, 28, 28)).astype(
            np.float32
        )
        plan_before = infer.plan_for(model)
        assert_paths_identical(model, images)
        conv = model.stage("conv1")[0]
        conv.weight.data *= 1.5
        conv.bias.data += 0.25
        assert infer.plan_for(model) is plan_before
        assert_paths_identical(model, images)

    def test_stage_replacement_recompiles(self):
        model = mnist_cnn(width=2)
        plan_before = infer.plan_for(model)
        assert plan_before is not None
        model.conv1 = Sequential(Conv2d(1, 2, kernel=5, rng=9), ReLU())
        plan_after = infer.plan_for(model)
        assert plan_after is not None
        assert plan_after is not plan_before
        images = np.random.default_rng(4).standard_normal((4, 1, 28, 28)).astype(
            np.float32
        )
        assert_paths_identical(model, images)


class TestChunkOwnership:
    def test_yielded_arrays_never_alias_workspace(self, zoo):
        # Consumers hold chunk outputs across the stream (the engine
        # accumulates then concatenates); a later chunk must not overwrite
        # an earlier chunk's probs or probes.
        model, images = zoo["mnist"]
        images = images.astype(np.float32)
        chunks = list(
            model.iter_hidden_representations(images, batch_size=4, compiled=True)
        )
        first_probs = chunks[0][1].copy()
        first_reps = [rep.copy() for rep in chunks[0][2]]
        # Re-run the plan over different data; earlier outputs must survive.
        list(
            model.iter_hidden_representations(
                images[::-1].copy(), batch_size=4, compiled=True
            )
        )
        np.testing.assert_array_equal(chunks[0][1], first_probs)
        for rep, saved in zip(chunks[0][2], first_reps):
            np.testing.assert_array_equal(rep, saved)


@pytest.mark.serve
class TestConcurrentWorkspaces:
    def test_shared_plan_is_thread_safe(self, zoo):
        # Serving workers share one compiled plan; per-thread workspaces
        # must keep concurrent forwards from tearing each other's scratch.
        model, images = zoo["mnist"]
        inputs = [
            np.random.default_rng(seed).standard_normal((11, 1, 28, 28)).astype(
                np.float32
            )
            for seed in range(8)
        ]
        expected = [
            model.hidden_representations(x, batch_size=4, compiled=True)
            for x in inputs
        ]

        def worker(x):
            return model.hidden_representations(x, batch_size=4, compiled=True)

        for _ in range(3):
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, inputs))
            for (probs, reps), (want_probs, want_reps) in zip(results, expected):
                np.testing.assert_array_equal(probs, want_probs)
                for rep, want in zip(reps, want_reps):
                    np.testing.assert_array_equal(rep, want)


class TestEndToEndScoring:
    def test_engine_scores_identical_plan_on_and_off(self, trained_tiny_model):
        from repro.core.validator import DeepValidator, ValidatorConfig

        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=40))
        validator.fit(train_x, train_y)
        try:
            infer.set_plan_enabled(False)
            validator.score_cache.clear()
            preds_t, scores_t = validator.discrepancies(test_x[:32].copy())
            infer.set_plan_enabled(True)
            validator.score_cache.clear()
            preds_p, scores_p = validator.discrepancies(test_x[:32].copy())
        finally:
            infer.set_plan_enabled(None)
        np.testing.assert_array_equal(preds_p, preds_t)
        # Both paths hand the scorer byte-identical contiguous reps, so
        # even the layout-sensitive last bits of the scoring GEMMs agree.
        np.testing.assert_array_equal(scores_p, scores_t)
