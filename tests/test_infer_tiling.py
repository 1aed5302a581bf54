"""Depth-first tiling of a compiled plan's spatial prefix.

A plan runs the stages before its first ``Flatten``/``Dense``/``Softmax``/
``GlobalAvgPool2d`` one :data:`~repro.infer.plan.TILE` of images at a time
when the chunk width is a larger multiple of the tile, so every conv's
im2col columns and GEMM output stay tile-sized. These tests pin that the
tiling happens (conv GEMMs never see more than a tile's columns, and the
workspace stays tile-sized), and that it changes no bit of any output:
tiled and untiled widths stay identical to the Tensor forward.

Run with ``pytest -q -m infer``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import infer
from repro.infer.plan import TILE, ConvStep
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
from repro.zoo.architectures import densenet, mnist_cnn, svhn_cnn
from tests.test_infer_differential import assert_paths_identical

pytestmark = pytest.mark.infer

ZOO = {
    "mnist": (lambda: mnist_cnn(width=2), (1, 28, 28)),
    "svhn": (lambda: svhn_cnn(width=2), (3, 32, 32)),
    "svhn-w8": (lambda: svhn_cnn(width=8), (3, 32, 32)),
    "densenet": (
        lambda: densenet(growth=2, block_layers=2, initial_channels=2),
        (3, 32, 32),
    ),
}


def zoo_inputs(name: str, count: int, seed: int = 11):
    build, shape = ZOO[name]
    images = np.random.default_rng(seed).standard_normal((count, *shape))
    return build(), images.astype(np.float32)


@pytest.fixture
def conv_widths(monkeypatch):
    """Record ``(conv key, images)`` for every conv GEMM the plan runs."""
    widths: list[tuple[str, int]] = []
    run = ConvStep.run

    def spy(self, x, ws):
        widths.append((self.key, len(x)))
        return run(self, x, ws)

    monkeypatch.setattr(ConvStep, "run", spy)
    return widths


class TestTiledGemms:
    @pytest.mark.parametrize("name", ["svhn", "densenet"])
    def test_full_chunk_convs_run_tile_sized(self, conv_widths, name):
        model, images = zoo_inputs(name, 256)
        model.hidden_representations(images, compiled=True)
        assert max(count for _, count in conv_widths) <= TILE
        # Every conv runs once per tile, and its tiles cover the chunk.
        per_conv: dict[str, list[int]] = {}
        for key, count in conv_widths:
            per_conv.setdefault(key, []).append(count)
        assert len(per_conv) > 1
        assert all(counts == [TILE] * (256 // TILE) for counts in per_conv.values())

    def test_probability_only_forward_is_tiled(self, conv_widths):
        model, images = zoo_inputs("svhn", 256)
        model.predict_proba(images, compiled=True)
        assert max(count for _, count in conv_widths) <= TILE

    @pytest.mark.parametrize("count", [TILE, 100, 255])
    def test_other_widths_run_as_one_tile(self, conv_widths, count):
        model, images = zoo_inputs("svhn", count)
        model.hidden_representations(images, compiled=True)
        assert {images for _, images in conv_widths} == {count}


class TestTiledIdentity:
    @pytest.mark.parametrize("count", [64, 96, 256, 100, 255])
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_identical_to_tape(self, name, count):
        model, images = zoo_inputs(name, count)
        assert_paths_identical(model, images)

    @pytest.mark.parametrize("batch_size", [64, 256])
    @pytest.mark.parametrize("name", ["svhn-w8", "densenet"])
    def test_multi_chunk_streams_identical(self, name, batch_size):
        # 320 images: five tiled 64-wide chunks, or a tiled 256-wide chunk
        # followed by a tiled 64-wide one.
        model, images = zoo_inputs(name, 320)
        assert_paths_identical(model, images, batch_size=batch_size)

    def test_model_without_spatial_prefix_identical(self):
        # A dense-only model has no stage to tile; the whole chunk runs the
        # dense stages as before.
        model = ProbedSequential(
            [
                ("fc1", Sequential(Flatten(), Dense(12, 6, rng=0), ReLU())),
                ("softmax", Sequential(Dense(6, 3, rng=1), Softmax())),
            ]
        )
        assert infer.plan_for(model).spatial == 0
        images = np.random.default_rng(5).standard_normal((2 * TILE, 3, 2, 2))
        assert_paths_identical(model, images.astype(np.float32))

    @settings(max_examples=15, deadline=None)
    @given(
        channels=st.integers(1, 3),
        filters=st.integers(1, 4),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
        pool=st.integers(2, 3),
        size=st.integers(9, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv_pool_geometries_in_two_tiles(
        self, channels, filters, kernel, stride, pad, pool, size, seed
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
                            channels, filters, kernel=kernel, stride=stride, pad=pad, rng=0
                        ),
                        ReLU(),
                        MaxPool2d(pool),
                    ),
                ),
                (
                    "head",
                    Sequential(
                        Flatten(), Dense(filters * pool_out * pool_out, 3, rng=1), Softmax()
                    ),
                ),
            ]
        )
        images = (
            np.random.default_rng(seed)
            .standard_normal((2 * TILE, channels, size, size))
            .astype(np.float32)
        )
        assert_paths_identical(model, images, batch_size=2 * TILE)


class TestWorkspaceBytes:
    def test_fresh_pool_retains_nothing(self):
        assert infer.WorkspacePool().stats["bytes"] == 0

    def test_bytes_sum_every_retained_buffer(self):
        pool = infer.WorkspacePool()
        pool.scratch(("a",), (4, 8), np.float32)
        pool.zeroed(("b",), (3,), np.float64)
        pool.scratch(("a",), (4, 8), np.float32)  # a reuse retains nothing new
        assert pool.stats["bytes"] == 4 * 8 * 4 + 3 * 8

    def test_svhn_plan_workspace_stays_tile_sized(self):
        # The svhn ``tiny`` architecture (width 8). Whole-chunk conv stages
        # kept 177 MB of im2col and GEMM scratch after a 256-wide chunk.
        model, images = zoo_inputs("svhn-w8", 256)
        model.hidden_representations(images, compiled=True)
        model.predict_proba(images, compiled=True)
        assert infer.plan_for(model).workspace.stats["bytes"] <= 32 * 2**20
