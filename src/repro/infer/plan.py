"""Ahead-of-time inference plans: tape-free forwards for probed classifiers.

`compile_plan` walks a :class:`~repro.nn.sequential.ProbedSequential` once
and lowers each stage to a list of :class:`Step` objects — plain-numpy
kernels (conv-as-GEMM, pooling, eval batch norm, activations, dense) with
no ``Tensor`` construction, tape closures, or per-op object churn. The
resulting :class:`InferencePlan` replays that sequence per chunk, reusing
im2col columns, padded staging, GEMM outputs, and pooling scratch through a
:class:`~repro.infer.workspace.WorkspacePool`, and copies every probe
*directly* into the flattened ``(N, features)`` layout the packed SVM
scorer consumes — the reshape copy between model and validator scoring
disappears. The next stage reads the step's own (usually channel-major)
result, not the probe, so no layout round trip sits between stages.

Execution order
---------------
The plan's spatial prefix — the stages before the first one holding a
``Flatten``, ``Dense``, ``Softmax`` or ``GlobalAvgPool2d`` — runs
depth-first in :data:`TILE`-image tiles: each tile passes through every
prefix stage on tile-sized workspace buffers, and each stage's result is
copied into the tile's rows of the stage's ``(N, features)`` output.
The remaining stages then run on the whole chunk. A chunk is tiled only
when its width is a multiple of :data:`TILE` and larger than it; any
other width runs as one tile through the same code.

Determinism contract
--------------------
A plan's chunk outputs are **bit-identical** to the Tensor path's for the
same chunking: same op order, same operand dtypes (including the float64
promotions the Tensor path incurs from 0-d scalar wrapping in batch norm
and global average pooling), same reduction layouts. Tiling keeps every
conv GEMM column in the same position modulo 32, so no column moves
between the BLAS kernel's block and tail paths (docs/inference.md).
Steps read module parameters (``module.weight.data``) at call time, so
in-place optimizer updates and ``load_state_dict`` are always visible — a
plan caches *structure*, never weights. ``tests/test_infer_differential.py``
and ``tests/test_infer_tiling.py`` pin the contract across the zoo,
hypothesis-generated geometries, and tiled and untiled chunk widths.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.infer.kernels import (
    batchnorm_eval,
    conv_output_size,
    im2col_pooled,
    max_pool_fold,
    pool_cols_pooled,
    write_nchw,
)
from repro.infer.workspace import WorkspacePool


class UnsupportedModuleError(TypeError):
    """A module the plan compiler cannot lower; callers fall back to Tensor."""


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


def _pooled_like(x: np.ndarray, ws: WorkspacePool, key: tuple):
    """Pooled destination for an elementwise op that preserves ``x``'s layout.

    Returns ``(source, dest, view)`` such that ``ufunc(source, out=dest)``
    followed by reading ``view`` equals ``ufunc(x)`` — without forcing a
    layout change. Mid-stage arrays are usually transpose views of a pooled
    contiguous base (the conv GEMM buffer); computing on the base and
    re-striding the pooled result keeps the fast contiguous ufunc loop,
    exactly like numpy's allocating form, which also preserves input
    layout. Returns ``None`` when ``x``'s layout cannot be pooled (callers
    fall back to the allocating ufunc).
    """
    if x.flags.c_contiguous:
        dest = ws.scratch(key, x.shape, x.dtype)
        return x, dest, dest
    base = x.base
    if (
        isinstance(base, np.ndarray)
        and base.flags.c_contiguous
        and base.dtype == x.dtype
        and base.size == x.size
        and x.__array_interface__["data"][0] == base.__array_interface__["data"][0]
    ):
        dest = ws.scratch(key, base.shape, base.dtype)
        view = np.lib.stride_tricks.as_strided(dest, shape=x.shape, strides=x.strides)
        return base, dest, view
    return None


# -- steps ---------------------------------------------------------------------


class Step:
    """One lowered module in a compiled plan.

    Steps are stateless between calls: they hold a workspace key and a
    module reference, read parameters at run time, and keep all scratch in
    the caller's :class:`WorkspacePool`.
    """

    def run(self, x, ws: WorkspacePool):
        """Execute the step on ``x``.

        The result may be a pooled buffer or a view of one — often a
        channel-major layout viewed as NCHW — valid only until the step
        runs again on this thread. The plan copies what it hands to
        callers out of it.
        """
        raise NotImplementedError


class ConvStep(Step):
    """``Conv2d`` lowered to im2col + one GEMM, mirroring ``ops.conv2d``."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module

    def run(self, x, ws: WorkspacePool):
        m = self.module
        batch, _, height, width = x.shape
        out_h = conv_output_size(height, m.kernel, m.stride, m.pad)
        out_w = conv_output_size(width, m.kernel, m.stride, m.pad)
        weight = m.weight.data
        filters = weight.shape[0]
        cols = im2col_pooled(x, m.kernel, m.stride, m.pad, ws, (self.key,))
        weight_mat = weight.reshape(filters, -1)
        gemm = ws.scratch(
            (self.key, "gemm"),
            (filters, out_h * out_w * batch),
            np.result_type(x.dtype, weight.dtype),
        )
        np.matmul(weight_mat, cols, out=gemm)
        if m.bias is not None:
            # Bias added in GEMM coordinates (channel-major, before the
            # NCHW transpose): every output element pairs the same two
            # operands as the Tensor path's post-transpose broadcast add,
            # so results are bit-identical — but the loop runs contiguous.
            np.add(gemm, m.bias.data.reshape(filters, 1), out=gemm)
        return gemm.reshape(filters, out_h, out_w, batch).transpose(3, 0, 1, 2)


class DenseStep(Step):
    """``Dense``: one GEMM plus a broadcast bias add."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module

    def run(self, x, ws: WorkspacePool):
        m = self.module
        weight, bias = m.weight.data, m.bias.data
        out = ws.scratch(
            (self.key, "out"),
            (x.shape[0], weight.shape[1]),
            np.result_type(x.dtype, weight.dtype, bias.dtype),
        )
        np.matmul(x, weight, out=out)
        np.add(out, bias, out=out)
        return out


class ReluStep(Step):
    """``relu`` computed on the contiguous base of layout-carrying views."""

    def __init__(self, key: str) -> None:
        self.key = key

    def run(self, x, ws: WorkspacePool):
        pooled = _pooled_like(x, ws, (self.key, "out"))
        if pooled is None:
            return np.maximum(x, 0.0)
        source, dest, view = pooled
        np.maximum(source, 0.0, out=dest)
        return view


class TanhStep(Step):
    """``tanh``, same layout handling as :class:`ReluStep`."""

    def __init__(self, key: str) -> None:
        self.key = key

    def run(self, x, ws: WorkspacePool):
        pooled = _pooled_like(x, ws, (self.key, "out"))
        if pooled is None:
            return np.tanh(x)
        source, dest, view = pooled
        np.tanh(source, out=dest)
        return view


class SoftmaxStep(Step):
    """Stable softmax over the last axis, mirroring ``ops.softmax``."""

    def __init__(self, key: str) -> None:
        self.key = key

    def run(self, x, ws: WorkspacePool):
        out = ws.scratch((self.key, "out"), x.shape, x.dtype)
        np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        np.divide(out, out.sum(axis=-1, keepdims=True), out=out)
        return out


class FlattenStep(Step):
    """``Flatten`` to a contiguous (N, F) array (usually a zero-copy view).

    When the input is a layout-carrying view that still reshapes without a
    copy (a transpose with singleton axes), the result is staged into a
    contiguous scratch buffer: the GEMM downstream is layout-sensitive in
    its last bits, and :class:`~repro.nn.layers.Flatten` guarantees its
    consumer a C-contiguous operand.
    """

    def __init__(self, key: str) -> None:
        self.key = key

    def run(self, x, ws: WorkspacePool):
        flat = x.reshape(x.shape[0], _prod(x.shape[1:]))
        if flat.flags.c_contiguous:
            return flat
        staged = ws.scratch((self.key, "contig"), flat.shape, flat.dtype)
        staged[...] = flat
        return staged


class PassStep(Step):
    """Identity at inference time (``Identity``, eval-mode ``Dropout``)."""

    def __init__(self, key: str) -> None:
        self.key = key

    def run(self, x, ws: WorkspacePool):
        return x


class MaxPoolStep(Step):
    """``max_pool2d`` as a window fold — no columns, argmax, or gather index."""

    def __init__(self, key: str, kernel: int, stride: int) -> None:
        self.key = key
        self.kernel = kernel
        self.stride = stride

    def run(self, x, ws: WorkspacePool):
        acc = max_pool_fold(x, self.kernel, self.stride, ws, (self.key,))
        return acc.transpose(3, 0, 1, 2)


class AvgPoolStep(Step):
    """``avg_pool2d`` with a pooled column-mean buffer."""

    def __init__(self, key: str, kernel: int, stride: int) -> None:
        self.key = key
        self.kernel = kernel
        self.stride = stride

    def run(self, x, ws: WorkspacePool):
        batch, channels, height, width = x.shape
        out_h = conv_output_size(height, self.kernel, self.stride, 0)
        out_w = conv_output_size(width, self.kernel, self.stride, 0)
        cols = pool_cols_pooled(x, self.kernel, self.stride, ws, (self.key,))
        mean = ws.scratch((self.key, "mean"), (cols.shape[1],), cols.dtype)
        np.mean(cols, axis=0, out=mean)
        return mean.reshape(out_h, out_w, channels, batch).transpose(3, 2, 0, 1)


class GlobalAvgPoolStep(Step):
    """Spatial mean as sum × 0-d float64 reciprocal, matching ``Tensor.mean``."""

    def __init__(self, key: str) -> None:
        self.key = key

    def run(self, x, ws: WorkspacePool):
        height, width = x.shape[2], x.shape[3]
        summed = x.sum(axis=(2, 3))
        out = ws.scratch(
            (self.key, "out"),
            summed.shape,
            np.result_type(summed.dtype, np.float64),
        )
        np.multiply(summed, np.asarray(1.0 / (height * width)), out=out)
        return out


class BatchNormStep(Step):
    """Eval-mode ``BatchNorm2d`` (running statistics; float64 via 0-d eps)."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module

    def run(self, x, ws: WorkspacePool):
        return batchnorm_eval(x, self.module)


class DenseLayerStep(Step):
    """DenseNet layer: ``concat([x, relu(bn(conv(x)))], axis=1)``."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module
        self.conv = ConvStep(f"{key}.conv", module.conv)

    def run(self, x, ws: WorkspacePool):
        new = batchnorm_eval(self.conv.run(x, ws), self.module.bn)
        np.maximum(new, 0.0, out=new)
        batch, channels, height, width = x.shape
        out = ws.scratch(
            (self.key, "out"),
            (batch, channels + self.module.growth, height, width),
            np.result_type(x.dtype, np.float64),
        )
        np.concatenate([x, new], axis=1, out=out)
        return out


class TransitionStep(Step):
    """DenseNet transition: ``avg_pool2d(relu(bn(conv1x1(x))), kernel=2)``."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module
        self.conv = ConvStep(f"{key}.conv", module.conv)
        self.pool = AvgPoolStep(f"{key}.pool", kernel=2, stride=2)

    def run(self, x, ws: WorkspacePool):
        pre = batchnorm_eval(self.conv.run(x, ws), self.module.bn)
        np.maximum(pre, 0.0, out=pre)
        return self.pool.run(pre, ws)


# -- compilation ----------------------------------------------------------------


def _lower(module, key: str, steps: list) -> None:
    """Append the step sequence for ``module`` to ``steps`` (depth-first)."""
    from repro.nn.conv import Conv2d
    from repro.nn.layers import Dense, Dropout, Flatten, Identity, ReLU, Softmax, Tanh
    from repro.nn.norm import BatchNorm2d
    from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
    from repro.nn.sequential import Sequential
    from repro.zoo.densenet import DenseLayer, TransitionLayer

    if isinstance(module, Sequential):
        for position, child in enumerate(module):
            _lower(child, f"{key}.{position}", steps)
    elif isinstance(module, Conv2d):
        steps.append(ConvStep(key, module))
    elif isinstance(module, Dense):
        steps.append(DenseStep(key, module))
    elif isinstance(module, ReLU):
        steps.append(ReluStep(key))
    elif isinstance(module, Tanh):
        steps.append(TanhStep(key))
    elif isinstance(module, Softmax):
        steps.append(SoftmaxStep(key))
    elif isinstance(module, Flatten):
        steps.append(FlattenStep(key))
    elif isinstance(module, (Identity, Dropout)):
        steps.append(PassStep(key))
    elif isinstance(module, MaxPool2d):
        steps.append(MaxPoolStep(key, module.kernel, module.stride))
    elif isinstance(module, AvgPool2d):
        steps.append(AvgPoolStep(key, module.kernel, module.stride))
    elif isinstance(module, GlobalAvgPool2d):
        steps.append(GlobalAvgPoolStep(key))
    elif isinstance(module, BatchNorm2d):
        steps.append(BatchNormStep(key, module))
    elif isinstance(module, DenseLayer):
        steps.append(DenseLayerStep(key, module))
    elif isinstance(module, TransitionLayer):
        steps.append(TransitionStep(key, module))
    else:
        raise UnsupportedModuleError(
            f"no inference-plan lowering for {type(module).__name__} at {key!r}"
        )


def compile_plan(model) -> "InferencePlan":
    """Lower every stage of a ``ProbedSequential`` into an `InferencePlan`.

    Raises :class:`UnsupportedModuleError` when any stage contains a module
    without a lowering — callers (see :func:`repro.infer.plan_for`) fall
    back to the Tensor path rather than partially compiling.
    """
    stages: list[tuple[str, list]] = []
    for name in model.stage_names:
        steps: list = []
        _lower(getattr(model, name), name, steps)
        if not steps:
            raise UnsupportedModuleError(f"stage {name!r} lowered to no steps")
        stages.append((name, steps))
    return InferencePlan(stages)


# -- execution ------------------------------------------------------------------

#: Images per depth-first tile of a plan's spatial prefix. Chunks whose
#: width is a multiple of this (and larger) run their conv stages one tile
#: at a time; see docs/inference.md for why the multiple keeps results
#: bit-identical.
TILE = 32

#: Steps that end a plan's spatial prefix: the first stage holding one of
#: these, and every stage after it, runs on the whole chunk.
_TAIL_STEPS = (FlattenStep, DenseStep, SoftmaxStep, GlobalAvgPoolStep)


def _spatial_prefix(stages: list[tuple[str, list]]) -> int:
    """How many leading non-final stages are per-image spatial stages."""
    count = 0
    for _, steps in stages[:-1]:
        if any(isinstance(step, _TAIL_STEPS) for step in steps):
            break
        count += 1
    return count


class InferencePlan:
    """A compiled forward: per-stage step lists plus a workspace pool.

    One plan may be shared by any number of threads — workspace buffers are
    per-thread (see :class:`WorkspacePool`), and steps themselves are
    stateless between calls.
    """

    def __init__(self, stages: list[tuple[str, list]]) -> None:
        self.stages = stages
        self.spatial = _spatial_prefix(stages)
        self.workspace = WorkspacePool()

    @property
    def stage_names(self) -> list[str]:
        return [name for name, _ in self.stages]

    def iter_chunks(self, images: np.ndarray, batch_size: int = 256, want_probes: bool = True):
        """Stream ``(start, probabilities, probes)`` per ``batch_size`` chunk.

        Matches ``ProbedSequential.iter_hidden_representations`` exactly:
        same chunk boundaries, bit-identical probabilities, and probes
        already flattened to ``(chunk, features)``. Yielded arrays are
        freshly allocated — they never alias workspace buffers, so callers
        may hold them across chunks (the engine accumulates then
        concatenates).
        """
        images = np.asarray(images)
        if images.dtype != np.float32:
            # Single up-front cast; already-float32 input is ingested
            # zero-copy (the Tensor path re-ran astype per chunk).
            images = images.astype(np.float32)
        for start in range(0, len(images), batch_size):
            chunk = images[start : start + batch_size]
            with obs.span("infer.forward", batch=len(chunk)):
                probs, probes = self._forward_chunk(chunk, want_probes)
            self.workspace.flush_metrics()
            yield start, probs, probes

    def predict_proba(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities only (hidden stages stay in pooled buffers)."""
        outputs = [
            probs
            for _, probs, _ in self.iter_chunks(
                images, batch_size=batch_size, want_probes=False
            )
        ]
        return np.concatenate(outputs, axis=0)

    def _forward_chunk(self, chunk: np.ndarray, want_probes: bool):
        # The spatial prefix runs depth-first, one TILE of images at a time,
        # so each conv's im2col columns and GEMM output stay tile-sized; the
        # dense tail then runs on the whole chunk. Widths that are not a
        # larger multiple of TILE run as a single tile.
        batch = len(chunk)
        final = len(self.stages) - 1
        width = TILE if batch > TILE and batch % TILE == 0 else batch
        # Full-width (N, features) stage outputs, allocated on first write.
        outputs: list = [None] * len(self.stages)
        x = chunk
        if self.spatial:
            prefix = range(self.spatial)
            for lo in range(0, batch, width):
                tile = chunk[lo : lo + width]
                x = self._run_stages(tile, prefix, lo, batch, outputs, want_probes)
            x = outputs[self.spatial - 1].reshape((batch, *x.shape[1:]))
        x = self._run_stages(
            x, range(self.spatial, final + 1), 0, batch, outputs, want_probes
        )
        return x, (outputs[:final] if want_probes else [])

    def _run_stages(
        self, x, positions, lo: int, batch: int, outputs: list, want_probes: bool
    ):
        """Run the stages at ``positions`` on rows ``[lo, lo + len(x))`` of a chunk.

        A kept stage output is copied into its rows of the stage's
        full-width ``(N, features)`` buffer — fused probe extraction, one
        tiled transpose per probe (``write_nchw``). Kept are the probes
        (when wanted) and the final probabilities, both freshly allocated
        as they are handed to the caller, and the last spatial stage's
        output, the tail's whole-chunk input, which otherwise lives in the
        workspace. The next stage reads the step's own result, usually a
        channel-major view, so no layout round trip sits between stages.
        """
        ws = self.workspace
        hi = lo + len(x)
        final = len(self.stages) - 1
        for position in positions:
            name, steps = self.stages[position]
            for step in steps:
                x = step.run(x, ws)
            handed_out = want_probes or position == final
            if not (handed_out or position == self.spatial - 1):
                continue
            if outputs[position] is None:
                shape = (batch, _prod(x.shape[1:]))
                outputs[position] = (
                    np.empty(shape, dtype=x.dtype)
                    if handed_out
                    else ws.scratch((name, "full"), shape, x.dtype)
                )
            rows = write_nchw(outputs[position][lo:hi].reshape(x.shape), x)
            if position == final:
                x = rows
        return x
