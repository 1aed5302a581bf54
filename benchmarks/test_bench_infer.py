"""Benchmark: compiled inference plans vs the tape-building Tensor forward.

Two measurements on the paper-shaped MNIST CNN, recorded to
``BENCH_infer.json`` at the repository root so the inference-throughput
trajectory is tracked across PRs:

* **forward + probes** — a 256-image batch streamed through
  ``hidden_representations`` with the compiled plan versus the Tensor
  fallback: the exact work every scoring call pays per chunk. This is the
  asserted ``>= 2x``.
* **monitor classify** — the same model behind a fitted
  ``RuntimeMonitor.classify`` with the plan on versus off, showing how much
  of the forward-pass win survives once SVM scoring, calibration, and
  verdict assembly join the hot path. This is the asserted ``>= 1.3x``.

Both timed paths are first pinned bit-identical (``==``, same dtypes), so
the speedup is for *the same numbers*, not a relaxed rebuild.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_infer.py -m bench -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import infer, obs
from repro.core.monitor import RuntimeMonitor
from repro.core.validator import DeepValidator, ValidatorConfig
from repro.obs.metrics import MetricsRegistry
from repro.zoo.architectures import mnist_cnn

pytestmark = [pytest.mark.bench, pytest.mark.infer]

REPO_ROOT = Path(__file__).resolve().parents[1]
BATCH = 256
WIDTH = 8


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _forward_probes() -> dict:
    model = mnist_cnn(width=WIDTH)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((BATCH, 1, 28, 28)).astype(np.float32)

    # Equivalence guard: the timing below compares bit-identical results.
    probs_t, reps_t = model.hidden_representations(images, compiled=False)
    probs_p, reps_p = model.hidden_representations(images, compiled=True)
    np.testing.assert_array_equal(probs_p, probs_t)
    assert probs_p.dtype == probs_t.dtype
    for rep_p, rep_t in zip(reps_p, reps_t):
        np.testing.assert_array_equal(rep_p, rep_t)
        assert rep_p.dtype == rep_t.dtype

    tensor_sec = _best_seconds(
        lambda: model.hidden_representations(images, compiled=False)
    )
    plan_sec = _best_seconds(
        lambda: model.hidden_representations(images, compiled=True), repeats=5
    )
    return {
        "probes": len(reps_t),
        "tensor_images_per_sec": round(BATCH / tensor_sec, 1),
        "plan_images_per_sec": round(BATCH / plan_sec, 1),
        "speedup": round(tensor_sec / plan_sec, 2),
    }


def _monitor_classify() -> dict:
    model = mnist_cnn(width=WIDTH)
    rng = np.random.default_rng(1)
    train = rng.standard_normal((400, 1, 28, 28)).astype(np.float32)
    # Label with the model's own predictions (every image "correctly
    # classified"), keeping only classes populous enough to fit a
    # reference distribution — the fit just has to succeed; classify
    # timing is what's measured.
    predicted = model.predict(train)
    counts = np.bincount(predicted, minlength=10)
    keep = np.isin(predicted, np.flatnonzero(counts >= 10))
    train, labels = train[keep], predicted[keep]
    validator = DeepValidator(model, ValidatorConfig(max_per_class=20))
    validator.fit(train, labels)
    monitor = RuntimeMonitor(validator)
    images = rng.standard_normal((BATCH, 1, 28, 28)).astype(np.float32)

    def classify_with(enabled: bool):
        def run():
            infer.set_plan_enabled(enabled)
            # Fresh bytes + a cleared cache so the validator's content-hash
            # LRU cannot short-circuit the measurement.
            validator.score_cache.clear()
            monitor.classify(images.copy())

        return run

    try:
        # Equivalence guard: verdict-level identity between the two paths.
        infer.set_plan_enabled(False)
        validator.score_cache.clear()
        verdicts_t = monitor.classify(images.copy())
        infer.set_plan_enabled(True)
        validator.score_cache.clear()
        verdicts_p = monitor.classify(images.copy())
        assert [v.prediction for v in verdicts_p] == [v.prediction for v in verdicts_t]
        assert [v.status for v in verdicts_p] == [v.status for v in verdicts_t]
        np.testing.assert_array_equal(
            [v.joint_discrepancy for v in verdicts_p],
            [v.joint_discrepancy for v in verdicts_t],
        )

        tensor_sec = _best_seconds(classify_with(False))
        plan_sec = _best_seconds(classify_with(True), repeats=5)
    finally:
        infer.set_plan_enabled(None)
    return {
        "validated_layers": len(validator.validators),
        "tensor_images_per_sec": round(BATCH / tensor_sec, 1),
        "plan_images_per_sec": round(BATCH / plan_sec, 1),
        "speedup": round(tensor_sec / plan_sec, 2),
    }


def _metrics_summary(snapshot: dict) -> dict:
    """Flatten the run's inference-path observability into the record.

    Captures how often plans compiled, the workspace reuse rate (the
    whole point of pooling: after warmup it should be nearly all hits),
    and where hashing time went — so the JSON trajectory shows *why* the
    throughput moved, not just that it did.
    """
    compile_series = snapshot.get("infer_plan_compile_seconds", {}).get("series", [])
    compiles = {
        "count": int(sum(series["count"] for series in compile_series)),
        "total_seconds": round(
            sum(series["sum"] for series in compile_series), 4
        ),
    }
    reuse = {
        series["labels"]["result"]: int(series["value"])
        for series in snapshot.get("infer_workspace_reuse_total", {}).get("series", [])
    }
    hits = reuse.get("hit", 0)
    total = hits + reuse.get("miss", 0)
    hash_seconds = {}
    for series in snapshot.get("cache_hash_seconds", {}).get("series", []):
        hash_seconds[series["labels"]["caller"]] = {
            "count": int(series["count"]),
            "total_seconds": round(series["sum"], 4),
        }
    return {
        "plan_compiles": compiles,
        "workspace": {
            "hits": hits,
            "misses": reuse.get("miss", 0),
            "hit_rate": round(hits / total, 4) if total else None,
        },
        "hash_seconds": hash_seconds,
    }


def test_compiled_plan_speedup(capsys):
    registry = MetricsRegistry()
    with obs.use(registry=registry):
        forward = _forward_probes()
        classify = _monitor_classify()
    record = {
        "benchmark": "infer-compiled-plan",
        "batch": BATCH,
        "model": "mnist_cnn",
        "width": WIDTH,
        "forward_probes": forward,
        "monitor_classify": classify,
        "metrics": _metrics_summary(registry.snapshot()),
    }
    (REPO_ROOT / "BENCH_infer.json").write_text(json.dumps(record, indent=2) + "\n")
    with capsys.disabled():
        print(
            f"\ninfer bench forward+probes: tensor "
            f"{forward['tensor_images_per_sec']:,.0f} ips, plan "
            f"{forward['plan_images_per_sec']:,.0f} ips "
            f"({forward['speedup']:.2f}x); monitor classify "
            f"{classify['speedup']:.2f}x"
        )
    # The compiled plan must at least double forward+probe throughput...
    assert forward["speedup"] >= 2.0, f"plan only {forward['speedup']:.2f}x"
    # ...and still show up end-to-end once scoring joins the hot path.
    assert classify["speedup"] >= 1.3, (
        f"classify only {classify['speedup']:.2f}x with the plan on"
    )
