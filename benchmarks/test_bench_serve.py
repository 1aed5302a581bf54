"""Benchmark: micro-batched serving vs the per-request classify loop.

A 64-image request stream scored two ways through the same fitted
monitor, recorded to ``BENCH_serve.json`` at the repository root:

* **per-request** — 64 individual ``monitor.classify(image[None])``
  calls, the pre-serve deployment model (one forward pass + kernel
  sweep per request);
* **served** — the same 64 images submitted one-by-one to a
  :class:`~repro.serve.server.ValidationServer` (``max_batch=32``, one
  worker), which coalesces them into packed batches before scoring. The
  served monitor comes from a packed + store-loaded
  :class:`~repro.core.bundle.ValidatorBundle`, and the record embeds the
  active bundle version + fit fingerprint so a perf trajectory point is
  attributable to the exact deployed artifact.

The asserted bar is ``>= 3x`` images/sec for the served path. Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_serve.py -m bench -q
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import (
    BundleStore,
    DeepValidator,
    RuntimeMonitor,
    ValidatorBundle,
    ValidatorConfig,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ValidationServer

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parents[1]
STREAM = 64
MAX_BATCH = 32
WORKERS = 1


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fitted_validator():
    from tests.helpers import easy_image_task, train_tiny_model

    model, train_x, train_y, test_x, _ = train_tiny_model()
    validator = DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=60))
    validator.fit(train_x, train_y)
    noise = np.random.default_rng(0).random((40, 1, 12, 12))
    validator.calibrate_threshold(test_x[:40], noise)
    return validator


def _serving() -> tuple[dict, dict]:
    from tests.helpers import easy_image_task

    validator = _fitted_validator()
    images, _ = easy_image_task(STREAM, seed=99)
    monitor = RuntimeMonitor(validator)

    # The served path deploys the fit the way production does: packed into
    # a versioned bundle, loaded back through the store's integrity and
    # validation gates, and served under that version.
    with tempfile.TemporaryDirectory() as root:
        store = BundleStore(root)
        store.save(ValidatorBundle.pack(validator, version=1, name="bench"))
        loaded = store.load("bench", 1)
    served_validator = loaded.validator

    def per_request():
        # Fresh cache each repeat: identical request bytes would otherwise
        # hit the validator's content-addressed cache and time nothing.
        validator.score_cache.clear()
        for i in range(STREAM):
            monitor.classify(images[i : i + 1])

    def served():
        served_validator.score_cache.clear()
        with ValidationServer(
            loaded.monitor(),
            ServeConfig(
                max_batch=MAX_BATCH,
                max_wait_ms=50.0,
                queue_depth=2 * STREAM,
                workers=WORKERS,
            ),
            bundle_version=loaded.manifest.key,
        ) as server:
            futures = [server.submit(image) for image in images]
            for future in futures:
                verdict = future.result(timeout=300.0)
                assert verdict.status in ("VALIDATED", "FLAGGED")

    per_request_sec = _best_seconds(per_request, repeats=2)
    served_sec = _best_seconds(served, repeats=3)
    serving = {
        "validated_layers": len(validator.validators),
        "per_request_images_per_sec": round(STREAM / per_request_sec, 1),
        "served_images_per_sec": round(STREAM / served_sec, 1),
        "speedup": round(per_request_sec / served_sec, 2),
    }
    bundle_info = {
        "name": loaded.manifest.name,
        "version": loaded.manifest.version,
        "key": loaded.manifest.key,
        "fingerprint": loaded.manifest.fingerprint,
    }
    return serving, bundle_info


def _metrics_summary(snapshot: dict) -> dict:
    """Flatten the serve-layer metrics into the bench record.

    Tracks what the queueing layer actually did — request outcomes, how
    wide the coalesced batches came out, and cumulative queue wait — so
    the trajectory shows *why* the throughput moved, not just that it did.
    """
    requests = {
        series["labels"]["outcome"]: series["value"]
        for series in snapshot.get("serve_requests_total", {}).get("series", [])
    }
    sheds = {
        series["labels"]["reason"]: series["value"]
        for series in snapshot.get("serve_shed_total", {}).get("series", [])
    }
    restarts = sum(
        series["value"]
        for series in snapshot.get(
            "serve_worker_restarts_total", {}
        ).get("series", [])
    )
    # A healthy benchmark run sheds nothing and restarts nobody; a
    # non-zero value here flags a measurement perturbed by supervision.
    summary: dict = {
        "requests": requests,
        "sheds": sheds,
        "worker_restarts": restarts,
    }
    for name, key in (
        ("serve_batch_size", "batch_size"),
        ("serve_wait_seconds", "queue_wait_seconds"),
    ):
        series = snapshot.get(name, {}).get("series", [])
        count = sum(int(s["count"]) for s in series)
        total = sum(s["sum"] for s in series)
        summary[key] = {
            "count": count,
            "total": round(total, 4),
            "mean": round(total / count, 4) if count else None,
        }
    return summary


def test_micro_batched_serving_speedup(capsys):
    registry = MetricsRegistry()
    with obs.use(registry=registry):
        serving, bundle_info = _serving()
    record = {
        "benchmark": "serve-micro-batching",
        "stream": STREAM,
        "max_batch": MAX_BATCH,
        "workers": WORKERS,
        "bundle": bundle_info,
        "serving": serving,
        "metrics": _metrics_summary(registry.snapshot()),
    }
    (REPO_ROOT / "BENCH_serve.json").write_text(json.dumps(record, indent=2) + "\n")
    with capsys.disabled():
        print(
            f"\nserve bench: per-request "
            f"{serving['per_request_images_per_sec']:,.0f} ips, served "
            f"{serving['served_images_per_sec']:,.0f} ips "
            f"({serving['speedup']:.1f}x)"
        )
    assert serving["speedup"] >= 3.0, (
        f"micro-batched serving only {serving['speedup']:.1f}x over the "
        f"per-request loop"
    )
