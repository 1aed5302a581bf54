"""Benchmark: batched validator scoring vs the per-sample reference loop.

Two measurements on a 256-sample synthetic batch, recorded to
``BENCH_engine.json`` at the repository root so the samples/sec trajectory
is tracked across PRs:

* **end-to-end** — a 256-image batch scored through
  ``DeepValidator.discrepancies`` versus the pre-batching cost model of
  scoring each image individually through
  ``DeepValidator.reference_discrepancies``
  (one forward pass + per-class SVM loop per image, exactly what the
  runtime monitor used to pay per request). This is the asserted ``>= 5x``.
* **scoring-only** — the packed stacked-SVM scorer versus one
  ``LayerValidator.discrepancy`` call per sample on fixed representations,
  isolating the kernel-path rewrite from the forward pass.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine.py -m bench -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parents[1]
BATCH = 256
CLASSES = 10
DIM = 32
PER_CLASS = 100


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _scoring_only() -> dict:
    rng = np.random.default_rng(0)
    reps = np.concatenate(
        [rng.normal(loc=1.2 * klass, size=(PER_CLASS, DIM)) for klass in range(CLASSES)]
    )
    labels = np.repeat(np.arange(CLASSES), PER_CLASS)
    validator = LayerValidator(
        0, "probe0", ValidatorConfig(nu=0.1, max_per_class=PER_CLASS)
    )
    validator.fit(reps, labels, rng=0)
    queries = rng.normal(scale=1.5, size=(BATCH, DIM))
    predicted = rng.integers(0, CLASSES, size=BATCH)
    validator.packed()  # build the pack outside the timed region

    # Equivalence guard so the timing compares identical work.
    np.testing.assert_allclose(
        validator.discrepancy_batched(queries, predicted),
        np.array(
            [
                validator.discrepancy(queries[i : i + 1], predicted[i : i + 1])[0]
                for i in range(BATCH)
            ]
        ),
        atol=1e-8,
        rtol=0,
    )

    def per_sample():
        for i in range(BATCH):
            validator.discrepancy(queries[i : i + 1], predicted[i : i + 1])

    per_sample_sec = _best_seconds(per_sample)
    batched_sec = _best_seconds(
        lambda: validator.discrepancy_batched(queries, predicted)
    )
    return {
        "support_vectors": validator.packed().n_support,
        "per_sample_samples_per_sec": round(BATCH / per_sample_sec, 1),
        "batched_samples_per_sec": round(BATCH / batched_sec, 1),
        "speedup": round(per_sample_sec / batched_sec, 2),
    }


def _end_to_end() -> dict:
    from tests.helpers import easy_image_task, train_tiny_model

    model, train_x, train_y, _, _ = train_tiny_model()
    validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
    validator.fit(train_x, train_y)
    images, _ = easy_image_task(BATCH, seed=99)

    # Equivalence guard (identical forward chunking on both paths).
    np.testing.assert_allclose(
        validator.discrepancies(images)[1],
        validator.reference_discrepancies(images)[1],
        atol=1e-8,
        rtol=0,
    )
    # Re-score the batch the guard just cached so the recorded snapshot
    # also exercises the hit path of the content-addressed cache.
    validator.discrepancies(images)

    def per_sample():
        for i in range(BATCH):
            validator.reference_discrepancies(images[i : i + 1])

    def batched():
        # Fresh array each call so the score cache cannot short-circuit the
        # measurement (content hashing would hit on identical bytes).
        validator.score_cache.clear()
        validator.discrepancies(images.copy())

    per_sample_sec = _best_seconds(per_sample, repeats=2)
    batched_sec = _best_seconds(batched, repeats=3)
    return {
        "validated_layers": len(validator.validators),
        "per_sample_samples_per_sec": round(BATCH / per_sample_sec, 1),
        "batched_samples_per_sec": round(BATCH / batched_sec, 1),
        "speedup": round(per_sample_sec / batched_sec, 2),
    }


def _metrics_summary(snapshot: dict) -> dict:
    """Flatten the run's observability snapshot into the bench record.

    Captures the score-cache hit rate and the instrumented per-stage
    wall-time histograms so the JSON trajectory tracks *where* the time
    goes, not just the headline samples/sec.
    """
    requests = {
        series["labels"]["result"]: series["value"]
        for series in snapshot.get("engine_cache_requests_total", {}).get("series", [])
    }
    hits = requests.get("hit", 0.0)
    total = hits + requests.get("miss", 0.0)
    stage_seconds = {}
    for name in ("engine_layer_score_seconds", "svm_packed_gemm_seconds"):
        for series in snapshot.get(name, {}).get("series", []):
            key = name
            if series["labels"]:
                key += "." + next(iter(series["labels"].values()))
            stage_seconds[key] = {
                "count": int(series["count"]),
                "total_seconds": round(series["sum"], 4),
            }
    return {
        "cache": {
            "hits": hits,
            "misses": requests.get("miss", 0.0),
            "hit_rate": round(hits / total, 4) if total else None,
        },
        "stage_seconds": stage_seconds,
    }


def test_batched_engine_speedup(capsys):
    registry = MetricsRegistry()
    with obs.use(registry=registry):
        scoring = _scoring_only()
        end_to_end = _end_to_end()
    record = {
        "benchmark": "engine-batched-scoring",
        "batch": BATCH,
        "classes": CLASSES,
        "dim": DIM,
        "scoring_only": scoring,
        "end_to_end": end_to_end,
        "metrics": _metrics_summary(registry.snapshot()),
    }
    (REPO_ROOT / "BENCH_engine.json").write_text(json.dumps(record, indent=2) + "\n")
    with capsys.disabled():
        print(
            f"\nengine bench end-to-end: per-sample "
            f"{end_to_end['per_sample_samples_per_sec']:,.0f} sps, batched "
            f"{end_to_end['batched_samples_per_sec']:,.0f} sps "
            f"({end_to_end['speedup']:.1f}x); scoring-only "
            f"{scoring['speedup']:.1f}x"
        )
    # The scoring rewrite must beat the per-sample loop even before the
    # forward pass enters the picture...
    assert scoring["speedup"] >= 2.0, f"scoring-only speedup {scoring['speedup']:.1f}x"
    # ...and the engine as deployed must clear the 5x bar.
    assert end_to_end["speedup"] >= 5.0, (
        f"engine only {end_to_end['speedup']:.1f}x over the per-sample loop"
    )
