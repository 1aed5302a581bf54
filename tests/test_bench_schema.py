"""Schema tests for the committed benchmark trajectory records.

The ``BENCH_*.json`` records at the repository root are
rewritten by the ``-m bench`` runners and committed so the perf
trajectory is reviewable across PRs. These tests pin the record *shape*
(keys and value types, including the embedded observability summary) so
a bench refactor cannot silently drop a field that downstream tooling or
a reviewer relies on. Values themselves are machine-dependent and stay
unchecked.
"""

import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str) -> dict:
    path = REPO_ROOT / name
    if not path.exists():
        pytest.fail(f"{name} missing: run the -m bench suite to regenerate it")
    return json.loads(path.read_text())


def _assert_stage_seconds(stage_seconds):
    assert isinstance(stage_seconds, dict) and stage_seconds
    for stage, timing in stage_seconds.items():
        assert isinstance(stage, str)
        assert set(timing) == {"count", "total_seconds"}
        assert isinstance(timing["count"], int) and timing["count"] > 0
        assert isinstance(timing["total_seconds"], (int, float))
        assert timing["total_seconds"] >= 0


class TestEngineBenchRecord:
    def test_top_level_schema(self):
        record = _load("BENCH_engine.json")
        assert set(record) == {
            "benchmark",
            "batch",
            "classes",
            "dim",
            "scoring_only",
            "end_to_end",
            "metrics",
        }
        assert record["benchmark"] == "engine-batched-scoring"
        for key in ("batch", "classes", "dim"):
            assert isinstance(record[key], int)

    def test_measurement_sections(self):
        record = _load("BENCH_engine.json")
        assert set(record["scoring_only"]) == {
            "support_vectors",
            "per_sample_samples_per_sec",
            "batched_samples_per_sec",
            "speedup",
        }
        assert set(record["end_to_end"]) == {
            "validated_layers",
            "per_sample_samples_per_sec",
            "batched_samples_per_sec",
            "speedup",
        }
        for section in (record["scoring_only"], record["end_to_end"]):
            assert section["speedup"] > 0

    def test_metrics_summary(self):
        metrics = _load("BENCH_engine.json")["metrics"]
        assert set(metrics) == {"cache", "stage_seconds"}
        cache = metrics["cache"]
        assert set(cache) == {"hits", "misses", "hit_rate"}
        assert cache["hits"] >= 0 and cache["misses"] >= 0
        if cache["hits"] + cache["misses"]:
            assert 0.0 <= cache["hit_rate"] <= 1.0
        else:
            assert cache["hit_rate"] is None
        _assert_stage_seconds(metrics["stage_seconds"])
        # The instrumented hot paths must actually show up in the record.
        assert any(
            key.startswith("engine_layer_score_seconds.")
            for key in metrics["stage_seconds"]
        )
        assert "svm_packed_gemm_seconds" in metrics["stage_seconds"]


class TestServeBenchRecord:
    def test_top_level_schema(self):
        record = _load("BENCH_serve.json")
        assert set(record) == {
            "benchmark",
            "stream",
            "max_batch",
            "workers",
            "bundle",
            "serving",
            "metrics",
        }
        assert record["benchmark"] == "serve-micro-batching"
        for key in ("stream", "max_batch", "workers"):
            assert isinstance(record[key], int)

    def test_bundle_section(self):
        # The perf point is attributable to the exact deployed artifact:
        # the served monitor came from a versioned, fingerprinted bundle.
        bundle = _load("BENCH_serve.json")["bundle"]
        assert set(bundle) == {"name", "version", "key", "fingerprint"}
        assert isinstance(bundle["version"], int) and bundle["version"] >= 1
        assert bundle["key"] == f"{bundle['name']}@v{bundle['version']}"
        assert re.fullmatch(r"[0-9a-f]{64}", bundle["fingerprint"])

    def test_measurement_section(self):
        serving = _load("BENCH_serve.json")["serving"]
        assert set(serving) == {
            "validated_layers",
            "per_request_images_per_sec",
            "served_images_per_sec",
            "speedup",
        }
        assert serving["speedup"] > 0

    def test_metrics_summary(self):
        record = _load("BENCH_serve.json")
        metrics = record["metrics"]
        assert set(metrics) == {
            "requests", "batch_size", "queue_wait_seconds", "sheds",
            "worker_restarts",
        }
        # Every timed request stream completed (no overload/expiry during
        # a benchmark run would be a measurement bug, not a perf fact).
        assert metrics["requests"].get("completed", 0) > 0
        assert set(metrics["requests"]) <= {
            "completed",
            "overloaded",
            "expired",
            "quarantined_at_submit",
            "shed_slo",
            "shed_breaker",
            "shed_shutdown",
            "failed",
        }
        # A clean benchmark run: nothing shed, no worker restarted.
        assert set(metrics["sheds"]) <= {
            "queue_full", "slo", "breaker", "shutdown",
        }
        assert metrics["worker_restarts"] == 0
        for key in ("batch_size", "queue_wait_seconds"):
            section = metrics[key]
            assert set(section) == {"count", "total", "mean"}
            assert section["count"] > 0
            assert section["total"] >= 0
        # Coalescing actually happened: mean scored batch is wider than
        # one request.
        assert metrics["batch_size"]["mean"] > 1.0


class TestInferBenchRecord:
    def test_top_level_schema(self):
        record = _load("BENCH_infer.json")
        assert set(record) == {
            "benchmark",
            "batch",
            "model",
            "width",
            "forward_probes",
            "monitor_classify",
            "metrics",
        }
        assert record["benchmark"] == "infer-compiled-plan"
        assert isinstance(record["model"], str)
        for key in ("batch", "width"):
            assert isinstance(record[key], int)

    def test_measurement_sections(self):
        record = _load("BENCH_infer.json")
        assert set(record["forward_probes"]) == {
            "probes",
            "tensor_images_per_sec",
            "plan_images_per_sec",
            "speedup",
        }
        assert set(record["monitor_classify"]) == {
            "validated_layers",
            "tensor_images_per_sec",
            "plan_images_per_sec",
            "speedup",
        }
        for section in (record["forward_probes"], record["monitor_classify"]):
            assert section["speedup"] > 0

    def test_metrics_summary(self):
        metrics = _load("BENCH_infer.json")["metrics"]
        assert set(metrics) == {"plan_compiles", "workspace", "hash_seconds"}
        compiles = metrics["plan_compiles"]
        assert set(compiles) == {"count", "total_seconds"}
        # Both benched models compiled exactly once inside the run —
        # recompiles during the timed loops would mean the plan cache broke.
        assert compiles["count"] == 2
        workspace = metrics["workspace"]
        assert set(workspace) == {"hits", "misses", "hit_rate"}
        assert workspace["hits"] >= 0 and workspace["misses"] >= 0
        if workspace["hits"] + workspace["misses"]:
            assert 0.0 <= workspace["hit_rate"] <= 1.0
            # Pooling must actually pool: warm iterations dominate the run.
            assert workspace["hit_rate"] > 0.5
        else:
            assert workspace["hit_rate"] is None
        for timing in metrics["hash_seconds"].values():
            assert set(timing) == {"count", "total_seconds"}
            assert timing["count"] > 0
            assert timing["total_seconds"] >= 0

