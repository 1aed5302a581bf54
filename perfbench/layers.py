"""Per-layer metrics of a traced run, read from outside the program.

Sources are the counters and histograms ``repro.obs`` already emits (read
from each phase's scoped registry), the spans it already emits plus the
benchmark's own ``bench.*`` spans (read from each phase's scoped tracer),
and counts computed from the deployed model and validator. Every workload
reports every metric in :data:`METRICS`; a layer a workload does not
exercise reads 0 there.
"""

from __future__ import annotations

from perfbench import fixtures, stats
from perfbench import trace as tr

#: ``(name, unit)`` of every per-layer metric, grouped by layer.
METRICS = (
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_width.mean", "count"),
    ("serve.batch_ms.p50", "ms"),
    ("serve.dispatch_self_ms.p50", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.generator_late_ms.p99", "ms"),
    ("monitor.classify_ms.w1", "ms"),
    ("monitor.classify_us_per_image.w256", "us"),
    ("monitor.self_ms.p50", "ms"),
    ("monitor.verdicts.VALIDATED", "count"),
    ("monitor.verdicts.FLAGGED", "count"),
    ("monitor.verdicts.DEGRADED", "count"),
    ("monitor.verdicts.QUARANTINED", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.hash_ms.mean", "ms"),
    ("engine.self_ms.p50", "ms"),
    ("infer.forward_us_per_image.w1", "us"),
    ("infer.forward_us_per_image.w256", "us"),
    ("infer.workspace_hit_ratio", "ratio"),
    ("infer.compile_ms", "ms"),
    ("infer.flops_per_image", "flop"),
    ("svm.score_us_per_image.w1", "us"),
    ("svm.score_us_per_image.w256", "us"),
    ("svm.gemm_ms", "ms"),
    ("svm.support_vectors", "count"),
    ("svm.flops_per_image", "flop"),
    ("svm.bytes_per_image", "B"),
    ("svm.smo_iterations", "count"),
    ("fit.predict_s", "s"),
    ("fit.plan_s", "s"),
    ("fit.extract_s", "s"),
    ("fit.solve_s", "s"),
    ("fit.tasks.pool", "count"),
    ("fit.tasks.inprocess", "count"),
    ("fit.retries", "count"),
    ("fit.fallbacks", "count"),
    ("fit.cycle_garbage_mb", "MB"),
    ("bundle.pack_s", "s"),
    ("bundle.save_s", "s"),
    ("bundle.load_s", "s"),
    ("bundle.bytes", "B"),
    ("obs.spans_retained_per_request", "count"),
)

UNITS = dict(METRICS)

#: The per-layer metrics a traced run's result line carries (those
#: ``BENCHMARK.json`` declares): the ones both declared workloads, ``bulk``
#: and ``refit``, measure. A layer a workload never runs reads 0 on every
#: run there, so ``serve``, ``fit`` and the width-specific figures are in
#: the report's ``per_layer`` section only.
RESULT_METRICS = (
    "monitor.self_ms.p50",
    "engine.cache_hit_ratio",
    "engine.hash_ms.mean",
    "engine.self_ms.p50",
    "infer.forward_us_per_image.w256",
    "infer.workspace_hit_ratio",
    "svm.gemm_ms",
    "svm.support_vectors",
    "svm.flops_per_image",
    "svm.bytes_per_image",
    "bundle.load_s",
    "bundle.bytes",
    "obs.spans_retained_per_request",
)

#: The timed phases of ``bulk`` and ``refit``; ``stream`` lists its own.
_TIMED = {"bulk": ("bulk",), "refit": ("refit",)}


def _p50(values) -> float:
    return stats.median(values) if values else 0.0


def model_flops(model, input_shape: tuple[int, int, int]) -> int:
    """Multiply-add FLOPs (x2) of one image through the conv and dense layers."""
    channels, height, width = input_shape
    flops = 0

    def walk(module) -> None:
        nonlocal channels, height, width, flops
        kind = type(module).__name__
        if kind == "Conv2d":
            height = (height + 2 * module.pad - module.kernel) // module.stride + 1
            width = (width + 2 * module.pad - module.kernel) // module.stride + 1
            flops += 2 * module.in_channels * module.kernel**2 * module.out_channels * height * width
            channels = module.out_channels
        elif kind == "MaxPool2d":
            height = (height - module.kernel) // module.stride + 1
            width = (width - module.kernel) // module.stride + 1
        elif kind == "Dense":
            flops += 2 * module.in_features * module.out_features
        for child in module.children():
            walk(child)

    walk(model)
    return flops


def svm_counts(validator) -> dict[str, float]:
    """Support vectors, and FLOPs and bytes of stacked rows read per image.

    Scoring one image against a layer reads every stacked row of that layer
    once (``M x (d + 1)`` float64) and spends two FLOPs per element; summed
    over validated layers. Computed from shapes, not measured.
    """
    support, flops, nbytes = 0, 0, 0
    for layer in validator.validators:
        pack = layer.packed()
        if pack is None:
            continue
        support += pack.n_support
        flops += 2 * pack.coef_rows.size
        nbytes += pack.coef_rows.nbytes
    return {
        "svm.support_vectors": support,
        "svm.flops_per_image": flops,
        "svm.bytes_per_image": nbytes,
    }


def per_layer(workload: str, outcome, phases: tr.Phases) -> dict[str, float]:
    """Every metric in :data:`METRICS` for one traced workload run."""
    m = dict.fromkeys(UNITS, 0.0)
    timed = outcome.notes.get("counted_phases") or _TIMED[workload]
    spans = [s for p in timed for s in phases.spans(p)]
    registries = [phases.registries[p] for p in timed]

    def counter(name: str, **labels) -> float:
        return sum(tr.counter(r, name, **labels) for r in registries)

    # -- serve ---------------------------------------------------------------
    if workload == "stream":
        high = phases.registries["high"]
        bounds, counts, _, _ = tr.histogram(high, "serve_wait_seconds")
        m["serve.queue_wait_ms.p50"] = stats.histogram_quantile(bounds, counts, 0.50) * 1e3
        m["serve.queue_wait_ms.p99"] = stats.histogram_quantile(bounds, counts, 0.99) * 1e3
        m["serve.batch_width.mean"] = tr.histogram_mean([high], "serve_batch_size")
        m["serve.batch_ms.p50"] = _p50(tr.durations(phases.spans("high"), "serve.batch")) * 1e3
        m["serve.dispatch_self_ms.p50"] = _p50(tr.self_times(phases.spans("low"), "serve.batch")) * 1e3
        records = outcome.notes["records"]
        m["serve.submit_us.p50"] = _p50(
            list((records["low"].submitted - records["low"].sent) * 1e6)
        )
        late = stats.lateness_ms(records["high"].due, records["high"].sent)
        m["serve.generator_late_ms.p99"] = stats.percentile(late, 99.0)
        m["serve.shed"] = counter("serve_shed_total")
        m["serve.expired"] = counter("serve_requests_total", outcome="expired")
        m["serve.worker_restarts"] = counter("serve_worker_restarts_total")
        # Width-1 figures come from the low phase, where a request is scored
        # alone instead of contending with a busy worker for the GIL.
        scoring_spans = phases.spans("low")
        m["monitor.classify_ms.w1"] = _p50(tr.durations(scoring_spans, "monitor.classify", batch=1)) * 1e3
    else:
        scoring_spans = spans

    # -- monitor / engine ----------------------------------------------------
    if workload == "bulk":
        # Cache misses only: a hit never opens the engine's compute span.
        misses = {s.parent_id for s in spans if s.name == "engine.discrepancies_resilient"}
        per_call = [
            s.duration / s.attributes["batch"]
            for s in spans
            if s.name == "monitor.classify" and s.span_id in misses
        ]
        m["monitor.classify_us_per_image.w256"] = _p50(per_call) * 1e6
        scoring_spans = [s for s in spans if s.span_id in misses or s.name != "monitor.classify"]
    m["monitor.self_ms.p50"] = _p50(tr.self_times(scoring_spans, "monitor.classify")) * 1e3
    for status in ("VALIDATED", "FLAGGED", "DEGRADED", "QUARANTINED"):
        m[f"monitor.verdicts.{status}"] = counter("monitor_verdicts_total", status=status)
    hits = counter("engine_cache_requests_total", result="hit")
    misses_n = counter("engine_cache_requests_total", result="miss")
    m["engine.cache_hit_ratio"] = hits / (hits + misses_n) if hits + misses_n else 0.0
    m["engine.hash_ms.mean"] = 1e3 * tr.histogram_mean(registries, "cache_hash_seconds")
    m["engine.self_ms.p50"] = _p50(tr.self_times(scoring_spans, "engine.discrepancies_resilient")) * 1e3

    # -- infer ---------------------------------------------------------------
    for width in (1, 256):
        m[f"infer.forward_us_per_image.w{width}"] = (
            _p50(tr.durations(scoring_spans, "infer.forward", batch=width)) * 1e6 / width
        )
        scored = [
            total / batch
            for batch, total in tr.child_sums(
                scoring_spans, "engine.discrepancies_resilient", "engine.layer_score"
            )
            if batch == width
        ]
        m[f"svm.score_us_per_image.w{width}"] = _p50(scored) * 1e6
    reuse_hits = counter("infer_workspace_reuse_total", result="hit")
    reuse_all = counter("infer_workspace_reuse_total")
    m["infer.workspace_hit_ratio"] = reuse_hits / reuse_all if reuse_all else 0.0
    setups = [r for name, r in phases.registries.items() if name.startswith("setup")]
    m["infer.compile_ms"] = 1e3 * tr.histogram_mean(setups, "infer_plan_compile_seconds")
    dataset = "synth-mnist" if workload == "stream" else "synth-svhn"
    model = fixtures.classifier(dataset).model
    shape = (1, 28, 28) if workload == "stream" else (3, 32, 32)
    m["infer.flops_per_image"] = model_flops(model, shape)

    # -- svm -----------------------------------------------------------------
    m["svm.gemm_ms"] = 1e3 * tr.histogram_mean(registries, "svm_packed_gemm_seconds")
    m.update(outcome.notes["svm_counts"])

    # -- fit / bundle --------------------------------------------------------
    load_spans = [s for name in phases.tracers if name.startswith("setup") for s in phases.spans(name)]
    m["bundle.load_s"] = _p50(tr.durations(load_spans, "bench.load"))
    m["bundle.bytes"] = outcome.notes.get("bundle_bytes", 0)
    if workload == "refit":
        cycles = outcome.notes["cycles"]
        for key in ("pack", "save", "load"):
            m[f"bundle.{key}_s"] = _p50([c[key] for c in cycles])
        m["svm.smo_iterations"] = _p50([c["smo_iterations"] for c in cycles])
        fits = tr.durations(spans, "bench.fit")
        pipelines = tr.durations(spans, "fit.pipeline")
        m["fit.predict_s"] = _p50([f - p for f, p in zip(fits, pipelines)])
        for stage in ("plan", "extract", "solve"):
            m[f"fit.{stage}_s"] = tr.histogram_mean(registries, "profile_stage_seconds", stage=f"fit.{stage}")
        m["fit.tasks.pool"] = counter("fit_tasks_total", mode="pool")
        m["fit.tasks.inprocess"] = counter("fit_tasks_total", mode="inprocess")
        m["fit.retries"] = counter("fit_pool_retries_total")
        m["fit.fallbacks"] = counter("fit_serial_fallback_total")
        m["fit.cycle_garbage_mb"] = _p50([c["garbage_mb"] for c in cycles])

    # -- obs -----------------------------------------------------------------
    program_spans = [s for s in spans if not s.name.startswith("bench.")]
    m["obs.spans_retained_per_request"] = len(program_spans) / outcome.notes["requests"]
    return {name: float(value) for name, value in m.items()}

