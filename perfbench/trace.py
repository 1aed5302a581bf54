"""Scoped tracing for the traced run, and per-layer figures read from it.

A traced run gives each phase its own :class:`~repro.obs.MetricsRegistry`
and :class:`~repro.obs.Tracer` through ``obs.use``, so the counters and
spans the program already emits are attributed to one phase. The
benchmark's own spans (``bench.*``) go to the same tracer, so program
spans on the same thread nest under them. Nothing is added to ``src/``.
An untraced run makes none of this and leaves ``repro.obs`` at its
process defaults, exactly as a deployment gets it.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro import obs
from repro.obs import MetricsRegistry, Tracer

from perfbench import stats


class Phases:
    """Per-phase registries and tracers (traced run) or nothing (untraced)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.registries: dict[str, MetricsRegistry] = {}
        self.tracers: dict[str, Tracer] = {}
        self.records: list[dict] = []  # cross-thread request spans

    @contextmanager
    def phase(self, name: str):
        """Scope ``repro.obs`` to a fresh registry and tracer for ``name``."""
        if not self.enabled:
            yield None
            return
        registry, tracer = MetricsRegistry(), Tracer(clock=time.perf_counter)
        self.registries[name], self.tracers[name] = registry, tracer
        with obs.use(registry=registry, tracer=tracer):
            yield tracer

    def span(self, name: str, **attributes):
        """A ``bench.*`` span on the current phase's tracer (no-op untraced)."""
        if not self.enabled:
            return nullcontext()
        return obs.get_tracer().span(name, **attributes)

    def add_requests(self, record) -> None:
        """Record a ``stream`` phase's requests as two spans sharing a request id:
        ``bench.request`` (due time to verdict) and ``bench.submit``."""
        if not self.enabled:
            return
        for i in range(record.attempted):
            request = {"request": record.phase.first + i, "phase": record.phase.name}
            end = record.done[i]
            self.records.append(
                {"name": "bench.request", "start": record.due[i],
                 "end": None if math.isnan(end) else end,  # no verdict came back
                 "outcome": record.outcome[i] or "ok", **request}
            )
            self.records.append(
                {"name": "bench.submit", "start": record.sent[i], "end": record.submitted[i],
                 **request}
            )

    def spans(self, phase: str) -> list:
        tracer = self.tracers.get(phase)
        return [] if tracer is None else tracer.exporter.spans

    def write(self, path: Path) -> None:
        """Write every span of the run as JSON (called once, at the end)."""
        out = {
            phase: [
                {
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "start": s.start,
                    "end": s.end,
                    "attributes": {k: _plain(v) for k, v in s.attributes.items()},
                }
                for s in tracer.exporter.spans
            ]
            for phase, tracer in self.tracers.items()
        }
        out["bench.request"] = self.records
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(out))


def _plain(value):
    return value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)


# -- reading spans -------------------------------------------------------------


def self_times(spans: list, name: str) -> list[float]:
    """Self time (s) of every span called ``name``: duration minus children."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return [
        stats.self_time(
            (span.start, span.end),
            [(c.start, c.end) for c in children.get(span.span_id, [])],
        )
        for span in spans
        if span.name == name
    ]


def durations(spans: list, name: str, **attributes) -> list[float]:
    """Durations (s) of the spans called ``name`` whose attributes match."""
    return [
        span.duration
        for span in spans
        if span.name == name
        and all(span.attributes.get(k) == v for k, v in attributes.items())
    ]


def child_sums(spans: list, parent_name: str, child_name: str) -> list[tuple[int, float]]:
    """For each ``parent_name`` span: ``(batch attribute, summed child durations)``."""
    by_parent: dict[int, float] = {}
    for span in spans:
        if span.name == child_name:
            by_parent[span.parent_id] = by_parent.get(span.parent_id, 0.0) + span.duration
    return [
        (span.attributes.get("batch", 0), by_parent.get(span.span_id, 0.0))
        for span in spans
        if span.name == parent_name
    ]


# -- reading metrics -----------------------------------------------------------


def counter(registry: MetricsRegistry, name: str, **labels) -> float:
    """Sum of a counter family's series whose labels match (0 if absent)."""
    family = registry.snapshot().get(name)
    if family is None:
        return 0.0
    return sum(
        series["value"]
        for series in family["series"]
        if all(series["labels"].get(k) == v for k, v in labels.items())
    )


def histogram(registry: MetricsRegistry, name: str, **labels):
    """Merged ``(bounds, per-bucket counts, sum, count)`` of a histogram family."""
    family = next((f for f in registry.families() if f.name == name), None)
    children = [
        child
        for series_labels, child in ([] if family is None else family.series())
        if all(series_labels.get(k) == v for k, v in labels.items())
    ]
    if not children:
        return (), [], 0.0, 0
    merged = children[0]
    for child in children[1:]:
        merged = merged.merge(child)
    return merged.bounds, list(merged.bucket_counts), merged.sum, merged.count


def histogram_mean(registries: list[MetricsRegistry], name: str, **labels) -> float:
    """Mean observation of a histogram family across ``registries`` (0 if empty)."""
    total = count = 0.0
    for registry in registries:
        _, _, s, c = histogram(registry, name, **labels)
        total += s
        count += c
    return total / count if count else 0.0
