"""Metric arithmetic: percentiles, the tail rule, windowed p99, self time.

Pure functions over plain numbers so ``test_perfbench.py`` can pin each
rule on synthetic data.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Tail percentiles tried from highest to lowest by :func:`tail`.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100), as ``numpy.percentile``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    Returns ``(label, value)``; a sample too small for p90 (fewer than
    100 values) falls back to the maximum, labelled ``max``.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return f"p{q:g}", percentile(values, q)
    return "max", max(values)


def windowed(values: Sequence[float], windows: int, q: float) -> float:
    """Median over ``windows`` consecutive slices of percentile ``q`` in each.

    One stall inflates the percentile of its own window only, so the
    median of windowed percentiles repeats across runs where a single
    whole-phase percentile would not.
    """
    size = len(values) // windows
    if size == 0:
        raise ValueError(f"{len(values)} values cannot fill {windows} windows")
    return median(
        [percentile(values[i * size : (i + 1) * size], q) for i in range(windows)]
    )


def windowed_p99(values: Sequence[float], window: int = 1000) -> tuple[str, float, int]:
    """p99 per consecutive ``window`` of values (ten beyond each), median over windows.

    Returns ``(label, value, windows)``. A sample shorter than two windows
    falls back to :func:`tail` of the whole sample.
    """
    windows = len(values) // window
    if windows < 2:
        return (*tail(values), 1)
    return "p99", windowed(values, windows, 99.0), windows


def latencies_ms(
    due: Sequence[float], done: Sequence[float | None]
) -> list[float | None]:
    """Due-time latency per request (ms); ``None`` where no verdict came back.

    Measured from when the request was *due*, not when it was sent, so a
    stalled generator charges its delay to every request it held back.
    """
    return [
        None if end is None else (end - start) * 1000.0
        for start, end in zip(due, done)
    ]


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How far behind schedule the generator sent each request (ms, >= 0)."""
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


def self_time(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children may overlap each other and may stick out of the parent; only
    their union clipped to the parent's interval is subtracted.
    """
    start, end = interval
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    )
    covered = 0.0
    cursor = start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            covered += e - s
            cursor = e
    return (end - start) - covered


def histogram_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float:
    """Upper bound of the bucket holding quantile ``q`` (0-1) of a histogram.

    ``counts`` are per-bucket (not cumulative), one more than ``bounds``
    for the +Inf bucket. Resolution is the bucket width: the value read is
    the bucket's upper edge, which the output states.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for bound, count in zip(list(bounds) + [math.inf], counts):
        seen += count
        if seen >= rank:
            return bound
    return math.inf
