"""Tests of the benchmark's own arithmetic and seeded input generation.

Run from the repository root with::

    python -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, layers, report, stats


# -- seeded generation -----------------------------------------------------------


def _stream_bytes(seed: int) -> bytes:
    pool = inputs.StreamPool(seed, digits=16, jitters=8)
    phase = inputs.poisson_phase(seed, 0, "low", 200.0, 1.0, first=0)
    closed = inputs.closed_phase(seed, 2, "burst", 100, first=len(phase.due))
    frames = [pool.image(n, int(kind)) for n, kind in enumerate(phase.kinds[:40])]
    return b"".join(
        [pool.variants.tobytes(), pool.jitter.tobytes(), phase.due.tobytes(), phase.kinds.tobytes()]
        + [closed.kinds.tobytes()]
        + [frame.tobytes() for frame in frames]
    )


def _bulk_bytes(seed: int) -> bytes:
    pool = inputs.BulkPool(seed, pool=300)
    calls = [pool.next_indices(call) for call in range(12)]
    return pool.images.tobytes() + b"".join(
        indices.tobytes() + str(replayed).encode() for indices, replayed in calls
    )


def _refit_bytes(seed: int) -> bytes:
    data = inputs.refit_data(seed, train=40, calibration=5, check=4)
    return b"".join(
        array.tobytes()
        for array in (data.train_images, data.train_labels, data.clean, data.corner, data.check)
    )


@pytest.mark.parametrize("generate", [_stream_bytes, _bulk_bytes, _refit_bytes])
def test_same_seed_gives_identical_inputs_and_another_seed_differs(generate):
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_stream_requests_never_repeat_and_nan_frames_carry_a_nan():
    pool = inputs.StreamPool(0, digits=8, jitters=4)
    frames = [pool.image(n, inputs.CLEAN).tobytes() for n in range(pool.capacity)]
    assert len(set(frames)) == pool.capacity
    assert np.isnan(pool.image(5, inputs.NAN)).sum() == 1
    assert np.isfinite(pool.image(5, inputs.ROTATED)).all()
    with pytest.raises(ValueError):
        pool.image(pool.capacity, inputs.CLEAN)


def test_stream_mix_and_rate_follow_the_schedule():
    phase = inputs.poisson_phase(7, 1, "high", 1000.0, 20.0, first=0)
    assert phase.due[-1] < 20.0 and np.all(np.diff(phase.due) > 0)
    assert len(phase.due) == pytest.approx(20_000, rel=0.03)
    shares = np.bincount(phase.kinds, minlength=4) / len(phase.kinds)
    assert shares[inputs.NAN] == pytest.approx(inputs.NAN_SHARE, abs=0.003)
    assert shares[inputs.ROTATED] + shares[inputs.CONTRAST] == pytest.approx(
        inputs.CORNER_SHARE, abs=0.01
    )


def test_bulk_replays_one_call_in_four_from_the_cache_window():
    pool = inputs.BulkPool(1, pool=300)
    fresh = []
    for call in range(40):
        indices, replayed = pool.next_indices(call)
        if call % 4 == 3:
            assert replayed is not None
            assert len(fresh) - replayed <= inputs.BulkPool.REPLAY_WINDOW
            assert np.array_equal(indices, fresh[replayed])
        else:
            assert replayed is None
            fresh.append(indices)
    assert len({f.tobytes() for f in fresh}) == len(fresh)


# -- percentiles and the tail rule -----------------------------------------------


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(5.0, 517))
    for q in (0, 1, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize(
    "n, label", [(1000, "p99"), (999, "p95"), (200, "p95"), (199, "p90"), (100, "p90"), (99, "max")]
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, label):
    values = list(range(n))
    got, value = stats.tail(values)
    assert got == label
    if label == "max":
        assert value == n - 1
    else:
        q = float(label[1:])
        assert value == pytest.approx(np.percentile(values, q))
        assert sum(v > value for v in values) >= 10 - 1  # interpolation edge


def test_windowed_p99_ignores_a_stall_confined_to_one_window():
    values = [10.0] * 5000
    values[100:160] = [500.0] * 60  # one stall, all inside the first window
    label, value, windows = stats.windowed_p99(values)
    assert (label, windows) == ("p99", 5)
    assert value == 10.0
    assert stats.tail(values)[1] > 10.0  # the whole-sample tail does see it


# -- latency, lateness and self time ---------------------------------------------


def test_latency_counts_from_the_due_time_and_lateness_from_the_schedule():
    due = [1.000, 1.010, 1.020]
    sent = [1.000, 1.030, 1.019]  # the second request went out 20 ms late
    done = [1.005, 1.040, None]
    assert stats.latencies_ms(due, done) == pytest.approx([5.0, 30.0, None])
    assert stats.lateness_ms(due, sent) == pytest.approx([0.0, 20.0, 0.0])


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = (0.0, 10.0)
    children = [(1.0, 4.0), (3.0, 5.0), (4.5, 6.0), (9.0, 12.0), (-2.0, -1.0)]
    # covered: [1, 6] plus [9, 10] = 6; self = 10 - 6
    assert stats.self_time(parent, children) == pytest.approx(4.0)
    assert stats.self_time(parent, []) == pytest.approx(10.0)
    assert stats.self_time(parent, [(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(0.0)


def test_histogram_quantile_reads_the_bucket_upper_edge():
    bounds = (0.001, 0.005, 0.01)
    counts = [50, 40, 9, 1]  # the last count is the +Inf bucket
    assert stats.histogram_quantile(bounds, counts, 0.50) == 0.001
    assert stats.histogram_quantile(bounds, counts, 0.90) == 0.005
    assert stats.histogram_quantile(bounds, counts, 0.99) == 0.01
    assert stats.histogram_quantile(bounds, counts, 1.00) == math.inf
    assert stats.histogram_quantile(bounds, [0, 0, 0, 0], 0.5) == 0.0


# -- the declared metrics ---------------------------------------------------------


def test_result_lines_carry_exactly_the_declared_metrics_and_units():
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (unit, _) in report.END_TO_END.items()
    }
    assert [m["name"] for m in declared["per_layer"]] == list(layers.RESULT_METRICS)
    assert all(m["unit"] == layers.UNITS[m["name"]] for m in declared["per_layer"])
