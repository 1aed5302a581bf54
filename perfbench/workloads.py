"""The three workloads: open-loop ``stream``, closed-loop ``bulk`` and ``refit``.

Each ``run_*`` function builds its seeded inputs (untimed), sets the
deployment up several times (timed: ``setup_s`` is the median), drives
the timed phases, reads peak RSS, and only then runs the correctness
gate. It returns a :class:`Outcome` carrying the workload's own metrics
under the names ``README.md`` defines.
"""

from __future__ import annotations

import gc
import math
import queue
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import BundleStore, DeepValidator, RuntimeMonitor, ValidatorBundle
from repro.serve import EXPIRED, OVERLOADED, ResultTimeout, ServeConfig, ValidationServer

from perfbench import fixtures, inputs, layers, stats
from perfbench.trace import Phases

#: Set-ups per run; ``setup_s`` is their median. ``stream`` sets up more
#: often because one set-up takes well under 0.1 s; ``refit`` fewer times
#: because each of its set-ups generates 3,000 images (about 2 s).
SETUP_REPEATS = 5
STREAM_SETUP_REPEATS = 9
REFIT_SETUP_REPEATS = 3

#: Percentile of cycle time that ``refit`` reports as its tail.
REFIT_TAIL_PERCENTILE = 75.0

#: Cross-partition tolerance of a served joint discrepancy against a
#: direct ``monitor.classify`` of the same image (float32 BLAS results
#: depend on the batch width; docs/serving.md).
JOINT_TOLERANCE = 1e-5

#: Open-loop stream phase rates (requests/s). ``LOW_RATE`` keeps the
#: mean batch width under 2. At ``HIGH_RATE`` micro-batches form: it is a
#: fixed rate about a third of the server's closed-loop capacity on a busy
#: 2-core host (about 3,000 req/s), so the phase stays under capacity, and
#: no request is shed, when the shared host slows.
LOW_RATE = 100.0
HIGH_RATE = 500.0

#: Share of ``--seconds`` given to each timed stream phase, in order.
STREAM_SHARES = (("low", 0.15), ("high", 0.3), ("burst", 0.55))

#: Single-image requests per ``burst``: the closed loop sends this many,
#: then waits for all of their verdicts. It fits the default queue depth
#: (256), so nothing is shed, and keeps the worker's batches full.
BURST = ServeConfig().queue_depth

#: ``burst`` sends a fixed number of bursts, this rate times its share of
#: ``--seconds`` (about the rate a busy 2-core host serves), so every run
#: does the same work; it stops early only past three times its share.
BURST_RATE = 4000.0

#: Seconds of untimed traffic between set-up and the first timed phase.
WARMUP_S = 1.0

#: Seconds a stream request may stay unanswered past its due time.
RESULT_TIMEOUT_S = 10.0

WORK_DIR = Path(__file__).resolve().parent / ".work"

FAILURE_KINDS = ("shed", "expired", "timeout", "raised", "wrong", "clean_quarantined")


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    failures: dict = field(default_factory=lambda: dict.fromkeys(FAILURE_KINDS, 0))
    phases: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail_check(self, message: str) -> None:
        self.correct = False
        if len(self.errors) < 20:
            self.errors.append(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize() / 2**20


def _timed_setups(
    setup, release=lambda result: None, repeats: int = SETUP_REPEATS
) -> tuple[list[float], object]:
    """Time ``setup(repeat)`` ``repeats`` times; keep the last result.

    Earlier results are released and collected (untimed) before the next
    set-up, so set-ups do not overlap in memory or threads: a deployment
    sets up once, in a process holding no earlier deployment.
    """
    times, result = [], None
    for repeat in range(repeats):
        if result is not None:
            release(result)
            result = None
            gc.collect()
        start = time.perf_counter()
        result = setup(repeat)
        times.append(time.perf_counter() - start)
    return times, result


# -- stream ----------------------------------------------------------------------


@dataclass
class StreamRecord:
    """Per-request timings, verdict fields and outcomes of one stream phase.

    Verdicts are kept as three flat arrays rather than as objects: tens of
    thousands of retained verdicts would lengthen the interpreter's
    collector pauses inside the very run that measures them.
    """

    phase: inputs.Phase
    due: np.ndarray  # absolute perf_counter due times (closed loop: send times)
    sent: np.ndarray
    submitted: np.ndarray  # when submit() returned
    done: np.ndarray  # when the verdict arrived; NaN if none did
    prediction: np.ndarray
    joint: np.ndarray
    status: list  # verdict status, None if none arrived
    outcome: list  # None = success, else a FAILURE_KINDS entry

    @classmethod
    def empty(cls, phase: inputs.Phase, due: np.ndarray) -> "StreamRecord":
        n = len(phase.kinds)
        return cls(
            phase=phase, due=due, sent=np.zeros(n), submitted=np.zeros(n),
            done=np.full(n, np.nan), prediction=np.full(n, -1), joint=np.full(n, np.nan),
            status=[None] * n, outcome=[None] * n,
        )

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return sum(o is not None for o in self.outcome)

    def _ok(self) -> np.ndarray:
        return np.array([o is None for o in self.outcome], dtype=bool)

    def served_rate(self) -> float:
        """Verdicts per second, from the first due time to the last verdict."""
        ends = self.done[self._ok()]
        return len(ends) / (ends.max() - self.due[0])

    def latencies(self) -> list[float]:
        ok = self._ok()
        return stats.latencies_ms(list(self.due[ok]), list(self.done[ok]))

    def await_verdict(self, i: int, future, timeout: float) -> None:
        """Wait for request ``i``'s verdict and record it, or its failure."""
        try:
            verdict = future.result(timeout=max(0.0, timeout))
            self.done[i] = time.perf_counter()
        except ResultTimeout:
            self.outcome[i] = "timeout"
            return
        except Exception:  # noqa: BLE001 — a raised request is a counted failure
            self.outcome[i] = "raised"
            return
        self.status[i] = verdict.status
        self.prediction[i] = verdict.prediction
        self.joint[i] = verdict.joint_discrepancy

    def classify_outcomes(self) -> None:
        """Mark shed, expired and wrongly quarantined verdicts as failures."""
        for i, status in enumerate(self.status):
            if status == OVERLOADED:
                self.outcome[i] = "shed"
            elif status == EXPIRED:
                self.outcome[i] = "expired"
            elif status is not None and (status == "QUARANTINED") != (
                self.phase.kinds[i] == inputs.NAN
            ):
                self.outcome[i] = (
                    "wrong" if self.phase.kinds[i] == inputs.NAN else "clean_quarantined"
                )


def drive(server: ValidationServer, pool: inputs.StreamPool, phase: inputs.Phase) -> StreamRecord:
    """Send ``phase`` on its Poisson schedule; a collector thread gathers verdicts."""
    record = StreamRecord.empty(phase, time.perf_counter() + 0.05 + phase.due)
    due = record.due
    handoff: queue.SimpleQueue = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            i, future = item
            record.await_verdict(i, future, due[i] + RESULT_TIMEOUT_S - time.perf_counter())

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        for i in range(len(due)):
            image = pool.image(phase.first + i, int(phase.kinds[i]))
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record.sent[i] = time.perf_counter()
            future = server.submit(image)
            record.submitted[i] = time.perf_counter()
            handoff.put((i, future))
    finally:
        handoff.put(None)
        collector.join()
    record.classify_outcomes()
    return record


def drive_bursts(
    server: ValidationServer, pool: inputs.StreamPool, phase: inputs.Phase, seconds: float
) -> tuple[StreamRecord, list[float]]:
    """Send ``phase``'s requests in bursts of ``BURST``, one burst at a time.

    One thread submits a burst, then waits for its verdicts in order, so
    a request's latency runs from its submit to when the loop collected
    it (an upper bound). Returns the record, cut to the requests sent once
    ``seconds`` have passed, and each burst's duration.
    """
    record = StreamRecord.empty(phase, np.zeros(len(phase.kinds)))
    bursts: list[float] = []
    stop = time.perf_counter() + seconds
    sent = 0
    while sent + BURST <= len(phase.kinds) and time.perf_counter() < stop:
        images = [
            pool.image(phase.first + i, int(phase.kinds[i])) for i in range(sent, sent + BURST)
        ]
        start = time.perf_counter()
        futures = []
        for i, image in zip(range(sent, sent + BURST), images):
            record.due[i] = record.sent[i] = time.perf_counter()
            futures.append(server.submit(image))
            record.submitted[i] = time.perf_counter()
        for i, future in zip(range(sent, sent + BURST), futures):
            record.await_verdict(i, future, RESULT_TIMEOUT_S)
        bursts.append(time.perf_counter() - start)
        sent += BURST
    record = StreamRecord(
        phase=inputs.Phase(phase.name, phase.rate, phase.due[:sent], phase.kinds[:sent], phase.first),
        due=record.due[:sent], sent=record.sent[:sent], submitted=record.submitted[:sent],
        done=record.done[:sent], prediction=record.prediction[:sent], joint=record.joint[:sent],
        status=record.status[:sent], outcome=record.outcome[:sent],
    )
    record.classify_outcomes()
    return record, bursts


def run_stream(seed: int, seconds: float, phases: Phases) -> Outcome:
    out = Outcome()
    pool = inputs.StreamPool(seed)
    store = fixtures.bundle_store()
    config = ServeConfig()

    def setup(repeat: int):
        with phases.phase(f"setup{repeat}"), phases.span("bench.setup"):
            with phases.span("bench.load"):
                bundle = store.load(fixtures.STREAM_BUNDLE, 1)
            monitor = bundle.monitor()
            server = ValidationServer(
                monitor, config, bundle_version=bundle.manifest.key
            ).start()
            first = pool.image(pool.capacity - 1 - repeat, inputs.CLEAN)
            server.submit(first).result(timeout=60.0)
        return server

    setup_times, server = _timed_setups(
        setup, release=lambda server: server.close(), repeats=STREAM_SETUP_REPEATS
    )
    records: dict[str, StreamRecord] = {}
    try:
        # Untimed warm-up at the high rate: the first batches of each width
        # pay one-off allocations that a deployment pays once, not per request.
        warmup = inputs.poisson_phase(seed, 9, "warmup", HIGH_RATE, WARMUP_S, 0)
        drive(server, pool, warmup)
        next_request = len(warmup.due)
        for index, (name, share) in enumerate(STREAM_SHARES):
            time.sleep(0.2)  # let the queue drain between phases
            budget = share * seconds
            with phases.phase(name):
                if name == "burst":
                    requests = BURST * max(1, int(BURST_RATE * budget / BURST))
                    phase = inputs.closed_phase(seed, index, name, requests, next_request)
                    records[name], bursts = drive_bursts(server, pool, phase, 3.0 * budget)
                else:
                    rate = LOW_RATE if name == "low" else HIGH_RATE
                    phase = inputs.poisson_phase(seed, index, name, rate, budget, next_request)
                    records[name] = drive(server, pool, phase)
            phases.add_requests(records[name])
            next_request += records[name].attempted
    finally:
        rss = peak_rss_mb()
        server.close()

    for name, record in records.items():
        out.attempted += record.attempted
        out.failed += record.failed
        for kind in record.outcome:
            if kind is not None:
                out.failures[kind] += 1
        lat = record.latencies()
        late = stats.lateness_ms(record.due, record.sent)
        out.phases[name] = {
            "rate_rps": record.phase.rate,
            "attempted": record.attempted,
            "succeeded": record.attempted - record.failed,
            "failed": record.failed,
            "served_rps": record.served_rate() if lat else None,
            "p50_ms": stats.median(lat) if lat else None,
            "p99_ms": stats.percentile(lat, 99.0) if lat else None,
            "late_p50_ms": stats.median(late),
            "late_p99_ms": stats.percentile(late, 99.0),
        }
    for name in ("low", "high"):
        lat = records[name].latencies()
        label, value, windows = stats.windowed_p99(lat)
        out.metrics[f"p50_ms.{name}"] = (stats.median(lat), "ms")
        out.metrics[f"p99_ms.{name}"] = (value, "ms")
        out.notes[f"p99_ms.{name}"] = (
            f"{label}: median over {windows} windows of {len(lat)} latencies"
        )
    label, tail_s = stats.tail(bursts)
    out.metrics["burst_p50_ms"] = (stats.median(bursts) * 1000.0, "ms")
    out.metrics["burst_tail_ms"] = (tail_s * 1000.0, "ms")
    out.metrics["burst_rps"] = (records["burst"].attempted / sum(bursts), "req/s")
    out.notes["burst_p50_ms"] = f"median of {len(bursts)} bursts of {BURST} requests"
    out.notes["burst_tail_ms"] = f"{label} of {len(bursts)} bursts"
    out.notes["burst_rps"] = "verdicts per second of burst time"
    out.metrics["setup_s"] = (stats.median(setup_times), "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.metrics["failed_share"] = (out.failed / out.attempted, "ratio")
    out.notes["counted_phases"] = list(records)
    out.notes["records"] = records
    out.notes["requests"] = out.attempted
    out.notes["svm_counts"] = layers.svm_counts(server.monitor.validator)
    out.notes["bundle_bytes"] = store.path_for(fixtures.STREAM_BUNDLE, 1).stat().st_size
    _gate_stream(out, server.monitor, pool, list(records.values()))
    return out


def _gate_stream(out: Outcome, monitor: RuntimeMonitor, pool, records) -> None:
    """Served verdicts must match a direct ``monitor.classify`` of the same images.

    The reference scores images 256 at a time. A served verdict must equal
    its prediction, agree on the joint within ``JOINT_TOLERANCE``, and on
    status unless the joint is that close to epsilon. A verdict outside
    the tolerance still passes when it is bit-identical to a direct
    classify of the image alone: that is the partition a request served
    on its own was scored in, and within a partition the server promises
    exact equality. Width-1 scoring takes BLAS's matrix-vector path, whose
    drift against batched scoring can exceed the tolerance; the largest
    drift seen and the number of verdicts settled this way are reported.
    """
    epsilon = monitor.validator.epsilon
    drift_max, settled_alone = 0.0, 0
    for record in records:
        served = [
            i
            for i, o in enumerate(record.outcome)
            if o is None and record.phase.kinds[i] != inputs.NAN
        ]
        for start in range(0, len(served), 256):
            chunk = served[start : start + 256]
            images = np.stack(
                [pool.image(record.phase.first + i, int(record.phase.kinds[i])) for i in chunk]
            )
            for k, (i, want) in enumerate(zip(chunk, monitor.classify(images))):
                drift = abs(record.joint[i] - want.joint_discrepancy)
                drift_max = max(drift_max, drift)
                close = math.isclose(
                    record.joint[i], want.joint_discrepancy,
                    rel_tol=JOINT_TOLERANCE, abs_tol=JOINT_TOLERANCE,
                )
                near_epsilon = abs(want.joint_discrepancy - epsilon) <= JOINT_TOLERANCE
                if (
                    record.prediction[i] == want.prediction
                    and close
                    and (record.status[i] == want.status or near_epsilon)
                ):
                    continue
                alone = monitor.classify(images[k : k + 1])[0]
                if (
                    record.prediction[i] == alone.prediction
                    and record.joint[i] == alone.joint_discrepancy
                    and record.status[i] == alone.status
                ):
                    settled_alone += 1
                    continue
                record.outcome[i] = "wrong"
                out.failed += 1
                out.failures["wrong"] += 1
                out.fail_check(
                    f"{record.phase.name} request {i}: served prediction "
                    f"{record.prediction[i]} d={float(record.joint[i])!r} ({record.status[i]}), "
                    f"direct in a batch d={want.joint_discrepancy!r} ({want.status}), "
                    f"direct alone {alone.prediction} d={alone.joint_discrepancy!r} ({alone.status})"
                )
    out.metrics["joint_drift_max"] = (drift_max, "1")
    out.notes["joint_drift_max"] = (
        f"largest |served - batched direct| joint; {settled_alone} verdicts over "
        f"{JOINT_TOLERANCE:g} matched a direct classify of the image alone exactly"
    )
    if out.failures["wrong"] or out.failures["clean_quarantined"]:
        out.fail_check(
            f"{out.failures['wrong']} wrong verdicts, "
            f"{out.failures['clean_quarantined']} clean frames quarantined"
        )


# -- bulk ------------------------------------------------------------------------


def run_bulk(seed: int, seconds: float, phases: Phases) -> Outcome:
    out = Outcome()
    pool = inputs.BulkPool(seed)
    store = fixtures.bundle_store()

    def setup(repeat: int):
        with phases.phase(f"setup{repeat}"), phases.span("bench.setup"):
            with phases.span("bench.load"):
                bundle = store.load(fixtures.BULK_BUNDLE, 1)
            monitor = bundle.monitor()
            monitor.classify(pool.images[repeat : repeat + 1])
        return monitor

    setup_times, monitor = _timed_setups(setup)
    calls: list[float] = []
    fresh_results: list[tuple] = []
    verdict_count = 0
    with phases.phase("bulk"):
        started = time.perf_counter()
        call = 0
        while time.perf_counter() - started < seconds or call % pool.REPLAY_EVERY:
            indices, replayed = pool.next_indices(call)
            batch = pool.images[indices]
            with phases.span("bench.classify", replay=replayed is not None):
                t0 = time.perf_counter()
                verdicts = monitor.classify(batch)
                calls.append(time.perf_counter() - t0)
            verdict_count += len(verdicts)
            result = (
                np.array([v.prediction for v in verdicts]),
                np.array([v.joint_discrepancy for v in verdicts]),
                np.stack([v.per_layer for v in verdicts]),
                [v.status for v in verdicts],
            )
            bad = sum(s not in ("VALIDATED", "FLAGGED") for s in result[3])
            if bad:
                out.failed += 1
                out.failures["wrong"] += 1
                out.fail_check(f"call {call}: {bad} verdicts neither VALIDATED nor FLAGGED")
            if replayed is None:
                fresh_results.append(result)
            elif not _identical(result, fresh_results[replayed]):
                out.failed += 1
                out.failures["wrong"] += 1
                out.fail_check(f"call {call}: replay of fresh batch {replayed} differs")
            call += 1
        wall = time.perf_counter() - started
    rss = peak_rss_mb()
    out.attempted = len(calls)
    label, tail_ms = stats.tail([c * 1000.0 for c in calls])
    out.metrics["throughput_ips"] = (verdict_count / wall, "images/s")
    out.metrics["batch_p50_ms"] = (stats.median(calls) * 1000.0, "ms")
    out.metrics["batch_tail_ms"] = (tail_ms, "ms")
    out.metrics["setup_s"] = (stats.median(setup_times), "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.metrics["failed_share"] = (out.failed / out.attempted, "ratio")
    out.notes["batch_tail_ms"] = f"{label} of {len(calls)} calls"
    out.phases["bulk"] = {
        "attempted": out.attempted,
        "succeeded": out.attempted - out.failed,
        "failed": out.failed,
        "replays": call // pool.REPLAY_EVERY,
        "wall_s": wall,
    }
    out.notes["requests"] = out.attempted
    out.notes["svm_counts"] = layers.svm_counts(monitor.validator)
    out.notes["bundle_bytes"] = store.path_for(fixtures.BULK_BUNDLE, 1).stat().st_size
    return out


def _identical(a: tuple, b: tuple) -> bool:
    return (
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1], b[1], equal_nan=True)
        and np.array_equal(a[2], b[2], equal_nan=True)
        and a[3] == b[3]
    )


# -- refit -----------------------------------------------------------------------


def run_refit(seed: int, seconds: float, phases: Phases) -> Outcome:
    out = Outcome()

    def setup(repeat: int):
        with phases.phase(f"setup{repeat}"), phases.span("bench.setup"):
            trained = fixtures.classifier("synth-svhn")
            data = inputs.refit_data(seed)
        return trained, data

    setup_times, (trained, data) = _timed_setups(setup, repeats=REFIT_SETUP_REPEATS)
    work = WORK_DIR / "refit"
    shutil.rmtree(work, ignore_errors=True)
    cycles: list[dict] = []
    with phases.phase("refit"):
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not cycles:
            cycles.append(_refit_cycle(out, phases, trained.model, data, work, len(cycles) + 1))
            # A cycle's validator and engine reference each other, so its
            # memory waits for the cyclic collector (RSS passed 2.4 GB in 13
            # cycles without this). Collect, untimed, and report what it freed.
            before = current_rss_mb()
            gc.collect()
            cycles[-1]["garbage_mb"] = before - current_rss_mb()
    rss = peak_rss_mb()
    shutil.rmtree(work, ignore_errors=True)
    out.attempted = len(cycles)
    cycle_times = [c["cycle"] for c in cycles]
    refit_s = stats.median(cycle_times)
    # A run holds about ten cycles, too few for a p90 with ten beyond it,
    # and the highest is the cold first cycle: the tail is the p75.
    tail_s = stats.percentile(cycle_times, REFIT_TAIL_PERCENTILE)
    out.metrics["refit_s"] = (refit_s, "s")
    out.metrics["refit_ms"] = (refit_s * 1000.0, "ms")
    out.metrics["refit_tail_ms"] = (tail_s * 1000.0, "ms")
    out.metrics["refit_images_per_s"] = (len(data.train_images) / refit_s, "images/s")
    out.metrics["setup_s"] = (stats.median(setup_times), "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.metrics["failed_share"] = (out.failed / out.attempted, "ratio")
    out.notes["refit_s"] = out.notes["refit_ms"] = f"median of {len(cycles)} cycles"
    out.metrics["refit_first_ms"] = (cycle_times[0] * 1000.0, "ms")
    out.notes["refit_tail_ms"] = f"p{REFIT_TAIL_PERCENTILE:g} of {len(cycles)} cycles"
    out.notes["refit_first_ms"] = "the first, cold cycle"
    out.notes["refit_images_per_s"] = "training-set size over refit_s"
    out.notes["cycles"] = cycles
    out.notes["requests"] = len(cycles)
    out.notes["svm_counts"] = cycles[-1]["svm_counts"]
    out.notes["bundle_bytes"] = stats.median([c["bytes"] for c in cycles])
    out.phases["refit"] = {
        "attempted": out.attempted,
        "succeeded": out.attempted - out.failed,
        "failed": out.failed,
        "cycle_s": [round(t, 4) for t in cycle_times],
    }
    return out


def _refit_cycle(out: Outcome, phases: Phases, model, data, work: Path, version: int) -> dict:
    """One fit -> calibrate -> pack -> save -> load -> check cycle, gated.

    Everything the cycle builds is dropped when it returns, so cycles do
    not hold each other's validators and bundles alive.
    """
    store = BundleStore(work / f"v{version}")
    timings: dict = {}

    def step(name, fn):
        with phases.span(f"bench.{name}"):
            t0 = time.perf_counter()
            value = fn()
            timings[name] = time.perf_counter() - t0
        return value

    with phases.span("bench.cycle", version=version):
        validator = DeepValidator(model, fixtures.REFIT_CONFIG)
        step("fit", lambda: validator.fit(data.train_images, data.train_labels))
        step("calibrate", lambda: validator.calibrate_threshold(data.clean, data.corner))
        bundle = step("pack", lambda: ValidatorBundle.pack(validator, version=version, name="refit"))
        path = step("save", lambda: store.save(bundle))
        loaded = step("load", lambda: store.load("refit", version))
        verdicts = step("check", lambda: loaded.monitor().classify(data.check))
    timings["cycle"] = sum(timings.values())
    timings["bytes"] = path.stat().st_size
    # The iteration counts live only on the fitted estimators.
    timings["smo_iterations"] = sum(
        svm.result_.iterations for layer in validator.validators for svm in layer._svms.values()
    )
    timings["svm_counts"] = layers.svm_counts(validator)
    _gate_refit(out, version, loaded, validator, data.check, verdicts)
    shutil.rmtree(work / f"v{version}", ignore_errors=True)
    return timings


def _gate_refit(out, version, loaded, validator, check, verdicts) -> None:
    """A refit bundle must verify, validate, and score like its source validator."""
    try:
        loaded.verify().validate()
    except Exception as exc:  # noqa: BLE001 — reported as a failed cycle
        out.failed += 1
        out.failures["raised"] += 1
        out.fail_check(f"bundle v{version} failed verify/validate: {exc}")
        return
    reference = RuntimeMonitor(validator).classify(check)
    same = all(
        a.prediction == b.prediction
        and a.status == b.status
        and a.joint_discrepancy == b.joint_discrepancy
        and np.array_equal(a.per_layer, b.per_layer)
        for a, b in zip(verdicts, reference)
    )
    if not same or len(verdicts) != len(reference):
        out.failed += 1
        out.failures["wrong"] += 1
        out.fail_check(f"bundle v{version} scores the check batch differently")
