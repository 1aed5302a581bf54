"""Worker supervision: death detection, capped-backoff restarts, fail-fast.

PR 7's serving layer had a single point of silent death: a worker thread
that hit a ``BaseException`` (or any raise out of
``MicroBatcher.next_batch``) exited permanently while the server kept
accepting requests it would never score. :class:`WorkerSupervisor` closes
that hole:

* it **owns** the worker threads — each worker slot carries a generation
  counter and a restart count;
* it **detects death** two ways: workers report their own demise (every
  ``BaseException`` escaping the worker loop is recorded and re-raised to
  the supervisor's thread wrapper), and a periodic join-probe catches
  threads that vanished without reporting;
* it **restarts** dead workers with capped exponential backoff
  (``BACKOFF_BASE_S * 2**consecutive_restarts``, capped at
  ``BACKOFF_CAP_S``, measured on the injectable clock);
* it **fails fast** when restarting stops helping: worker deaths feed a
  :class:`~repro.core.resilience.CircuitBreaker` whose
  ``failure_window`` turns the threshold into a *budget per window* —
  once ``restart_budget`` deaths land within ``restart_window_s``, the
  breaker opens, the server sheds new requests with structured
  ``OVERLOADED`` verdicts, and restarts pause until the cooldown
  half-opens the breaker for a probe restart.

A slot is respawned only after its thread has reported its death or been
seen dead, so no two threads ever serve one slot. A worker wedged on one
batch is not replaced: its slot stays live until the batch returns.

Everything time-like runs on the injected clock, and :meth:`poll` is a
public synchronous entry point, so the chaos harness
(:mod:`repro.testing.chaos`) drives the whole lifecycle deterministically
under a :class:`~repro.obs.tracing.ManualClock`; in production a
background poll thread calls it on a real-time cadence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.core.resilience import CircuitBreaker

#: Restart backoff: ``BACKOFF_BASE_S * 2**consecutive_restarts`` seconds,
#: capped at ``BACKOFF_CAP_S``.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def _restarts_counter():
    return obs.counter(
        "serve_worker_restarts_total",
        help="Serve worker threads restarted by the supervisor",
    )


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for :class:`WorkerSupervisor`.

    ``restart_budget`` worker deaths within ``restart_window_s`` trip the
    restart breaker (fail-fast shedding); the same window is the breaker
    cooldown before a probe restart. ``poll_interval_s`` is the real-time
    cadence of the background poll thread (``None`` disables it — tests
    then call ``poll()`` directly).
    ``max_batch_retries`` bounds how many times a ticket orphaned by a
    dying worker is requeued before its future is failed with the
    worker's exception.
    """

    restart_budget: int = 5
    restart_window_s: float = 30.0
    poll_interval_s: float | None = 0.02
    max_batch_retries: int = 2

    def __post_init__(self) -> None:
        if self.restart_budget < 1:
            raise ValueError(f"restart_budget must be >= 1, got {self.restart_budget}")
        if self.restart_window_s <= 0:
            raise ValueError(
                f"restart_window_s must be > 0, got {self.restart_window_s}"
            )
        if self.poll_interval_s is not None and self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}"
            )
        if self.max_batch_retries < 0:
            raise ValueError(
                f"max_batch_retries must be >= 0, got {self.max_batch_retries}"
            )


class _WorkerSlot:
    """Bookkeeping for one supervised worker position."""

    __slots__ = (
        "index",
        "generation",
        "thread",
        "state",
        "died_at",
        "consecutive_restarts",
        "last_error",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.thread: threading.Thread | None = None
        self.state = "idle"  # idle | live | dead | exited
        self.died_at: float | None = None
        self.consecutive_restarts = 0
        self.last_error: str | None = None

    def snapshot(self) -> dict:
        return {
            "index": self.index,
            "state": self.state,
            "generation": self.generation,
            "consecutive_restarts": self.consecutive_restarts,
            "last_error": self.last_error,
        }


class WorkerSupervisor:
    """Owns a server's worker threads; detects death, restarts, fails fast.

    The supervisor holds no scoring logic — it runs the server's
    ``_worker_loop`` inside a wrapper that turns any escaping
    ``BaseException`` into a recorded death, and a :meth:`poll` pass that
    probes liveness and performs due restarts. The server consults
    :meth:`allow_submit` at the door: a tripped restart breaker means
    "the worker pool is crash-looping, shed instead of queueing".
    """

    def __init__(
        self,
        server,
        config: SupervisorConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        self._server = server
        self.config = config if config is not None else SupervisorConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.RLock()
        self._slots = [
            _WorkerSlot(index) for index in range(server.config.workers)
        ]
        self._started = False
        self._stopped = False
        self._poll_thread: threading.Thread | None = None
        self._poll_wakeup = threading.Event()
        self._poll_errors = 0
        self._last_poll_error: str | None = None
        self.restarts = 0
        self.deaths = 0
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.restart_budget,
            cooldown=self.config.restart_window_s,
            clock=self._clock,
            failure_window=self.config.restart_window_s,
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker per slot plus the background poll thread."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for slot in self._slots:
                self._spawn(slot)
            if self.config.poll_interval_s is not None:
                self._poll_thread = threading.Thread(
                    target=self._poll_loop,
                    name="repro-serve-supervisor",
                    daemon=True,
                )
                self._poll_thread.start()

    def stop(self) -> None:
        """Stop restarting and polling (the server is closing)."""
        with self._lock:
            self._stopped = True
        self._poll_wakeup.set()

    def join(self, timeout: float | None = None) -> None:
        """Join the poll thread and every worker.

        ``timeout`` bounds each individual join.
        """
        if self._poll_thread is not None:
            self._poll_thread.join(timeout)
        with self._lock:
            threads = [slot.thread for slot in self._slots if slot.thread]
        for thread in threads:
            thread.join(timeout)

    # -- worker-side reporting -------------------------------------------------

    def batch_ok(self, slot_index: int) -> None:
        """A worker finished a batch cleanly: recovery is working."""
        with self._lock:
            self._slots[slot_index].consecutive_restarts = 0
            # Only a half-open probe success should close the breaker:
            # within the window, deaths must keep counting toward the
            # budget even when interleaved with completed batches (a
            # crash loop that limps through one batch per life is still
            # a crash loop).
            if self.breaker.state == CircuitBreaker.HALF_OPEN:
                self.breaker.record_success()

    def record_death(self, slot_index: int, exc: BaseException) -> None:
        """A worker's loop raised: mark the slot dead and feed the budget."""
        with self._lock:
            slot = self._slots[slot_index]
            slot.state = "dead"
            slot.died_at = self._clock()
            slot.last_error = f"{type(exc).__name__}: {exc}"
            self.deaths += 1
            self.breaker.record_failure()

    def record_exit(self, slot_index: int) -> None:
        """A worker drained the closed batcher and exited cleanly."""
        with self._lock:
            self._slots[slot_index].state = "exited"

    # -- supervision pass ------------------------------------------------------

    def allow_submit(self) -> bool:
        """Whether the door is open (restart breaker not tripped)."""
        return self.breaker.allow()

    def poll(self) -> int:
        """One supervision pass: probe liveness, perform due restarts.

        Returns the number of workers (re)started. Safe to call from any
        thread and fully deterministic under an injected clock — the
        chaos harness calls it directly instead of relying on the
        real-time poll thread.
        """
        with self._lock:
            if not self._started or self._stopped or self._server._closed:
                return 0
            now = self._clock()
            for slot in self._slots:
                if slot.state != "live":
                    continue
                if slot.thread is not None and not slot.thread.is_alive():
                    # Join-probe backstop: the thread vanished without
                    # reporting (should be impossible — the wrapper
                    # catches BaseException — but a supervisor must not
                    # trust its wards).
                    slot.state = "dead"
                    slot.died_at = now
                    slot.last_error = "worker thread exited without reporting"
                    self.deaths += 1
                    self.breaker.record_failure()
            started = 0
            for slot in self._slots:
                if slot.state != "dead":
                    continue
                backoff = min(
                    BACKOFF_BASE_S * (2 ** slot.consecutive_restarts), BACKOFF_CAP_S
                )
                if slot.died_at is not None and now - slot.died_at < backoff:
                    continue
                if not self.breaker.allow():
                    continue  # budget blown; wait out the cooldown
                slot.consecutive_restarts += 1
                self.restarts += 1
                _restarts_counter().inc()
                self._spawn(slot)
                started += 1
            return started

    def _spawn(self, slot: _WorkerSlot) -> None:
        # Caller holds the lock.
        slot.generation += 1
        slot.state = "live"
        slot.died_at = None
        thread = threading.Thread(
            target=self._run_worker,
            args=(slot.index,),
            name=f"repro-serve-worker-{slot.index}-gen{slot.generation}",
            daemon=True,
        )
        slot.thread = thread
        thread.start()

    def _run_worker(self, slot_index: int) -> None:
        try:
            self._server._worker_loop(slot_index)
        except BaseException as exc:  # noqa: BLE001 — the supervision boundary
            self.record_death(slot_index, exc)
        else:
            self.record_exit(slot_index)

    def _poll_loop(self) -> None:
        while True:
            self._poll_wakeup.wait(self.config.poll_interval_s)
            with self._lock:
                if self._stopped:
                    return
            try:
                self.poll()
            except Exception as exc:  # noqa: BLE001 — the poller must not die
                with self._lock:
                    self._poll_errors += 1
                    self._last_poll_error = f"{type(exc).__name__}: {exc}"

    # -- observability ---------------------------------------------------------

    @property
    def live_workers(self) -> int:
        """Workers currently live (state and thread liveness agree)."""
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if slot.state == "live"
                and slot.thread is not None
                and slot.thread.is_alive()
            )

    def snapshot(self) -> dict:
        """Operator-facing supervision summary (atomic)."""
        with self._lock:
            return {
                "live_workers": sum(
                    1
                    for slot in self._slots
                    if slot.state == "live"
                    and slot.thread is not None
                    and slot.thread.is_alive()
                ),
                "target_workers": len(self._slots),
                "restarts": self.restarts,
                "deaths": self.deaths,
                "state": self.breaker.state,
                "breaker": self.breaker.snapshot(),
                "poll_errors": self._poll_errors,
                "workers": [slot.snapshot() for slot in self._slots],
            }

    def __repr__(self) -> str:
        return (
            f"WorkerSupervisor(live={self.live_workers}/{len(self._slots)}, "
            f"restarts={self.restarts}, state={self.breaker.state!r})"
        )
