"""Zero-downtime validator rollouts: shadow canary scoring + auto-rollback.

A production Deep Validation deployment refits its validator as traffic
shifts, and every refit is a chance to ship a poisoned artifact — a
corrupt pickle, a miscalibrated threshold, a layer set the traffic never
trained. :class:`RolloutController` makes deploying a new
:class:`~repro.core.bundle.ValidatorBundle` onto a live
:class:`~repro.serve.server.ValidationServer` safe without ever draining
the queue:

``IDLE → SHADOW → PROMOTED → (IDLE | ROLLED_BACK)``

* **SHADOW** — :meth:`~RolloutController.begin_shadow` loads and
  double-checks the bundle (integrity + semantic validation), builds the
  candidate monitor, and starts scoring a deterministic sample of live
  scoring groups through it *alongside* the incumbent. Candidate verdicts
  are recorded for comparison and never returned to a caller.
* **PROMOTED** — :meth:`~RolloutController.promote` atomically swaps the
  server's monitor via :meth:`~ValidationServer.swap_monitor`; workers
  pick up the new generation at the next group boundary (no drain, no
  dropped tickets). Guardrails keep watching the candidate's live stream.
* **ROLLED_BACK** — any guardrail trip reverts the server to the
  incumbent (if the candidate was serving) and **latches** a
  :class:`~repro.core.resilience.CircuitBreaker` against re-promoting the
  same bundle version; :meth:`~RolloutController.begin_shadow` refuses a
  latched bundle until an operator resets it.

Guardrails (rollback ``reason`` vocabulary in parentheses):

* bundle integrity/validation failures at load time (``integrity``,
  ``validation``);
* shadow-vs-incumbent flag-rate divergence beyond
  ``max_flag_rate_divergence`` (``divergence``);
* :class:`~repro.core.drift.DiscrepancyDriftMonitor` alarms on the
  candidate's joint-discrepancy stream — calibrated on the incumbent's
  live stream during shadow, then fed by the candidate through shadow and
  promotion (``drift``);
* candidate scoring failures — degraded/quarantined candidate verdicts
  (or raises) on inputs the incumbent scored cleanly, beyond
  ``max_candidate_failures`` (``candidate_failure``);
* operator-initiated :meth:`~RolloutController.rollback` (``operator``)
  and defensive trips on observer bugs (``observer_error``).

The worker hook :meth:`observe_group` is contractually non-raising and
never blocks ticket resolution (the server calls it after futures
resolve); shadow scoring happens outside the controller lock. Nothing in
the trip path emits warnings — under ``REPRO_STRICT=1`` a warning in a
worker thread would kill the worker, and the rollback path must be the
most reliable code in the repo. See ``docs/rollout.md`` for the operator
runbook.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.core import resilience
from repro.core.bundle import (
    BundleIntegrityError,
    BundleValidationError,
    BundleStore,
    ValidatorBundle,
)
from repro.core.drift import DiscrepancyDriftMonitor
from repro.core.resilience import CircuitBreaker

#: Rollout lifecycle states.
IDLE = "IDLE"
SHADOW = "SHADOW"
PROMOTED = "PROMOTED"
ROLLED_BACK = "ROLLED_BACK"

#: Gauge encoding of the lifecycle (``rollout_state``).
ROLLOUT_STATE_CODES = {IDLE: 0, SHADOW: 1, PROMOTED: 2, ROLLED_BACK: 3}

#: Monitor statuses that carry a real (comparable) joint discrepancy.
_SCORED = (resilience.VALIDATED, resilience.FLAGGED)

#: Alarm band, in EWMA standard deviations, of the default drift monitor
#: watching a candidate (a ``drift_monitor=`` override replaces it).
DRIFT_SIGMAS = 6.0


def _state_gauge():
    return obs.gauge(
        "rollout_state",
        help="Rollout lifecycle state (0=idle, 1=shadow, 2=promoted, 3=rolled-back)",
    )


def _divergence_gauge():
    return obs.gauge(
        "rollout_shadow_divergence",
        help="Absolute shadow-vs-incumbent flag-rate divergence",
    )


def _rollbacks_counter():
    return obs.counter(
        "rollout_rollbacks_total",
        help="Guardrail trips (rollbacks and refused bundles), by reason",
        labels=("reason",),
    )


def _shadow_batches_counter():
    return obs.counter(
        "rollout_shadow_batches_total",
        help="Scoring groups shadow-scored by a candidate monitor",
    )


def _swaps_counter():
    return obs.counter(
        "rollout_swaps_total",
        help="Monitor hot-swaps performed by the rollout controller",
        labels=("direction",),
    )


class RolloutError(RuntimeError):
    """An operation that the rollout lifecycle refuses (wrong state, latched
    bundle, insufficient shadow evidence)."""


@dataclass(frozen=True)
class RolloutConfig:
    """Guardrail tuning for :class:`RolloutController`.

    ``shadow_sample_every`` thins shadow scoring to every Nth scoring
    group (1 = every group); ``min_shadow_batches`` is the evidence floor
    before :meth:`~RolloutController.promote` is allowed;
    ``max_flag_rate_divergence`` bounds the absolute difference between
    incumbent and candidate flag rates over the shadow window;
    ``max_candidate_failures`` bounds candidate scoring failures (strict
    default: the first failure trips). The
    :class:`DiscrepancyDriftMonitor` watching the candidate's joint
    stream calibrates itself from the first ``drift_calibration_samples``
    cleanly-scored incumbent joints of the shadow window, so the alarm
    band reflects *current* traffic. ``relatch_cooldown_s`` is the
    rollback breaker's cooldown; the default ``math.inf`` latches a
    rolled-back bundle version permanently (operator must :meth:`unlatch`).
    """

    shadow_sample_every: int = 1
    min_shadow_batches: int = 8
    max_flag_rate_divergence: float = 0.25
    max_candidate_failures: int = 0
    drift_calibration_samples: int = 32
    relatch_cooldown_s: float = math.inf

    def __post_init__(self) -> None:
        if self.shadow_sample_every < 1:
            raise ValueError(
                f"shadow_sample_every must be >= 1, got {self.shadow_sample_every}"
            )
        if self.min_shadow_batches < 1:
            raise ValueError(
                f"min_shadow_batches must be >= 1, got {self.min_shadow_batches}"
            )
        if not 0.0 < self.max_flag_rate_divergence <= 1.0:
            raise ValueError(
                "max_flag_rate_divergence must be in (0, 1], got "
                f"{self.max_flag_rate_divergence}"
            )
        if self.max_candidate_failures < 0:
            raise ValueError(
                f"max_candidate_failures must be >= 0, got {self.max_candidate_failures}"
            )
        if self.drift_calibration_samples < 2:
            raise ValueError(
                "drift_calibration_samples must be >= 2, got "
                f"{self.drift_calibration_samples}"
            )
        if self.relatch_cooldown_s < 0:
            raise ValueError(
                f"relatch_cooldown_s must be >= 0, got {self.relatch_cooldown_s}"
            )


class RolloutController:
    """Drives the bundle rollout lifecycle on one :class:`ValidationServer`.

    Construction attaches the controller to the server (at most one per
    server); the server's workers then call :meth:`observe_group` after
    every scoring group, which is where shadow scoring and every automatic
    guardrail live. All public operations are thread-safe; lock order is
    controller lock → server lock (the controller never runs under the
    server lock — the worker hook fires after the server releases it).
    """

    def __init__(
        self,
        server,
        store: BundleStore | None = None,
        config: RolloutConfig | None = None,
        clock: Callable[[], float] | None = None,
        monitor_factory: Callable[[ValidatorBundle], object] | None = None,
        drift_monitor: DiscrepancyDriftMonitor | None = None,
    ) -> None:
        import time

        self.server = server
        self.store = store
        self.config = config if config is not None else RolloutConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._monitor_factory = (
            monitor_factory if monitor_factory is not None else self._default_factory
        )
        self._drift_override = drift_monitor
        self._lock = threading.RLock()
        self.state = IDLE
        self.incumbent = server.monitor
        self._incumbent_version = server.bundle_version
        self.candidate = None
        self.bundle: ValidatorBundle | None = None
        self._candidate_key: str | None = None
        self.drift: DiscrepancyDriftMonitor | None = None
        #: One permanently-latchable breaker per bundle key that rolled back.
        self._latches: dict[str, CircuitBreaker] = {}
        self.last_rollback: dict | None = None
        #: Monotonic rollout generation; bumped on every transition so a
        #: shadow score that raced a state change is discarded, not recorded.
        self._epoch = 0
        self._reset_window()
        server.attach_rollout(self)
        _state_gauge().set(ROLLOUT_STATE_CODES[self.state])

    @staticmethod
    def _default_factory(bundle: ValidatorBundle):
        return bundle.monitor()

    def _reset_window(self) -> None:
        self._groups_seen = 0
        self._shadow_batches = 0
        self._incumbent_samples = 0
        self._incumbent_flags = 0
        self._candidate_samples = 0
        self._candidate_flags = 0
        self._candidate_failures = 0
        self._divergence: float | None = None
        self._drift_calibration: list[float] = []
        self._pending_candidate_joints: list[float] = []

    # -- latches ---------------------------------------------------------------

    def _latch(self, key: str) -> CircuitBreaker:
        breaker = self._latches.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=1,
                cooldown=self.config.relatch_cooldown_s,
                clock=self._clock,
            )
            self._latches[key] = breaker
        return breaker

    def latched(self, key: str) -> bool:
        """Whether ``key`` (``name@vN``) is currently latched against
        re-promotion."""
        with self._lock:
            breaker = self._latches.get(key)
            return breaker is not None and not breaker.allow()

    def unlatch(self, key: str) -> bool:
        """Operator override: clear the re-promotion latch for ``key``.

        Returns whether a latch existed. Deliberately manual — a latched
        bundle rolled back for a reason, and only a human who understands
        that reason should clear it.
        """
        with self._lock:
            return self._latches.pop(key, None) is not None

    # -- lifecycle -------------------------------------------------------------

    def begin_shadow(
        self,
        bundle: ValidatorBundle | None = None,
        name: str | None = None,
        version: int | None = None,
    ) -> None:
        """Start shadow-scoring a candidate bundle alongside the incumbent.

        Pass either a :class:`ValidatorBundle` or a ``(name, version)``
        reference into the controller's :class:`BundleStore`. The bundle
        is integrity-checked and semantically validated first; a bundle
        that fails either check is **latched immediately** (reason
        ``integrity`` / ``validation``) and the error re-raised — a
        poisoned artifact never becomes a candidate. Refuses (with
        :class:`RolloutError`) when a rollout is already in progress or
        the bundle version is latched from a previous rollback.
        """
        if bundle is None:
            if self.store is None or name is None or version is None:
                raise RolloutError(
                    "begin_shadow needs a ValidatorBundle, or a (name, version) "
                    "reference and a BundleStore"
                )
            key = f"{name}@v{version}"
            try:
                bundle = self.store.load(name, version)
            except BundleIntegrityError:
                self._refuse(key, "integrity", "bundle failed integrity checks at load")
                raise
            except BundleValidationError:
                self._refuse(key, "validation", "bundle failed semantic validation")
                raise
        else:
            key = bundle.manifest.key
            try:
                bundle.verify()
            except BundleIntegrityError:
                self._refuse(key, "integrity", "bundle failed integrity checks")
                raise
            try:
                bundle.validate()
            except BundleValidationError:
                self._refuse(key, "validation", "bundle failed semantic validation")
                raise
        with self._lock:
            if self.state in (SHADOW, PROMOTED):
                raise RolloutError(
                    f"a rollout of {self._candidate_key} is already in progress "
                    f"({self.state}); finalize or roll it back first"
                )
            if not self._latch(key).allow():
                raise RolloutError(
                    f"bundle {key} is latched after a rollback; re-promotion "
                    "refused (unlatch() to override)"
                )
            candidate = self._monitor_factory(bundle)
            self.incumbent = self.server.monitor
            self._incumbent_version = self.server.bundle_version
            self.candidate = candidate
            self.bundle = bundle
            self._candidate_key = key
            self._reset_window()
            if self._drift_override is not None:
                self.drift = self._drift_override
                if self.drift.calibrated:
                    self.drift.reset_stream()
            else:
                self.drift = DiscrepancyDriftMonitor(sigmas=DRIFT_SIGMAS)
            self._epoch += 1
            self._transition(SHADOW)

    def promote(self, force: bool = False) -> None:
        """Swap the candidate in as the serving monitor (SHADOW → PROMOTED).

        Requires ``min_shadow_batches`` of shadow evidence unless
        ``force=True``. The swap is atomic and between batches; guardrails
        (drift, candidate failures) keep running on the candidate's live
        stream until :meth:`finalize`.
        """
        with self._lock:
            if self.state != SHADOW:
                raise RolloutError(f"promote requires SHADOW state, not {self.state}")
            if not force and self._shadow_batches < self.config.min_shadow_batches:
                raise RolloutError(
                    f"only {self._shadow_batches}/{self.config.min_shadow_batches} "
                    "shadow batches observed; promote(force=True) to override"
                )
            self.server.swap_monitor(
                self.candidate, bundle_version=self._candidate_key
            )
            _swaps_counter().labels(direction="promote").inc()
            self._epoch += 1
            self._transition(PROMOTED)

    def finalize(self) -> None:
        """Accept a promoted candidate as the new incumbent (PROMOTED → IDLE)."""
        with self._lock:
            if self.state != PROMOTED:
                raise RolloutError(f"finalize requires PROMOTED state, not {self.state}")
            self.incumbent = self.candidate
            self._incumbent_version = self._candidate_key
            self.candidate = None
            self.bundle = None
            self._candidate_key = None
            self._epoch += 1
            self._transition(IDLE)

    def rollback(self, reason: str = "operator") -> None:
        """Operator-initiated rollback (SHADOW or PROMOTED → ROLLED_BACK)."""
        with self._lock:
            if self.state not in (SHADOW, PROMOTED):
                raise RolloutError(
                    f"rollback requires SHADOW or PROMOTED state, not {self.state}"
                )
            self._trip("operator-initiated rollback", reason)

    def reset(self) -> None:
        """Acknowledge a rollback (ROLLED_BACK → IDLE); latches persist."""
        with self._lock:
            if self.state != ROLLED_BACK:
                raise RolloutError(f"reset requires ROLLED_BACK state, not {self.state}")
            self._candidate_key = None
            self.bundle = None
            self._epoch += 1
            self._transition(IDLE)

    @property
    def ready(self) -> bool:
        """Whether the shadow window has met the promotion evidence floor."""
        with self._lock:
            return (
                self.state == SHADOW
                and self._shadow_batches >= self.config.min_shadow_batches
            )

    def _transition(self, state: str) -> None:
        self.state = state
        _state_gauge().set(ROLLOUT_STATE_CODES[state])

    # -- guardrail machinery ---------------------------------------------------

    def _refuse(self, key: str, reason: str, message: str) -> None:
        """Latch + count a bundle that failed before ever becoming candidate."""
        with self._lock:
            self._latch(key).record_failure()
            _rollbacks_counter().labels(reason=reason).inc()
            self.last_rollback = {
                "reason": reason,
                "message": message,
                "bundle": key,
                "state_at_trip": self.state,
                "shadow_batches": 0,
                "candidate_failures": 0,
                "divergence": None,
            }

    def _trip(self, message: str, reason: str) -> None:
        """Revert to the incumbent and latch the candidate (lock held).

        The single funnel every guardrail ends in. Must never raise and
        never warn: it runs inside serve worker threads, where an
        escalated warning (``REPRO_STRICT=1``) would kill the worker that
        is executing the rollback.
        """
        if self.state == PROMOTED:
            self.server.swap_monitor(
                self.incumbent, bundle_version=self._incumbent_version
            )
            _swaps_counter().labels(direction="rollback").inc()
        if self._candidate_key is not None:
            self._latch(self._candidate_key).record_failure()
        _rollbacks_counter().labels(reason=reason).inc()
        self.last_rollback = {
            "reason": reason,
            "message": message,
            "bundle": self._candidate_key,
            "state_at_trip": self.state,
            "shadow_batches": self._shadow_batches,
            "candidate_failures": self._candidate_failures,
            "divergence": self._divergence,
        }
        self.candidate = None
        self._epoch += 1
        self._transition(ROLLED_BACK)

    # -- the worker hook -------------------------------------------------------

    def observe_group(self, images, verdicts, monitor) -> None:
        """Called by serve workers after each scoring group resolves.

        Contractually non-raising: an unexpected observer bug trips the
        rollout (reason ``observer_error``) rather than crashing the
        worker — a broken watchdog must fail toward the incumbent.
        """
        try:
            self._observe_group(images, verdicts, monitor)
        except Exception:  # noqa: BLE001 — the hook must never kill a worker
            with self._lock:
                if self.state in (SHADOW, PROMOTED):
                    self._trip("unexpected error in rollout observer", "observer_error")

    def _observe_group(self, images, verdicts, monitor) -> None:
        with self._lock:
            if self.state == PROMOTED:
                if monitor is self.candidate:
                    self._watch_live_locked(verdicts)
                return
            if self.state != SHADOW or monitor is not self.incumbent:
                return
            # Deterministic sampling: the 1st, (1+N)th, (1+2N)th ... groups
            # scored by the incumbent since shadow start are shadowed.
            self._groups_seen += 1
            if (self._groups_seen - 1) % self.config.shadow_sample_every != 0:
                return
            candidate = self.candidate
            epoch = self._epoch
        # Candidate scoring happens OUTSIDE the lock: a slow candidate must
        # not serialize the incumbent's workers against each other.
        try:
            with obs.span("rollout.shadow_score", size=len(images)):
                shadow = candidate.classify(images)
        except Exception as exc:  # noqa: BLE001 — a raising candidate is a trip
            with self._lock:
                if self.state == SHADOW and self._epoch == epoch:
                    self._trip(
                        f"candidate monitor raised while shadow scoring: "
                        f"{type(exc).__name__}: {exc}",
                        "candidate_failure",
                    )
            return
        with self._lock:
            if self.state != SHADOW or self._epoch != epoch:
                return  # rollout moved on while we were scoring; discard
            self._record_shadow_locked(verdicts, shadow)

    def _record_shadow_locked(self, incumbent_verdicts, candidate_verdicts) -> None:
        self._shadow_batches += 1
        _shadow_batches_counter().inc()
        candidate_joints: list[float] = []
        incumbent_joints: list[float] = []
        for reference, shadow in zip(incumbent_verdicts, candidate_verdicts):
            ref_scored = reference.status in _SCORED and math.isfinite(
                reference.joint_discrepancy
            )
            cand_scored = shadow.status in _SCORED and math.isfinite(
                shadow.joint_discrepancy
            )
            if ref_scored:
                self._incumbent_samples += 1
                self._incumbent_flags += reference.status == resilience.FLAGGED
                incumbent_joints.append(reference.joint_discrepancy)
            if cand_scored:
                self._candidate_samples += 1
                self._candidate_flags += shadow.status == resilience.FLAGGED
                candidate_joints.append(shadow.joint_discrepancy)
            elif ref_scored:
                # The incumbent scored this input cleanly and the candidate
                # could not: that is a candidate failure, not bad input.
                self._candidate_failures += 1
        if self._candidate_failures > self.config.max_candidate_failures:
            self._trip(
                f"{self._candidate_failures} candidate scoring failure(s) exceed "
                f"the budget of {self.config.max_candidate_failures}",
                "candidate_failure",
            )
            return
        if self._feed_drift_locked(incumbent_joints, candidate_joints):
            return
        if self._incumbent_samples and self._candidate_samples:
            incumbent_rate = self._incumbent_flags / self._incumbent_samples
            candidate_rate = self._candidate_flags / self._candidate_samples
            self._divergence = abs(incumbent_rate - candidate_rate)
            _divergence_gauge().set(self._divergence)
            if (
                self._shadow_batches >= self.config.min_shadow_batches
                and self._divergence > self.config.max_flag_rate_divergence
            ):
                self._trip(
                    f"shadow flag rate {candidate_rate:.3f} diverges from "
                    f"incumbent {incumbent_rate:.3f} by {self._divergence:.3f} "
                    f"(> {self.config.max_flag_rate_divergence:g})",
                    "divergence",
                )

    def _feed_drift_locked(
        self, incumbent_joints: list[float], candidate_joints: list[float]
    ) -> bool:
        """Feed the drift guardrail; returns True when it tripped.

        Until the drift monitor is calibrated, incumbent joints accumulate
        toward the calibration set and candidate joints are buffered;
        calibration replays the buffer so no shadow evidence is lost.
        """
        drift = self.drift
        if drift is None:
            return False
        if not drift.calibrated:
            self._drift_calibration.extend(incumbent_joints)
            self._pending_candidate_joints.extend(candidate_joints)
            if len(self._drift_calibration) < self.config.drift_calibration_samples:
                return False
            drift.calibrate(
                np.asarray(
                    self._drift_calibration[: self.config.drift_calibration_samples]
                )
            )
            candidate_joints = self._pending_candidate_joints
            self._pending_candidate_joints = []
        if not candidate_joints:
            return False
        states = drift.observe_batch(np.asarray(candidate_joints))
        alarm = next((s for s in states if s.alarming), None)
        if alarm is not None:
            self._trip(
                f"drift alarm on the candidate's joint-discrepancy stream "
                f"(level {alarm.level:.4f} > threshold {alarm.threshold:.4f} "
                f"after {alarm.observations} observations)",
                "drift",
            )
            return True
        return False

    def _watch_live_locked(self, verdicts) -> None:
        """Guardrails over the promoted candidate's live stream (lock held)."""
        joints: list[float] = []
        for verdict in verdicts:
            if verdict.status in _SCORED and math.isfinite(verdict.joint_discrepancy):
                joints.append(verdict.joint_discrepancy)
            elif verdict.status == resilience.DEGRADED:
                # Live quarantines can be genuinely bad inputs; a degraded
                # score is the candidate's own machinery failing.
                self._candidate_failures += 1
        if self._candidate_failures > self.config.max_candidate_failures:
            self._trip(
                f"{self._candidate_failures} candidate scoring failure(s) after "
                "promotion exceed the budget of "
                f"{self.config.max_candidate_failures}",
                "candidate_failure",
            )
            return
        self._feed_drift_locked([], joints)

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Operator snapshot (embedded in ``ValidationServer.health()``)."""
        with self._lock:
            drift = self.drift
            return {
                "state": self.state,
                "candidate": self._candidate_key,
                "incumbent_version": self._incumbent_version,
                "shadow_batches": self._shadow_batches,
                "incumbent_samples": self._incumbent_samples,
                "candidate_samples": self._candidate_samples,
                "candidate_failures": self._candidate_failures,
                "divergence": self._divergence,
                "drift_calibrated": bool(drift is not None and drift.calibrated),
                "latched": sorted(
                    key
                    for key, breaker in self._latches.items()
                    if not breaker.allow()
                ),
                "last_rollback": self.last_rollback,
            }

    def __repr__(self) -> str:
        return (
            f"RolloutController(state={self.state!r}, "
            f"candidate={self._candidate_key!r}, "
            f"shadow_batches={self._shadow_batches})"
        )
