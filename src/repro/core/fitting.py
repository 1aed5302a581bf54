"""Parallel, memory-bounded fitting pipeline for Algorithm 1.

``DeepValidator.fit`` used to materialise the hidden representations of
every kept training image in one unchunked forward pass, then run the
``layers x classes`` independent one-class SMO solves strictly serially.
This module decomposes that into three stages:

1. **Planning** — :func:`plan_fit_tasks` replays Algorithm 1's exact
   per-layer RNG discipline (``seed + layer position``, classes visited in
   sorted order) to decide *which rows* each ``(layer, class)`` task will
   train on, before any activation is computed. Subsampling therefore
   depends only on the labels and the seed, never on worker scheduling.
2. **Chunked extraction** — :func:`extract_task_features` streams the kept
   images through :meth:`ProbedSequential.iter_hidden_representations` in
   ``chunk_size`` batches and gathers *only* the planned rows per layer, so
   peak transient memory is ``chunk_size x widest layer`` plus the
   (``classes x max_per_class``)-row training buffers — never the full
   dataset's activations.
3. **Task-graph solving** — :func:`solve_tasks` dispatches the independent
   ``(layer, class)`` solves (scaler stats, Gram matrix, SMO) over a
   ``multiprocessing`` pool. Each worker computes its own Gram block;
   results are merged by task key, so the assembled validator is
   bit-identical regardless of worker count or completion order.
   ``n_jobs=1`` runs the same solve in-process (the exact serial math).

Stage 3 is also the pipeline's recovery point:

* **Task journal** — given a ``journal``
  (:class:`~repro.core.checkpoint.TaskJournal`), every completed solution
  is flushed to disk as it lands; a rerun replays the journal and solves
  only the missing tasks, so a crash at task 97/100 costs three solves,
  not a hundred. Replayed and freshly-solved tasks are bit-identical —
  both ran the same :func:`_solve_fit_task` math. The journal's header
  frame fingerprints the solve config and task features, so a stale
  journal under a reused name is discarded, never merged.
* **Hung-worker watchdog** — a per-task deadline (``task_timeout`` or the
  ``REPRO_FIT_TASK_TIMEOUT`` environment variable, seconds) bounds how
  long the coordinator waits on any one solve; expiry terminates and
  recycles the whole pool rather than deadlocking the fit.
* **Bounded retry** — pool construction failures, worker crashes, and
  watchdog expiries are retried up to ``max_retries`` times with
  exponential backoff (progress made before a failure is kept — only
  still-missing tasks are redispatched); when retries are exhausted, the
  remaining work degrades to the in-process path with a
  :class:`ParallelFitWarning` instead of aborting the fit.

The determinism contract (``n_jobs=1`` ≡ ``n_jobs=N`` ≡ interrupted +
resumed) is pinned by the hypothesis suites in
``tests/test_fitting_determinism.py`` and ``tests/test_checkpoint_resume.py``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.svm.oneclass import OneClassSVM
from repro.svm.scaler import StandardScaler
from repro.utils.cache import hash_array
from repro.utils.rng import new_rng
from repro.utils.warnings_ import emit_warning


def _stage_histogram(stage: str):
    return obs.histogram(
        "profile_stage_seconds",
        help="Wall-clock seconds spent in profiled stages",
        labels=("stage",),
    ).labels(stage=stage)


def _tasks_counter():
    return obs.counter(
        "fit_tasks_total",
        help="Completed (layer, class) solves by execution mode",
        labels=("mode",),
    )

#: Environment variable holding the per-task watchdog deadline, in seconds.
TASK_TIMEOUT_ENV = "REPRO_FIT_TASK_TIMEOUT"

#: Sleep hook for retry backoff; tests patch this to keep suites fast.
_sleep = time.sleep


class ParallelFitWarning(RuntimeWarning):
    """Raised (as a warning) when parallel fitting falls back to in-process.

    Emitted through :func:`repro.utils.warnings_.emit_warning`, so
    ``REPRO_STRICT=1`` escalates the silent fallback into an error.
    """


class HungWorkerError(RuntimeError):
    """A fit task missed its watchdog deadline; the pool was recycled.

    Raised internally by one parallel attempt and caught by
    :func:`solve_tasks`'s retry loop — it only escapes to callers through
    the eventual :class:`ParallelFitWarning` message when every retry
    hangs too.
    """


class NonRetryableFitError(RuntimeError):
    """An error the parallel retry machinery must propagate, never absorb.

    The pool-attempt loop wraps arbitrary worker failures for retry and
    eventual serial fallback; exceptions deriving from this class punch
    straight through instead. The fault injectors subclass it (via
    :class:`repro.testing.faults.InjectedCrashError`) so that a
    misconfiguration they refuse to model — e.g. a hung worker with the
    watchdog disabled — fails the fit loudly rather than being retried
    into a silent serial fallback.
    """


class _PoolAttemptFailure(Exception):
    """Internal: one parallel attempt failed in the pool machinery.

    Wraps pool-construction errors, dispatch errors, and worker crashes —
    the failures a pool recycle plus retry may fix. Exceptions raised
    while *recording* a finished solution (journal I/O, injected crashes,
    strict-mode escalations) and :class:`NonRetryableFitError` subclasses
    deliberately do not get this wrapper and propagate to the caller.
    """


@dataclass(frozen=True)
class FitTask:
    """One independent unit of Algorithm 1: fit class ``klass`` at one layer.

    ``position`` indexes the validated-layer list (it seeds the RNG),
    ``layer_index`` the model probe, and ``rows`` the training-set rows the
    task trains on — in the exact (possibly shuffled) order the serial
    subsampler would visit them, since SMO initialisation is order-sensitive.
    """

    position: int
    layer_index: int
    klass: int
    rows: np.ndarray

    @property
    def key(self) -> tuple[int, int]:
        return (self.position, self.klass)


@dataclass
class TaskSolution:
    """Everything a worker ships back from one ``(layer, class)`` solve.

    The full dual vector stays in the worker; only the support set, offsets,
    fitted kernel, and scaler statistics cross the process boundary —
    exactly the pieces :meth:`OneClassSVM.from_solution` needs.
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    rho: float
    norm_w: float
    kernel: object
    iterations: int
    converged: bool
    scaler_mean: np.ndarray | None = None
    scaler_scale: np.ndarray | None = None


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise the ``n_jobs`` knob: ``-1`` means every usable core."""
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # platforms without CPU affinity
            return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be -1 or >= 1, got {n_jobs}")
    return int(n_jobs)


#: Default fit worker cap: fit parallelism saturates quickly on the small
#: per-task Grams the paper's settings produce.
DEFAULT_FIT_JOBS_CAP = 4


def default_fit_jobs() -> int:
    """Worker count for callers without an explicit knob.

    Honours the ``REPRO_FIT_JOBS`` environment variable, otherwise the
    usable core count capped at :data:`DEFAULT_FIT_JOBS_CAP`.
    """
    env = os.environ.get("REPRO_FIT_JOBS")
    if env is not None:
        return resolve_n_jobs(int(env))
    return min(DEFAULT_FIT_JOBS_CAP, resolve_n_jobs(-1))


# -- stage 1: planning ---------------------------------------------------------


def plan_fit_tasks(labels, layer_positions, config) -> list[FitTask]:
    """Replay Algorithm 1's subsampling to a task list, without activations.

    ``layer_positions`` is a list of ``(position, layer_index)`` pairs as
    enumerated by ``DeepValidator.fit``; ``position`` feeds the per-layer
    RNG (``config.seed + position``) exactly like the serial path, and
    classes are visited in ``np.unique`` order, so the chosen rows — and
    their order — match a serial ``LayerValidator.fit`` draw for draw.
    """
    labels = np.asarray(labels)
    if not config.per_class:
        labels = np.zeros(len(labels), dtype=np.int64)
    tasks: list[FitTask] = []
    for position, layer_index in layer_positions:
        gen = new_rng(config.seed + position)
        for klass in np.unique(labels):
            rows = np.flatnonzero(labels == klass)
            if len(rows) < 2:
                raise ValueError(
                    f"class {klass} has only {len(rows)} correctly classified "
                    "training images; cannot fit its reference distribution"
                )
            if len(rows) > config.max_per_class:
                rows = gen.choice(rows, size=config.max_per_class, replace=False)
            tasks.append(FitTask(position, layer_index, int(klass), rows))
    return tasks


# -- stage 2: chunked extraction -----------------------------------------------


def extract_task_features(
    model, images: np.ndarray, tasks: list[FitTask], chunk_size: int = 256
) -> dict[tuple[int, int], np.ndarray]:
    """Gather each task's training features with bounded transient memory.

    Streams ``images`` through the model in ``chunk_size`` batches and
    copies only the planned rows of each validated layer into per-layer
    buffers (at most ``classes x max_per_class`` rows each); the full
    ``(N, features)`` activation matrices are never materialised.
    """
    unions: dict[int, np.ndarray] = {}
    for task in tasks:
        if task.layer_index in unions:
            unions[task.layer_index] = np.union1d(unions[task.layer_index], task.rows)
        else:
            unions[task.layer_index] = np.unique(task.rows)

    buffers: dict[int, np.ndarray] = {}
    for start, _, reps in model.iter_hidden_representations(images, batch_size=chunk_size):
        stop = start + len(reps[0]) if reps else start
        for layer_index, union in unions.items():
            lo, hi = np.searchsorted(union, [start, stop])
            if lo == hi:
                continue
            rep = reps[layer_index]
            if layer_index not in buffers:
                buffers[layer_index] = np.empty((len(union), rep.shape[1]), dtype=rep.dtype)
            buffers[layer_index][lo:hi] = rep[union[lo:hi] - start]

    features: dict[tuple[int, int], np.ndarray] = {}
    for task in tasks:
        union = unions[task.layer_index]
        positions = np.searchsorted(union, task.rows)
        features[task.key] = np.asarray(
            buffers[task.layer_index][positions], dtype=np.float64
        )
    return features


# -- stage 3: the (layer, class) task graph ------------------------------------


def _solve_config(config) -> dict:
    """The picklable slice of ``ValidatorConfig`` a solve needs."""
    return {
        "nu": config.nu,
        "kernel": config.kernel,
        "gamma": config.gamma,
        "standardize": config.standardize,
    }


def _solve_fit_task(payload) -> tuple[tuple[int, int], TaskSolution]:
    """Worker body: scaler stats, Gram, and SMO for one task.

    Runs identically in-process and in a pool worker — the same
    ``StandardScaler.fit`` and ``OneClassSVM.fit`` calls the serial path
    makes, so solutions are bit-identical either way.
    """
    key, features, cfg = payload
    scaler_mean = scaler_scale = None
    if cfg["standardize"]:
        scaler = StandardScaler().fit(features)
        scaler_mean, scaler_scale = scaler.mean_, scaler.scale_
        features = scaler.transform(features)
    svm = OneClassSVM(nu=cfg["nu"], kernel=cfg["kernel"], gamma=cfg["gamma"]).fit(features)
    return key, TaskSolution(
        support_vectors=svm.support_vectors_,
        dual_coef=svm.dual_coef_,
        rho=svm.rho_,
        norm_w=svm.norm_w_,
        kernel=svm.kernel_,
        iterations=svm.result_.iterations,
        converged=svm.result_.converged,
        scaler_mean=scaler_mean,
        scaler_scale=scaler_scale,
    )


def _make_pool(processes: int):
    """Pool constructor, separated so tests can simulate pool failures."""
    import multiprocessing

    return multiprocessing.get_context().Pool(processes=processes)


def resolve_task_timeout(task_timeout: float | None = None) -> float | None:
    """Normalise the per-task watchdog deadline.

    ``None`` consults ``REPRO_FIT_TASK_TIMEOUT`` (seconds; unset, empty,
    or non-positive disables the watchdog); an explicit non-positive value
    force-disables it regardless of the environment.
    """
    if task_timeout is not None:
        return float(task_timeout) if task_timeout > 0 else None
    env = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
    if not env:
        return None
    value = float(env)
    return value if value > 0 else None


def _journal_fingerprint(task_features, cfg) -> str:
    """Identity stamp of one solve: config plus a content hash per task.

    Written as the journal's header so that a journal produced from
    different data or solver settings under the same name (journals are
    keyed only by dataset/profile/seed) is discarded instead of silently
    merged into the fitted validator — replaying foreign solutions would
    break the bit-identity contract without any error.
    """
    digest = hashlib.sha256()
    digest.update(repr(sorted(cfg.items())).encode())
    for key in sorted(task_features):
        digest.update(repr(key).encode())
        digest.update(hash_array(task_features[key]).encode())
    return digest.hexdigest()


def _replay_journal(journal, task_features, cfg) -> dict:
    """Validated journal replay: prior solutions, or a cleared journal.

    A journal whose header matches this solve's fingerprint replays its
    recorded solutions; a mismatch (different data/config, or a
    pre-header journal) clears it. Either way the journal leaves stamped
    with the current fingerprint, ready for incremental appends.
    """
    fingerprint = _journal_fingerprint(task_features, cfg)
    if journal.exists() and journal.header() != fingerprint:
        journal.clear()
    if not journal.exists():
        journal.write_header(fingerprint)
    return {
        key: solution
        for key, solution in journal.replay()
        if key in task_features
    }


def _record_solution(key, solution, solutions, journal) -> None:
    """Land one finished solution: merge it and flush it to the journal.

    Module-level on purpose — this is the crash seam
    :func:`repro.testing.faults.crash_at_task` patches to simulate a kill
    after exactly *j* solutions have been journaled.
    """
    solutions[key] = solution
    if journal is not None:
        journal.append((key, solution))


def _solve_parallel(
    pending, task_features, cfg, n_jobs, timeout, solutions, journal
) -> None:
    """One pool attempt over ``pending``; records solutions as they land.

    Pool machinery failures (construction, dispatch, worker crashes) raise
    :class:`_PoolAttemptFailure`; a watchdog expiry raises
    :class:`HungWorkerError` after terminating the pool. Either way, every
    solution recorded before the failure is kept, so retries only redo the
    genuinely missing work.
    """
    import multiprocessing

    try:
        pool = _make_pool(min(n_jobs, len(pending)))
    except Exception as exc:  # noqa: BLE001 — robustness is the contract
        raise _PoolAttemptFailure(exc) from exc
    try:
        try:
            handles = [
                (key, pool.apply_async(_solve_fit_task, ((key, task_features[key], cfg),)))
                for key in pending
            ]
        except NonRetryableFitError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise _PoolAttemptFailure(exc) from exc
        for key, handle in handles:
            try:
                solved_key, solution = (
                    handle.get(timeout) if timeout is not None else handle.get()
                )
            except multiprocessing.TimeoutError as exc:
                raise HungWorkerError(
                    f"fit task {key} missed its {timeout}s deadline "
                    f"({TASK_TIMEOUT_ENV}); recycling the worker pool"
                ) from exc
            except NonRetryableFitError:
                raise
            except Exception as exc:  # noqa: BLE001
                raise _PoolAttemptFailure(exc) from exc
            _record_solution(solved_key, solution, solutions, journal)
    finally:
        # Recycle the pool unconditionally: terminate() is what reclaims a
        # hung worker, and it is also how Pool.__exit__ ends a clean run.
        pool.terminate()


def solve_tasks(
    task_features: dict[tuple[int, int], np.ndarray],
    config,
    n_jobs: int = 1,
    journal=None,
    task_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.1,
) -> dict[tuple[int, int], TaskSolution]:
    """Solve every task, in-process or across a worker pool.

    Payloads are dispatched in sorted key order and results are merged by
    key, so the mapping is deterministic regardless of scheduling.

    ``journal`` (a :class:`~repro.core.checkpoint.TaskJournal`) makes the
    solve resumable: previously journaled solutions are replayed instead
    of recomputed, and every new solution is flushed before the next task
    starts. The journal carries a fingerprint header of the solve config
    and task features; a journal written for different data or settings
    is cleared rather than replayed. ``task_timeout`` (default: ``REPRO_FIT_TASK_TIMEOUT``) is the
    hung-worker watchdog — a task that misses the deadline gets its pool
    terminated and recycled. Pool failures of any kind are retried up to
    ``max_retries`` times with exponential backoff (``retry_backoff``,
    doubling per retry); exhausted retries degrade the remaining work to
    the in-process path with a :class:`ParallelFitWarning` — a failed,
    hung, or flaky pool never aborts the fit, and never changes its
    result.
    """
    cfg = _solve_config(config)
    ordered = sorted(task_features)
    solutions: dict = {}
    with obs.span("fit.solve_tasks", tasks=len(ordered), n_jobs=n_jobs), \
            obs.timed(_stage_histogram("fit.solve")):
        if journal is not None:
            replayed = _replay_journal(journal, task_features, cfg)
            if replayed:
                _tasks_counter().labels(mode="replayed").inc(len(replayed))
            solutions.update(replayed)
        n_jobs = resolve_n_jobs(n_jobs)
        timeout = resolve_task_timeout(task_timeout)
        pending = [key for key in ordered if key not in solutions]
        if n_jobs > 1 and len(pending) > 1:
            attempts = 1 + max(0, int(max_retries))
            failure: Exception | None = None
            solved_before = len(solutions)
            for attempt in range(attempts):
                if attempt:
                    obs.counter(
                        "fit_pool_retries_total",
                        help="Parallel-fit pool attempts beyond the first",
                    ).inc()
                    _sleep(retry_backoff * (2 ** (attempt - 1)))
                pending = [key for key in ordered if key not in solutions]
                if not pending:
                    break
                try:
                    _solve_parallel(
                        pending, task_features, cfg, n_jobs, timeout, solutions, journal
                    )
                    failure = None
                    break
                except (HungWorkerError, _PoolAttemptFailure) as exc:
                    failure = exc
            if len(solutions) > solved_before:
                _tasks_counter().labels(mode="pool").inc(
                    len(solutions) - solved_before
                )
            if failure is not None:
                obs.counter(
                    "fit_serial_fallback_total",
                    help="Fits whose pool retries were exhausted and degraded "
                    "to in-process solving",
                ).inc()
                cause = failure.__cause__ if failure.__cause__ is not None else failure
                emit_warning(
                    f"parallel fit (n_jobs={n_jobs}) failed after {attempts} "
                    f"attempt(s) with {type(cause).__name__}: {cause}; "
                    "falling back to in-process fitting",
                    ParallelFitWarning,
                    stacklevel=2,
                )
        for key in ordered:
            if key not in solutions:
                with obs.span("fit.solve_task", layer=key[0], klass=key[1]):
                    _, solution = _solve_fit_task((key, task_features[key], cfg))
                _tasks_counter().labels(mode="inprocess").inc()
                _record_solution(key, solution, solutions, journal)
    return {key: solutions[key] for key in ordered}


# -- assembly ------------------------------------------------------------------


def build_layer_validators(
    tasks: list[FitTask],
    solutions: dict[tuple[int, int], TaskSolution],
    layer_positions,
    layer_names,
    config,
) -> list:
    """Assemble fitted ``LayerValidator``s from task solutions.

    Iterates tasks (already in planning order) rather than the solution
    mapping, so assembly order — and therefore every downstream structure —
    is fixed by the plan, not by worker completion.
    """
    from repro.core.validator import LayerValidator

    by_position = {position: layer_index for position, layer_index in layer_positions}
    validators = {
        position: LayerValidator(layer_index, layer_names[layer_index], config)
        for position, layer_index in layer_positions
    }
    for task in tasks:
        solution = solutions[task.key]
        scaler = None
        if config.standardize:
            scaler = StandardScaler.from_stats(
                solution.scaler_mean, solution.scaler_scale
            )
        svm = OneClassSVM.from_solution(
            kernel=solution.kernel,
            support_vectors=solution.support_vectors,
            dual_coef=solution.dual_coef,
            rho=solution.rho,
            norm_w=solution.norm_w,
            nu=config.nu,
            iterations=solution.iterations,
            converged=solution.converged,
        )
        validators[task.position].install(task.klass, svm, scaler)
    return [validators[position] for position, _ in layer_positions]


# -- front ends ----------------------------------------------------------------


def fit_deep_validator(
    model,
    images: np.ndarray,
    labels: np.ndarray,
    layer_indices: list[int],
    config,
    chunk_size: int = 256,
    n_jobs: int | None = None,
    journal=None,
) -> list:
    """The full pipeline behind ``DeepValidator.fit``: plan, extract, solve.

    ``n_jobs`` defaults to ``config.n_jobs``. ``journal`` (a
    :class:`~repro.core.checkpoint.TaskJournal`) makes the solve stage
    resumable across process deaths; the plan is a pure function of the
    labels and the seed, so a journal written by an interrupted fit of the
    same data/config replays into the identical task graph. Returns the
    fitted per-layer validators in layer order.
    """
    layer_positions = list(enumerate(layer_indices))
    with obs.span(
        "fit.pipeline", layers=len(layer_indices), images=len(images)
    ):
        with obs.timed(_stage_histogram("fit.plan")):
            tasks = plan_fit_tasks(labels, layer_positions, config)
        with obs.timed(_stage_histogram("fit.extract")):
            task_features = extract_task_features(
                model, images, tasks, chunk_size=chunk_size
            )
        if n_jobs is None:
            n_jobs = getattr(config, "n_jobs", 1)
        solutions = solve_tasks(task_features, config, n_jobs=n_jobs, journal=journal)
        return build_layer_validators(
            tasks, solutions, layer_positions, model.probe_names, config
        )


def fit_validators_from_arrays(
    representations: list[np.ndarray],
    labels: np.ndarray,
    layer_indices: list[int],
    config,
    n_jobs: int = 1,
    layer_names: list[str] | None = None,
    journal=None,
) -> list:
    """Fit per-layer validators from already-extracted representations.

    ``representations[i]`` holds layer ``i``'s ``(N, features_i)`` matrix.
    Used by the determinism suite (no model required) and by callers that
    already hold activations; mathematically identical to
    ``LayerValidator.fit`` per layer. ``journal`` passes through to
    :func:`solve_tasks` for crash-safe, resumable solving.
    """
    labels = np.asarray(labels)
    if layer_names is None:
        layer_names = [f"layer{i}" for i in range(len(representations))]
    layer_positions = list(enumerate(layer_indices))
    tasks = plan_fit_tasks(labels, layer_positions, config)
    task_features = {
        task.key: np.asarray(
            representations[task.layer_index][task.rows], dtype=np.float64
        )
        for task in tasks
    }
    solutions = solve_tasks(task_features, config, n_jobs=n_jobs, journal=journal)
    return build_layer_validators(tasks, solutions, layer_positions, layer_names, config)
