"""In-process fitting pipeline for Algorithm 1, over one forward pass.

``DeepValidator.fit`` runs Algorithm 1 as three stages:

1. **One pass** — :func:`extract_kept_rows` streams the training images
   once through :meth:`ProbedSequential.iter_hidden_representations` in
   ``chunk_size`` batches. Each chunk's probabilities give its predictions
   (Algorithm 1 line 2), and the correctly classified rows of every
   validated layer are copied into per-layer buffers, compacted in
   training order. No image is forwarded twice, and a chunk's activations
   are dropped as soon as its kept rows are copied.
2. **Planning** — :func:`plan_fit_tasks` replays Algorithm 1's exact
   per-layer RNG discipline (``seed + layer position``, classes visited in
   sorted order) on the kept labels to decide *which rows* each
   ``(layer, class)`` task trains on. Subsampling therefore depends only on
   the labels and the seed.
3. **Solving** — :func:`solve_tasks` runs the independent ``(layer,
   class)`` solves (scaler stats, Gram matrix, SMO) in-process, in sorted
   key order. :class:`TaskFeatures` gathers a task's rows and casts them to
   float64 only when that task is read, and drops a layer's buffer after
   the layer's last task, so at most one task's float64 copy is alive at a
   time. The float32 → float64 cast is exact, so the solve is bit-identical
   to casting every task up front.

Retained memory is the kept rows of every validated layer (``N_kept x
features`` at the forward's float32) plus one task's float64 copy
(``max_per_class x features x 8`` bytes); see ``docs/fitting.md``.

Solving is also the pipeline's recovery point: given a ``journal``
(:class:`~repro.core.checkpoint.TaskJournal`), every completed solution is
flushed to disk as it lands; a rerun replays the journal and solves only
the missing tasks, so a crash at task 97/100 costs three solves, not a
hundred. Replayed and freshly solved tasks are bit-identical — both ran the
same :func:`_solve_fit_task` math. The journal's header frame fingerprints
the solve config and task features, so a stale journal under a reused name
is discarded, never merged.

The determinism contract (pipeline ≡ per-layer ``LayerValidator.fit`` ≡
interrupted + resumed) is pinned by the hypothesis suites in
``tests/test_fitting_determinism.py`` and ``tests/test_checkpoint_resume.py``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.svm.oneclass import OneClassSVM
from repro.svm.scaler import StandardScaler
from repro.utils.cache import hash_array
from repro.utils.rng import new_rng


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
    """Everything one ``(layer, class)`` solve produces.

    The full dual vector is dropped; only the support set, offsets, fitted
    kernel, and scaler statistics are kept — exactly the pieces
    :meth:`OneClassSVM.from_solution` needs, and what the journal stores.
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


# -- stage 1: one forward pass -------------------------------------------------


def extract_kept_rows(
    model,
    images: np.ndarray,
    labels: np.ndarray,
    layer_indices: list[int],
    filter_misclassified: bool = True,
    chunk_size: int = 256,
) -> tuple[np.ndarray, int, dict[int, np.ndarray]]:
    """Forward ``images`` once; keep the correctly classified rows.

    Returns ``(kept_labels, correct, buffers)``: the labels of the kept
    images in training order, the number of correctly classified images,
    and, per validated probe index, the kept rows of that probe's
    flattened representation, compacted in training order (row ``i``
    belongs to ``kept_labels[i]``). With ``filter_misclassified=False``
    (the ablation that skips Algorithm 1 line 2) every row is kept.
    """
    labels = np.asarray(labels)
    layers = set(layer_indices)
    keep = np.zeros(len(images), dtype=bool)
    correct = kept = 0
    buffers: dict[int, np.ndarray] = {}
    for start, probs, reps in model.iter_hidden_representations(
        images, batch_size=chunk_size
    ):
        stop = start + len(probs)
        hits = probs.argmax(axis=1) == labels[start:stop]
        correct += int(hits.sum())
        rows = hits if filter_misclassified else np.ones(len(probs), dtype=bool)
        keep[start:stop] = rows
        count = int(rows.sum())
        for layer_index in layers:
            rep = reps[layer_index]
            if layer_index not in buffers:
                # Sized for every image; rows past the kept count are never
                # written, so their pages are never touched.
                buffers[layer_index] = np.empty((len(images), rep.shape[1]), dtype=rep.dtype)
            np.compress(rows, rep, axis=0, out=buffers[layer_index][kept : kept + count])
        kept += count
    return labels[keep], correct, {k: buffer[:kept] for k, buffer in buffers.items()}


# -- stage 2: planning ---------------------------------------------------------


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


class TaskFeatures(Mapping):
    """Each task's float64 training features, gathered when read.

    ``buffers`` maps a probe index to the representation matrix the tasks'
    ``rows`` index into: the kept rows of :func:`extract_kept_rows`, or a
    caller's full matrix. ``features[key]`` gathers the task's rows and
    casts them to float64 on every read; nothing is cached.
    :meth:`release` drops a layer's buffer once the layer's last task (in
    sorted key order) is settled. The mapping takes ownership of
    ``buffers``.
    """

    def __init__(self, tasks: list[FitTask], buffers: dict[int, np.ndarray]) -> None:
        self._tasks = {task.key: task for task in tasks}
        self._buffers = buffers
        self._last_key = {
            self._tasks[key].layer_index: key for key in sorted(self._tasks)
        }

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        task = self._tasks[key]
        return np.asarray(self._buffers[task.layer_index][task.rows], dtype=np.float64)

    def __contains__(self, key) -> bool:
        return key in self._tasks  # membership must not gather

    def __iter__(self):
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def release(self, key: tuple[int, int]) -> None:
        """Drop ``key``'s layer buffer if ``key`` is that layer's last task."""
        layer_index = self._tasks[key].layer_index
        if self._last_key[layer_index] == key:
            self._buffers.pop(layer_index, None)


# -- stage 3: the (layer, class) solves ----------------------------------------


def _solve_config(config) -> dict:
    """The slice of ``ValidatorConfig`` a solve needs (and is fingerprinted by)."""
    return {
        "nu": config.nu,
        "kernel": config.kernel,
        "gamma": config.gamma,
        "standardize": config.standardize,
    }


def _solve_fit_task(payload) -> tuple[tuple[int, int], TaskSolution]:
    """Scaler stats, Gram, and SMO for one ``(key, features, cfg)`` task.

    The same ``StandardScaler.fit`` and ``OneClassSVM.fit`` calls the
    serial ``LayerValidator.fit`` makes, so solutions are bit-identical to
    it. Module-level so tests can count or forbid solves.
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


def _journal_fingerprint(task_features, cfg) -> str:
    """Identity stamp of one solve: config plus a content hash per task.

    Written as the journal's header so that a journal produced from
    different data or solver settings under the same name (journals are
    keyed only by dataset/profile/seed) is discarded instead of silently
    merged into the fitted validator — replaying foreign solutions would
    break the bit-identity contract without any error. Tasks are read and
    hashed one at a time, so a lazy :class:`TaskFeatures` never holds more
    than one task's features here either.
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


def solve_tasks(
    task_features: Mapping, config, journal=None
) -> dict[tuple[int, int], TaskSolution]:
    """Solve every task in-process, in sorted key order.

    ``task_features`` maps each task key to its float64 training features.
    A :class:`TaskFeatures` builds each value when it is read and releases
    each layer buffer after the layer's last task, so one task's features
    are alive at a time.

    ``journal`` (a :class:`~repro.core.checkpoint.TaskJournal`) makes the
    solve resumable: previously journaled solutions are replayed instead
    of recomputed, and every new solution is flushed before the next task
    starts. The journal carries a fingerprint header of the solve config
    and task features; a journal written for different data or settings
    is cleared rather than replayed.
    """
    cfg = _solve_config(config)
    ordered = sorted(task_features)
    release = getattr(task_features, "release", None)
    solutions: dict = {}
    with obs.span("fit.solve_tasks", tasks=len(ordered)), \
            obs.timed(_stage_histogram("fit.solve")):
        if journal is not None:
            replayed = _replay_journal(journal, task_features, cfg)
            if replayed:
                _tasks_counter().labels(mode="replayed").inc(len(replayed))
            solutions.update(replayed)
        for key in ordered:
            if key not in solutions:
                with obs.span("fit.solve_task", layer=key[0], klass=key[1]):
                    _, solution = _solve_fit_task((key, task_features[key], cfg))
                _tasks_counter().labels(mode="inprocess").inc()
                _record_solution(key, solution, solutions, journal)
            if release is not None:
                release(key)
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
    is fixed by the plan.
    """
    from repro.core.validator import LayerValidator

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
    journal=None,
) -> tuple[list, int]:
    """The full pipeline behind ``DeepValidator.fit``: one pass, plan, solve.

    ``images``/``labels`` are the whole training set; the pass itself
    drops the misclassified images (unless ``config.filter_misclassified``
    is off). ``journal`` (a :class:`~repro.core.checkpoint.TaskJournal`)
    makes the solve stage resumable across process deaths; the plan is a
    pure function of the kept labels and the seed, so a journal written by
    an interrupted fit of the same data/config replays into the identical
    task list. Returns the fitted per-layer validators in layer order and
    the number of correctly classified training images.
    """
    layer_positions = list(enumerate(layer_indices))
    with obs.span(
        "fit.pipeline", layers=len(layer_indices), images=len(images)
    ):
        with obs.timed(_stage_histogram("fit.extract")):
            kept_labels, correct, buffers = extract_kept_rows(
                model,
                images,
                labels,
                layer_indices,
                filter_misclassified=config.filter_misclassified,
                chunk_size=chunk_size,
            )
        with obs.timed(_stage_histogram("fit.plan")):
            tasks = plan_fit_tasks(kept_labels, layer_positions, config)
        solutions = solve_tasks(TaskFeatures(tasks, buffers), config, journal=journal)
        validators = build_layer_validators(
            tasks, solutions, layer_positions, model.probe_names, config
        )
    return validators, correct


def fit_validators_from_arrays(
    representations: list[np.ndarray],
    labels: np.ndarray,
    layer_indices: list[int],
    config,
    layer_names: list[str] | None = None,
    journal=None,
) -> list:
    """Fit per-layer validators from already-extracted representations.

    ``representations[i]`` holds probe ``i``'s ``(N, features_i)`` matrix.
    Used by the determinism suite (no model required) and by callers that
    already hold activations; mathematically identical to
    ``LayerValidator.fit`` per layer, and solved through the same
    one-task-at-a-time path as :func:`fit_deep_validator`. ``journal``
    passes through to :func:`solve_tasks` for crash-safe, resumable
    solving.
    """
    labels = np.asarray(labels)
    if layer_names is None:
        layer_names = [f"layer{i}" for i in range(len(representations))]
    layer_positions = list(enumerate(layer_indices))
    tasks = plan_fit_tasks(labels, layer_positions, config)
    features = TaskFeatures(tasks, dict(enumerate(representations)))
    solutions = solve_tasks(features, config, journal=journal)
    return build_layer_validators(tasks, solutions, layer_positions, layer_names, config)
