"""Layer validators and the joint Deep Validation detector.

Implements Algorithm 1 (one-class SVM training over correctly classified
training images, per layer per class) and Algorithm 2 (discrepancy
estimation for a test image), including the paper's DenseNet policy of
validating only the rear layers (Section IV-C) and the joint combination of
per-layer discrepancies (Eq. 3).

:class:`DeepValidator` is also the production scoring object. Its batched
path (see ``docs/engine.md``) runs the forward pass once, scores each
validated layer through the layer's
:class:`~repro.svm.packed.PackedClassSVMs` (one GEMM per predicted-class
group, against that class's support vectors only), and memoises results by a
content hash of the input batch; the differential harness pins it against
the paper-faithful per-class loop (:meth:`DeepValidator.reference_discrepancies`)
at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn.sequential import ProbedSequential
from repro.svm.oneclass import OneClassSVM
from repro.svm.packed import PackedClassSVMs, pack_class_svms
from repro.svm.scaler import StandardScaler
from repro.utils.cache import LRUCache, hash_array
from repro.utils.rng import RngLike, new_rng

#: Sentinel distinguishing "pack not yet attempted" from "unpackable".
_PACK_UNSET = object()

#: Samples per forward-pass chunk and per kernel block when scoring; bounds
#: transient memory to ``256 x support vectors`` floats per layer.
_SCORE_CHUNK = 256

#: Scored batches memoised per validator.
_SCORE_CACHE_SIZE = 32


def _cache_counter():
    return obs.counter(
        "engine_cache_requests_total",
        help="Engine score-cache lookups by result",
        labels=("result",),
    )


def _layer_seconds():
    return obs.histogram(
        "engine_layer_score_seconds",
        help="Per-layer kernel-scoring wall time",
        labels=("layer",),
    )


def _hash_key(images: np.ndarray, caller: str) -> str:
    with obs.timed(
        obs.histogram(
            "cache_hash_seconds",
            help="Wall time spent content-hashing batches for score-cache keys",
            labels=("caller",),
        ).labels(caller=caller)
    ):
        return hash_array(images)


def _is_clean(result: tuple[np.ndarray, np.ndarray, dict]) -> bool:
    """Whether a scoring result may be memoised.

    A result with a failed layer, or with non-finite scores (a silently-NaN
    substrate leaves those), is never cached: it would keep serving the
    failure long after the layer recovered.
    """
    _, per_layer, errors = result
    return not errors and bool(np.isfinite(per_layer).all())


@dataclass
class ValidatorConfig:
    """Hyper-parameters shared by every per-layer validator.

    ``nu`` bounds the training-outlier fraction of each one-class SVM;
    ``max_per_class`` subsamples each (layer, class) representation set to
    keep kernel matrices laptop-sized; ``layers`` restricts validation to a
    subset of probe indices (``None`` validates every hidden layer —
    rear-layer policies pass an explicit list); ``combiner`` selects how
    per-layer discrepancies join (the paper uses the unweighted ``"sum"``).

    ``filter_misclassified`` and ``per_class`` exist for ablations: the
    paper's Algorithm 1 both drops misclassified training images (line 2)
    and segments reference distributions by class; disabling either
    reproduces the degraded variants the paper argues against.
    """

    nu: float = 0.1
    kernel: str = "rbf"
    gamma: float | None = None
    max_per_class: int = 200
    layers: list[int] | None = None
    combiner: str = "sum"
    weights: list[float] | None = None
    standardize: bool = True
    filter_misclassified: bool = True
    per_class: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.combiner not in {"sum", "mean", "max", "last"}:
            raise ValueError(
                f"combiner must be sum/mean/max/last, got {self.combiner!r}"
            )
        if self.max_per_class < 2:
            # A one-class SVM needs at least two training points per class;
            # fail here rather than after the training-set forward pass.
            raise ValueError(
                f"max_per_class must be >= 2, got {self.max_per_class}"
            )


class LayerValidator:
    """The paper's "single validator": all per-class SVMs of one layer.

    Fitted on the flattened hidden representations of correctly classified
    training images, grouped by true label. At test time the representation
    of each image is scored against the SVM of the *predicted* label and the
    signed distance is negated (Eq. 2), so positive discrepancy means
    outlier.
    """

    def __init__(self, layer_index: int, layer_name: str, config: ValidatorConfig) -> None:
        self.layer_index = layer_index
        self.layer_name = layer_name
        self.config = config
        self._svms: dict[int, OneClassSVM] = {}
        self._scalers: dict[int, StandardScaler] = {}

    @property
    def classes(self) -> list[int]:
        return sorted(self._svms)

    def fit(
        self,
        representations: np.ndarray,
        labels: np.ndarray,
        rng: RngLike = None,
    ) -> "LayerValidator":
        """Fit one one-class SVM per class present in ``labels``."""
        representations = np.asarray(representations, dtype=np.float64)
        labels = np.asarray(labels)
        if len(representations) != len(labels):
            raise ValueError("representations and labels must have equal length")
        self.__dict__.pop("_pack", None)  # refitting invalidates the packed scorer
        # Refitting replaces the class set wholesale: SVMs for classes absent
        # from the new labels must not survive into ``classes`` or pickles.
        self._svms = {}
        self._scalers = {}
        if not self.config.per_class:
            # Ablation: one class-agnostic reference distribution per layer.
            labels = np.zeros(len(labels), dtype=np.int64)
        gen = new_rng(rng if rng is not None else self.config.seed)
        for klass in np.unique(labels):
            rows = np.flatnonzero(labels == klass)
            if len(rows) < 2:
                raise ValueError(
                    f"class {klass} has only {len(rows)} correctly classified "
                    "training images; cannot fit its reference distribution"
                )
            if len(rows) > self.config.max_per_class:
                rows = gen.choice(rows, size=self.config.max_per_class, replace=False)
            features = representations[rows]
            if self.config.standardize:
                scaler = StandardScaler().fit(features)
                self._scalers[int(klass)] = scaler
                features = scaler.transform(features)
            svm = OneClassSVM(
                nu=self.config.nu, kernel=self.config.kernel, gamma=self.config.gamma
            )
            self._svms[int(klass)] = svm.fit(features)
        return self

    def install(
        self, klass: int, svm: OneClassSVM, scaler: StandardScaler | None = None
    ) -> None:
        """Install one class's fitted pieces (the fitting pipeline's entry).

        :mod:`repro.core.fitting` solves (layer, class) tasks out of line
        and assembles validators through this rather than :meth:`fit`;
        installing invalidates any cached packed scorer.
        """
        self.__dict__.pop("_pack", None)
        self._svms[int(klass)] = svm
        if scaler is not None:
            self._scalers[int(klass)] = scaler

    def discrepancy(self, representations: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        """Per-sample discrepancy ``d_i = -t_i^{y'}(f_i(x))`` (Eq. 2)."""
        if not self._svms:
            raise RuntimeError("LayerValidator is not fitted")
        representations = np.asarray(representations, dtype=np.float64)
        predicted = np.asarray(predicted)
        if not self.config.per_class:
            predicted = np.zeros(len(predicted), dtype=np.int64)
        values = np.empty(len(representations))
        for klass in np.unique(predicted):
            klass = int(klass)
            if klass not in self._svms:
                raise KeyError(
                    f"no reference SVM for predicted class {klass} in layer "
                    f"{self.layer_name!r}"
                )
            rows = np.flatnonzero(predicted == klass)
            features = representations[rows]
            if self.config.standardize:
                features = self._scalers[klass].transform(features)
            values[rows] = -self._svms[klass].signed_distance(features)
        return values

    # -- batched scoring -------------------------------------------------------

    def packed(self) -> PackedClassSVMs | None:
        """The stacked scorer for this layer, or ``None`` if unpackable.

        Built lazily from the fitted per-class SVMs and cached on the
        instance; dropped on refit and excluded from pickles (old cached
        validators re-pack transparently on first batched call). Custom
        kernel objects the packer does not understand yield ``None`` and
        the batched path falls back to the reference loop.
        """
        if not self._svms:
            raise RuntimeError("LayerValidator is not fitted")
        pack = self.__dict__.get("_pack", _PACK_UNSET)
        if pack is _PACK_UNSET:
            try:
                pack = pack_class_svms(
                    self._svms, self._scalers if self.config.standardize else None
                )
            except ValueError:
                pack = None
            self.__dict__["_pack"] = pack
        return pack

    def discrepancy_batched(
        self,
        representations: np.ndarray,
        predicted: np.ndarray,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Per-sample discrepancy via the packed class-routed scorer.

        Numerically equivalent to :meth:`discrepancy` (the differential
        harness pins agreement at 1e-8) but scores each predicted-class
        group with one GEMM against that class's pre-standardised support
        vectors, with no per-class scaler pass. ``chunk_size`` bounds the
        transient kernel block's row count.
        """
        pack = self.packed()
        if pack is None:
            return self.discrepancy(representations, predicted)
        predicted = np.asarray(predicted)
        if not self.config.per_class:
            predicted = np.zeros(len(predicted), dtype=np.int64)
        try:
            return pack.discrepancy(representations, predicted, chunk_size=chunk_size)
        except KeyError as exc:
            raise KeyError(
                f"{exc.args[0]} in layer {self.layer_name!r}"
            ) from None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_pack", None)
        return state


@dataclass
class _FitSummary:
    """Bookkeeping from Algorithm 1's data-filtering step."""

    total_training_images: int = 0
    correctly_classified: int = 0
    layers_fitted: list[str] = field(default_factory=list)


class DeepValidator:
    """The joint validator: Deep Validation as deployed (Figure 1).

    Usage::

        validator = DeepValidator(model, ValidatorConfig())
        validator.fit(train_images, train_labels)
        d = validator.joint_discrepancy(test_images)   # Eq. 3
        flags = validator.flag(test_images)            # d > epsilon

    ``config.layers`` selects which probes to validate (e.g. the rear six
    layers of a DenseNet); ``epsilon`` defaults to 0 until calibrated with
    :meth:`calibrate_threshold` or set directly.

    Scored batches are memoised in ``score_cache``, an
    :class:`~repro.utils.cache.LRUCache` keyed on a content hash of the
    batch: calibrating a threshold and then flagging the same images, or a
    monitor replaying a window, skips the forward pass and all kernel
    work. The cache is replaced on :meth:`fit` and excluded from pickles.
    """

    def __init__(self, model: ProbedSequential, config: ValidatorConfig | None = None) -> None:
        self.model = model
        self.config = config if config is not None else ValidatorConfig()
        probe_count = len(model.probe_names)
        if self.config.layers is None:
            self.layer_indices = list(range(probe_count))
        else:
            bad = [i for i in self.config.layers if not 0 <= i < probe_count]
            if bad:
                raise ValueError(
                    f"layer indices {bad} out of range for {probe_count} probes"
                )
            self.layer_indices = list(self.config.layers)
        if self.config.weights is not None and len(self.config.weights) != len(
            self.layer_indices
        ):
            raise ValueError(
                "weights must match the number of validated layers "
                f"({len(self.layer_indices)}), got {len(self.config.weights)}"
            )
        self.validators: list[LayerValidator] = []
        self.epsilon: float = 0.0
        #: Mean |weighted per-layer discrepancy| from calibration; consumed
        #: by degraded-mode rescaling in :meth:`combine`. ``None`` until
        #: calibrated.
        self.layer_contributions: np.ndarray | None = None
        self.fit_summary = _FitSummary()
        self.score_cache = LRUCache(_SCORE_CACHE_SIZE)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("score_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.score_cache = LRUCache(_SCORE_CACHE_SIZE)

    # -- Algorithm 1 -----------------------------------------------------------

    def fit(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        chunk_size: int = 256,
        journal=None,
    ) -> "DeepValidator":
        """Fit per-layer validators on correctly classified training images.

        Runs the in-process pipeline of :mod:`repro.core.fitting`: one
        forward pass over ``train_images`` in ``chunk_size`` batches both
        finds the correctly classified images and keeps their
        representations, then the (layer, class) one-class SVMs are solved
        one at a time. ``journal`` (a
        :class:`~repro.core.checkpoint.TaskJournal`) makes the solve stage
        crash-safe: completed (layer, class) solutions are flushed as they
        land and replayed on a rerun of the same data and config.
        """
        from repro.core.fitting import fit_deep_validator

        self.score_cache = LRUCache(_SCORE_CACHE_SIZE)  # old scores are stale
        # A refit reports only its own run: stale layer lists and image
        # counts from a previous fit must not accumulate.
        self.fit_summary = _FitSummary()
        self.validators, correct = fit_deep_validator(
            self.model,
            train_images,
            train_labels,
            self.layer_indices,
            self.config,
            chunk_size=chunk_size,
            journal=journal,
        )
        self.fit_summary.total_training_images = len(train_images)
        self.fit_summary.correctly_classified = correct
        probe_names = self.model.probe_names
        self.fit_summary.layers_fitted = [
            probe_names[layer_index] for layer_index in self.layer_indices
        ]
        return self

    def _check_fitted(self) -> None:
        if not self.validators:
            raise RuntimeError("DeepValidator is not fitted")

    # -- Algorithm 2 -----------------------------------------------------------

    def _compute(
        self, images: np.ndarray, caller: str, skip: frozenset[int] | set[int]
    ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
        """Batched Algorithm 2 with per-layer fault isolation.

        One forward pass, then each validated layer not in ``skip`` is
        scored through its packed multi-class scorer inside its own
        try/except: a raising scorer leaves a NaN column and an entry in
        the returned error map (keyed by layer position) instead of
        aborting the batch; skipped layers are NaN columns too. The arrays
        come back read-only so cached results can be handed out directly.
        """
        attributes = {"skipped": len(skip)} if caller == "discrepancies_resilient" else {}
        with obs.span(f"engine.{caller}", batch=len(images), **attributes):
            probabilities, representations = self.model.hidden_representations(
                images, batch_size=_SCORE_CHUNK
            )
            predictions = probabilities.argmax(axis=1)
            errors: dict[int, Exception] = {}
            columns = []
            for position, validator in enumerate(self.validators):
                if position in skip:
                    columns.append(np.full(len(images), np.nan))
                    continue
                name = validator.layer_name
                try:
                    # A numerically-broken layer (NaN/Inf representations)
                    # must surface as NaN discrepancies the caller can see,
                    # not as numpy RuntimeWarnings spamming serving logs.
                    with np.errstate(invalid="ignore", over="ignore"), obs.span(
                        "engine.layer_score", layer=name
                    ), obs.timed(_layer_seconds().labels(layer=name)):
                        columns.append(
                            validator.discrepancy_batched(
                                representations[validator.layer_index],
                                predictions,
                                chunk_size=_SCORE_CHUNK,
                            )
                        )
                except Exception as exc:  # noqa: BLE001 — isolation is the contract
                    obs.counter(
                        "engine_layer_failures_total",
                        help="Layer scorers that raised during scoring",
                        labels=("layer",),
                    ).labels(layer=name).inc()
                    errors[position] = exc
                    columns.append(np.full(len(images), np.nan))
            per_layer = np.stack(columns, axis=1)
        predictions.flags.writeable = False
        per_layer.flags.writeable = False
        return predictions, per_layer, errors

    def _score(
        self,
        images: np.ndarray,
        caller: str,
        skip: frozenset[int] | set[int] = frozenset(),
    ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
        """:meth:`_compute` behind the score cache.

        An empty batch short-circuits to ``(0,)``/``(0, L)`` results without
        touching the model — serving paths see ``n=0`` windows whenever
        every input of a batch was quarantined upstream. Batches with a
        non-empty ``skip`` bypass the cache (its key does not encode the
        skip set). Otherwise concurrent calls with identical batches are
        single-flighted: one thread computes (one cache miss), the rest
        adopt its result (cache hits); only clean results are memoised.
        """
        self._check_fitted()
        if len(images) == 0:
            predictions = np.empty(0, dtype=np.int64)
            per_layer = np.empty((0, len(self.validators)))
            predictions.flags.writeable = False
            per_layer.flags.writeable = False
            return predictions, per_layer, {}
        if skip:
            _cache_counter().labels(result="miss").inc()
            return self._compute(images, caller, skip)
        key = _hash_key(images, caller)
        computed = False

        def compute() -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
            nonlocal computed
            computed = True
            return self._compute(images, caller, skip)

        result = self.score_cache.get_or_compute(key, compute, cache_if=_is_clean)
        _cache_counter().labels(result="miss" if computed else "hit").inc()
        return result

    def discrepancies(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer discrepancies for a batch: ``(predictions, D)``.

        ``D`` has shape ``(len(images), len(validated layers))``. This is
        the batched, cached path; a layer scorer that raises propagates
        its exception to every caller, including threads that adopted a
        failed in-flight computation. Both arrays are read-only.
        """
        predictions, per_layer, errors = self._score(
            np.asarray(images), "discrepancies"
        )
        if errors:
            raise next(iter(errors.values()))
        return predictions, per_layer

    def discrepancies_resilient(
        self, images: np.ndarray, skip: frozenset[int] | set[int] = frozenset()
    ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
        """Per-layer-isolated scoring: ``(predictions, D, layer_errors)``.

        The fault-tolerant counterpart of :meth:`discrepancies` used by
        :class:`~repro.core.monitor.RuntimeMonitor`: a raising layer scorer
        yields a NaN column and an entry in ``layer_errors`` (keyed by
        layer *position* in the validated-layer list) instead of aborting
        the batch, and positions in ``skip`` (open-circuited layers) are
        not evaluated at all. With nothing skipped and nothing failing the
        result is bit-identical to :meth:`discrepancies` and shares its
        cache entries; results with skipped, failed or non-finite columns
        are never cached.
        """
        predictions, per_layer, errors = self._score(
            np.asarray(images), "discrepancies_resilient", skip
        )
        return predictions, per_layer, dict(errors)

    def reference_discrepancies(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer discrepancies via the paper's per-class loop.

        The paper-faithful implementation of Algorithm 2 and the ground
        truth the differential harness checks :meth:`discrepancies`
        against (at 1e-8): each batch is grouped by predicted class and
        scored one (layer, class) group at a time. Uncached.
        """
        self._check_fitted()
        images = np.asarray(images)
        if len(images) == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, len(self.validators)))
        probabilities, representations = self.model.hidden_representations(
            images, batch_size=_SCORE_CHUNK
        )
        predictions = probabilities.argmax(axis=1)
        columns = [
            validator.discrepancy(representations[validator.layer_index], predictions)
            for validator in self.validators
        ]
        return predictions, np.stack(columns, axis=1)

    def joint_discrepancy(self, images: np.ndarray) -> np.ndarray:
        """The joint discrepancy ``d`` (Eq. 3, or the configured combiner)."""
        _, per_layer = self.discrepancies(images)
        return self.combine(per_layer)

    def _contributions(self) -> np.ndarray:
        """Calibrated per-layer contributions (uniform when uncalibrated)."""
        n_layers = len(self.layer_indices)
        # Validators pickled before calibration recorded this have no field.
        recorded = getattr(self, "layer_contributions", None)
        if recorded is not None and len(recorded) == n_layers:
            recorded = np.asarray(recorded, dtype=np.float64)
            if np.all(np.isfinite(recorded)) and recorded.sum() > 0:
                return recorded
        return np.ones(n_layers)

    def combine(
        self, per_layer: np.ndarray, skipped: frozenset[int] | set[int] = frozenset()
    ) -> np.ndarray:
        """Join per-layer discrepancies into a single score per sample.

        ``skipped`` holds layer positions (indices into the validated-layer
        list) excluded from the combination, e.g. open-circuited or failed
        layer validators; their columns are ignored entirely, so NaN
        placeholders never leak into the score. For the ``"sum"`` combiner
        the surviving sum is rescaled by the calibrated contribution ratio
        ``total / active`` (see ``layer_contributions``), keeping it
        commensurable with ``epsilon`` — rescaling the sum up is
        algebraically identical to rescaling the threshold down.
        ``"mean"``/``"max"`` combine the surviving columns directly and
        ``"last"`` falls back to the rearmost surviving layer. With nothing
        skipped this is exactly Eq. 3 (or the configured combiner).
        """
        weights = self.config.weights
        if skipped:
            active = [i for i in range(per_layer.shape[1]) if i not in skipped]
            if not active:
                return np.full(len(per_layer), np.nan)
            per_layer = per_layer[:, active]
            if weights is not None:
                weights = np.asarray(weights)[active]
        if weights is not None:
            per_layer = per_layer * np.asarray(weights)[None, :]
        if self.config.combiner == "sum":
            if not skipped:
                return per_layer.sum(axis=1)
            contributions = self._contributions()
            active_total = contributions[active].sum()
            scale = (
                contributions.sum() / active_total
                if active_total > 0
                else len(contributions) / len(active)
            )
            return per_layer.sum(axis=1) * scale
        if self.config.combiner == "mean":
            return per_layer.mean(axis=1)
        if self.config.combiner == "max":
            return per_layer.max(axis=1)
        return per_layer[:, -1]  # "last": the rearmost (surviving) layer

    # -- deployment ------------------------------------------------------------

    def calibrate_threshold(
        self, clean_images: np.ndarray, corner_images: np.ndarray
    ) -> float:
        """Set ``epsilon`` to the midpoint of the two score centroids.

        The paper's recommendation (Section IV-D3): the centre between the
        centroid of legitimate-image discrepancies and the centroid of
        corner-case discrepancies trades off TPR against FPR. Both sets are
        scored through the cache, so a subsequent :meth:`flag` of the same
        images is free.

        Calibration also records ``layer_contributions`` — the mean
        absolute weighted per-layer discrepancy over both calibration sets
        — which :meth:`combine` uses to rescale the joint sum when a layer
        validator is skipped.
        """
        from repro.core.thresholds import centroid_threshold

        _, clean_per_layer = self.discrepancies(clean_images)
        _, corner_per_layer = self.discrepancies(corner_images)
        stacked = np.concatenate([clean_per_layer, corner_per_layer], axis=0)
        if self.config.weights is not None:
            stacked = stacked * np.asarray(self.config.weights)[None, :]
        self.layer_contributions = np.abs(stacked).mean(axis=0)
        clean = self.combine(clean_per_layer)
        corner = self.combine(corner_per_layer)
        self.epsilon = centroid_threshold(clean, corner)
        return self.epsilon

    def flag(self, images: np.ndarray) -> np.ndarray:
        """Boolean mask of images whose joint discrepancy exceeds epsilon.

        Flagging images that were just calibrated on is a cache hit, not a
        recompute.
        """
        return self.joint_discrepancy(images) > self.epsilon
