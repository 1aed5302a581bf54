"""First-class runners for the beyond-paper extension studies.

Each function mirrors one extension benchmark but lives in the library so
downstream users can run the studies on their own models and datasets.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import SelectionStep, greedy_layer_selection
from repro.core.validator import DeepValidator, ValidatorConfig
from repro.core.weighting import (
    fit_auc_greedy_weights,
    fit_logistic_weights,
    weighted_auc,
)
from repro.experiments.context import ExperimentContext
from repro.metrics.roc import roc_auc_score
from repro.nn.augment import Augmenter, augmented_retraining
from repro.utils.tables import format_table


# -- weighted joint ---------------------------------------------------------------


@dataclass
class WeightingStudy:
    """Out-of-sample comparison of joint-combination weightings."""

    uniform_auc: float
    logistic_auc: float
    greedy_auc: float
    logistic_weights: np.ndarray
    greedy_weights: np.ndarray

    def render(self) -> str:
        """Render the weighting comparison as a text table."""
        return format_table(
            ["Joint combination", "Held-out overall ROC-AUC"],
            [
                ["uniform sum (paper Eq. 3)", self.uniform_auc],
                ["logistic weights", self.logistic_auc],
                ["greedy-AUC weights", self.greedy_auc],
            ],
            title="Learned layer weighting",
        )


def run_weighting_study(context: ExperimentContext) -> WeightingStudy:
    """Fit weights on half the evaluation material, score on the rest."""
    scc, _ = context.suite.all_scc_images()
    _, clean = context.validator.discrepancies(context.clean_images)
    _, corner = context.validator.discrepancies(scc)
    half_c, half_k = len(clean) // 2, len(corner) // 2
    calib = (clean[:half_c], corner[:half_k])
    evalu = (clean[half_c:], corner[half_k:])

    layers = clean.shape[1]
    logistic = fit_logistic_weights(*calib)
    greedy = fit_auc_greedy_weights(*calib)
    return WeightingStudy(
        uniform_auc=weighted_auc(*evalu, np.ones(layers)),
        logistic_auc=weighted_auc(*evalu, logistic),
        greedy_auc=weighted_auc(*evalu, greedy),
        logistic_weights=logistic,
        greedy_weights=greedy,
    )


# -- efficiency trade-off ------------------------------------------------------------


@dataclass
class TradeoffStudy:
    """The dependability/efficiency curve from greedy validator selection."""

    layer_names: list[str]
    curve: list[SelectionStep]

    def render(self) -> str:
        """Render the trade-off curve as a text table."""
        rows = [
            [len(step.layers),
             ", ".join(self.layer_names[i] for i in step.layers),
             step.auc]
            for step in self.curve
        ]
        return format_table(
            ["#Validators", "Layers", "Overall ROC-AUC"],
            rows,
            title="Dependability vs efficiency trade-off",
        )


def run_tradeoff_study(context: ExperimentContext) -> TradeoffStudy:
    """Greedy validator-selection curve for one context."""
    scc, _ = context.suite.all_scc_images()
    _, clean = context.validator.discrepancies(context.clean_images)
    _, corner = context.validator.discrepancies(scc)
    return TradeoffStudy(
        layer_names=context.validated_layer_names(),
        curve=greedy_layer_selection(clean, corner),
    )


# -- augmentation countermeasure -------------------------------------------------------


@dataclass
class AugmentationStudy:
    """Effect of augmented retraining per corner-case family."""

    success_before: dict[str, float]
    success_after: dict[str, float]
    residual_auc: float
    clean_accuracy_after: float
    rows: list[list] = field(default_factory=list)

    def render(self) -> str:
        """Render the before/after success table plus summary lines."""
        rows = [
            [name, self.success_before[name], self.success_after[name]]
            for name in sorted(self.success_before)
        ]
        table = format_table(
            ["Transformation", "Success before", "Success after"],
            rows,
            title="Augmented retraining (the paper's countermeasure)",
        )
        return (
            f"{table}\n"
            f"clean accuracy after retraining: {self.clean_accuracy_after:.4f}\n"
            f"Deep Validation AUC on residual SCCs: {self.residual_auc:.4f}"
        )


def run_augmentation_study(
    context: ExperimentContext,
    epochs: int = 4,
    seed: int = 5,
) -> AugmentationStudy:
    """Harden a copy of the classifier with augmentation and re-measure."""
    model = copy.deepcopy(context.model)
    dataset = context.dataset
    suite = context.suite

    def success_rates(m) -> dict[str, float]:
        return {
            name: float(
                (m.predict(suite.result(name).images) != suite.result(name).seed_labels).mean()
            )
            for name in suite.viable_transformations
        }

    before = success_rates(model)
    augmented_retraining(
        model, dataset.train_images, dataset.train_labels,
        epochs=epochs, augmenter=Augmenter(rng=seed), rng=seed,
    )
    after = success_rates(model)
    clean_accuracy = float(
        (model.predict(dataset.test_images) == dataset.test_labels).mean()
    )

    validator = DeepValidator(model, ValidatorConfig(nu=0.1, max_per_class=100))
    validator.fit(dataset.train_images, dataset.train_labels)
    clean_scores = validator.joint_discrepancy(context.clean_images)
    residual = []
    for name in suite.viable_transformations:
        result = suite.result(name)
        still_fooled = model.predict(result.images) != result.seed_labels
        if still_fooled.any():
            residual.append(validator.joint_discrepancy(result.images[still_fooled]))
    residual_scores = np.concatenate(residual) if residual else np.empty(0)
    if len(residual_scores):
        labels = np.concatenate(
            [np.zeros(len(clean_scores)), np.ones(len(residual_scores))]
        )
        residual_auc = float(
            roc_auc_score(labels, np.concatenate([clean_scores, residual_scores]))
        )
    else:
        residual_auc = float("nan")
    return AugmentationStudy(
        success_before=before,
        success_after=after,
        residual_auc=residual_auc,
        clean_accuracy_after=clean_accuracy,
    )
