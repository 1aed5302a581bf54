"""Table VI — ROC-AUC of single validators vs the joint Deep Validation.

For each transformation, positives are its successful corner cases (SCCs)
and negatives a matched clean sample (Section IV-D1/2). The table reports
the AUC of every single (per-layer) validator, the best
transformation-specific single validator, and the joint validator of Eq. 3;
the "overall" column pools the SCCs of every transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.context import ExperimentContext, get_context
from repro.metrics.roc import roc_auc_score
from repro.utils.tables import format_table


@dataclass
class Table6Result:
    dataset_name: str
    layer_names: list[str]
    transformations: list[str]
    #: AUC per validated layer per transformation: shape (layers, transforms).
    single_auc: np.ndarray
    #: Overall AUC per validated layer (pooled SCCs).
    single_overall: np.ndarray
    #: Joint-validator AUC per transformation.
    joint_auc: np.ndarray
    joint_overall: float = 0.0
    scc_counts: dict[str, int] = field(default_factory=dict)

    @property
    def best_specific(self) -> np.ndarray:
        """Best transformation-specific single validator per column."""
        return self.single_auc.max(axis=0)

    @property
    def best_single_overall(self) -> float:
        return float(self.single_overall.max())

    def render(self) -> str:
        """Render single/best/joint validator rows as a text table."""
        headers = ["Validator"] + self.transformations + ["Overall"]
        rows: list[list[object]] = []
        for i, layer in enumerate(self.layer_names):
            rows.append(
                [f"single[{layer}]"]
                + [float(v) for v in self.single_auc[i]]
                + [float(self.single_overall[i])]
            )
        rows.append(
            ["best transformation-specific"]
            + [float(v) for v in self.best_specific]
            + [self.best_single_overall]
        )
        rows.append(
            ["joint validator"]
            + [float(v) for v in self.joint_auc]
            + [self.joint_overall]
        )
        return format_table(
            headers, rows, title=f"Table VI — ROC-AUC of Deep Validation on {self.dataset_name}"
        )


def _per_layer_and_joint(
    context: ExperimentContext, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    _, per_layer = context.validator.discrepancies(images)
    return per_layer, context.validator.combine(per_layer)


def run_table6(dataset_name: str, profile: str = "tiny", seed: int = 0) -> Table6Result:
    """Compute Table VI (per-layer and joint ROC-AUC) for one dataset."""
    context = get_context(dataset_name, profile, seed)
    transformations = context.suite.viable_transformations

    clean_layers, clean_joint = _per_layer_and_joint(context, context.clean_images)
    layer_count = clean_layers.shape[1]

    single_auc = np.zeros((layer_count, len(transformations)))
    joint_auc = np.zeros(len(transformations))
    scc_counts: dict[str, int] = {}
    pooled_layers, pooled_joint = [], []

    for column, name in enumerate(transformations):
        scc = context.suite.result(name).scc_images
        scc_counts[name] = len(scc)
        scc_layers, scc_joint = _per_layer_and_joint(context, scc)
        pooled_layers.append(scc_layers)
        pooled_joint.append(scc_joint)
        labels = np.concatenate([np.zeros(len(clean_joint)), np.ones(len(scc_joint))])
        for layer in range(layer_count):
            scores = np.concatenate([clean_layers[:, layer], scc_layers[:, layer]])
            single_auc[layer, column] = roc_auc_score(labels, scores)
        joint_auc[column] = roc_auc_score(
            labels, np.concatenate([clean_joint, scc_joint])
        )

    all_scc_layers = np.concatenate(pooled_layers, axis=0)
    all_scc_joint = np.concatenate(pooled_joint)
    labels = np.concatenate([np.zeros(len(clean_joint)), np.ones(len(all_scc_joint))])
    single_overall = np.array(
        [
            roc_auc_score(
                labels, np.concatenate([clean_layers[:, layer], all_scc_layers[:, layer]])
            )
            for layer in range(layer_count)
        ]
    )
    joint_overall = roc_auc_score(
        labels, np.concatenate([clean_joint, all_scc_joint])
    )
    return Table6Result(
        dataset_name=dataset_name,
        layer_names=context.validated_layer_names(),
        transformations=transformations,
        single_auc=single_auc,
        single_overall=single_overall,
        joint_auc=joint_auc,
        joint_overall=float(joint_overall),
        scc_counts=scc_counts,
    )
