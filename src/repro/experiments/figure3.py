"""Figure 3 — discrepancy distributions of legitimate images vs SCCs.

The paper plots 200-bin histograms of the normalised joint discrepancy for
each dataset; legitimate images concentrate at negative values and
successful corner cases at positive values. This runner produces the binned
histogram data plus a text summary (centroids, overlap, suggested epsilon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.thresholds import centroid_threshold
from repro.experiments.context import get_context


@dataclass
class Figure3Result:
    dataset_name: str
    bin_edges: np.ndarray
    clean_histogram: np.ndarray
    scc_histogram: np.ndarray
    clean_scores: np.ndarray
    scc_scores: np.ndarray
    suggested_epsilon: float

    @property
    def clean_centroid(self) -> float:
        return float(self.clean_scores.mean())

    @property
    def scc_centroid(self) -> float:
        return float(self.scc_scores.mean())

    @property
    def overlap(self) -> float:
        """Histogram overlap coefficient (0 = perfectly separated)."""
        clean = self.clean_histogram / max(self.clean_histogram.sum(), 1)
        scc = self.scc_histogram / max(self.scc_histogram.sum(), 1)
        return float(np.minimum(clean, scc).sum())

    def _sparkline(self, histogram: np.ndarray, width: int = 60) -> str:
        chunks = np.array_split(histogram, width)
        values = np.array([c.sum() for c in chunks], dtype=float)
        peak = values.max() if values.max() > 0 else 1.0
        glyphs = " ▁▂▃▄▅▆▇█"
        return "".join(
            glyphs[int(round(v / peak * (len(glyphs) - 1)))] for v in values
        )

    def render(self) -> str:
        """Render centroids, sparkline histograms, and the suggested epsilon."""
        lines = [
            f"Figure 3 — discrepancy distributions on {self.dataset_name} "
            f"(normalised joint discrepancy, 200 bins)",
            f"legitimate  centroid={self.clean_centroid:+.4f}  "
            f"|{self._sparkline(self.clean_histogram)}|",
            f"SCCs        centroid={self.scc_centroid:+.4f}  "
            f"|{self._sparkline(self.scc_histogram)}|",
            f"overlap coefficient={self.overlap:.4f}  "
            f"suggested epsilon (centroid midpoint)={self.suggested_epsilon:+.4f}",
        ]
        return "\n".join(lines)


def run_figure3(dataset_name: str, profile: str = "tiny", seed: int = 0, bins: int = 200) -> Figure3Result:
    """Compute the Figure 3 discrepancy histograms for one dataset."""
    context = get_context(dataset_name, profile, seed)
    scc, _ = context.suite.all_scc_images()
    clean_scores = context.validator.joint_discrepancy(context.clean_images)
    scc_scores = context.validator.joint_discrepancy(scc)

    # Normalise jointly to [-1, 1] as in the paper's plots.
    scale = max(np.abs(clean_scores).max(), np.abs(scc_scores).max())
    clean_norm = clean_scores / scale
    scc_norm = scc_scores / scale

    edges = np.linspace(-1.0, 1.0, bins + 1)
    clean_hist, _ = np.histogram(clean_norm, bins=edges)
    scc_hist, _ = np.histogram(scc_norm, bins=edges)
    return Figure3Result(
        dataset_name=dataset_name,
        bin_edges=edges,
        clean_histogram=clean_hist,
        scc_histogram=scc_hist,
        clean_scores=clean_norm,
        scc_scores=scc_norm,
        suggested_epsilon=centroid_threshold(clean_norm, scc_norm),
    )
