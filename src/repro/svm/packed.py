"""Packed multi-SVM scoring: a layer's per-class SVMs, routed by class.

The paper's detector keeps one one-class SVM per (layer, predicted class)
and scores a sample against the SVM of its predicted class only
(Algorithm 2, Eq. 2). Scoring a batch through the naive path costs a
scaler transform, a kernel evaluation and a Python round trip per class
group. This module stacks a layer's per-class SVMs into one coefficient
matrix whose class segments are contiguous, with per-class
standardisation folded into the rows. A batch is then grouped by predicted
class, and each group is scored by one GEMM against its own class's
segment, so no kernel value is computed against another class's support
vectors.

The algebraic trick that folds *per-class* standardisation into the rows:
each class scores queries as ``k((x - m_c) / s_c, v)`` against support
vectors ``v`` living in that class's scaled space. Mapping each support
vector back to raw input space, ``u = m_c + s_c * v``, turns

* the RBF's squared distance into a diagonally-weighted distance
  ``sum_d (x_d - u_d)^2 / s_{c,d}^2``, which expands into one matrix
  product against precomputed rows, a per-row offset, and a per-sample
  quadratic ``(x * x) . (gamma_c / s_c^2)``; and
* the linear/polynomial inner product into ``x . (v / s_c) - m_c . (v / s_c)``,
  a single matrix product against precomputed rows plus a per-row offset.

Both forms are exact — packed scores match the per-sample reference path
to floating-point reassociation error (the differential test harness pins
this at 1e-8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.svm.kernels import Kernel, LinearKernel, PolynomialKernel, RBFKernel
from repro.svm.oneclass import OneClassSVM
from repro.svm.scaler import StandardScaler


def _gemm_seconds():
    return obs.histogram(
        "svm_packed_gemm_seconds",
        help="Class-routed kernel evaluation (per-class GEMMs) wall time per chunk",
    )


@dataclass
class PackedClassSVMs:
    """All per-class one-class SVMs of one layer, stacked for batch scoring.

    ``M`` is the total support-vector count across classes and ``C`` the
    number of classes. Segment ``c`` of the stacked rows (delimited by
    ``seg_starts``) holds class ``c``'s ``M_c`` support vectors; a sample
    predicted ``c`` is scored against that segment only.
    """

    classes: np.ndarray        # (C,) sorted class ids
    kernel_name: str           # "rbf" | "linear" | "poly"
    seg_starts: np.ndarray     # (C,) first stacked row of each class segment
    coef_rows: np.ndarray      # (M, d+1) kernel rows [W | b], see pack_class_svms
    dual: np.ndarray           # (M,) dual coefficients alpha
    rho: np.ndarray            # (C,) offsets
    norm_w: np.ndarray         # (C,) hyperplane norms
    gamma: np.ndarray          # (C,) per-class kernel gamma (1.0 for linear)
    degree: int                # poly degree (1 elsewhere)
    coef0: float               # poly bias (0.0 elsewhere)
    # RBF only: gamma-scaled diagonal metric gamma_c / s_c^2, shape (C, d).
    metric: np.ndarray | None

    @property
    def n_support(self) -> int:
        return len(self.dual)

    def class_positions(self, predicted: np.ndarray) -> np.ndarray:
        """Map predicted class ids to segment positions, validating coverage."""
        predicted = np.asarray(predicted)
        positions = np.searchsorted(self.classes, predicted)
        positions = np.minimum(positions, len(self.classes) - 1)
        bad = self.classes[positions] != predicted
        if bad.any():
            missing = int(np.asarray(predicted)[bad][0])
            raise KeyError(f"no reference SVM for predicted class {missing}")
        return positions

    def _segment(self, position: int) -> slice:
        """Stacked rows of the class at ``position``."""
        stop = (
            self.seg_starts[position + 1]
            if position + 1 < len(self.seg_starts)
            else self.n_support
        )
        return slice(int(self.seg_starts[position]), int(stop))

    # -- scoring ---------------------------------------------------------------

    def _kernel_block(self, position: int, features: np.ndarray) -> np.ndarray:
        """Kernel values of ``features`` against one class's support vectors.

        One GEMM ``x @ W_c.T + b_c`` against the class's contiguous segment
        of the stacked rows, shape ``(n, M_c)``, then the kernel map
        applied in place so the block is the only temporary of its size.
        """
        rows = self.coef_rows[self._segment(position)]
        block = features @ rows[:, :-1].T
        block += rows[:, -1]
        if self.kernel_name == "rbf":
            # block now holds 2 gamma x.(w*u) - gamma u.(w*u); subtracting
            # gamma x.(w*x) completes -gamma * sq_dist.
            block -= ((features * features) @ self.metric[position])[:, None]
            np.minimum(block, 0.0, out=block)               # sq_dist >= 0 clamp
            np.exp(block, out=block)
        elif self.kernel_name == "poly":
            # block holds gamma_c * (x_hat . v); finish (g i + coef0)^degree.
            block += self.coef0
            block **= self.degree
        return block

    def _chunk_discrepancy(
        self, features: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Discrepancies of one chunk, each row scored against its own class."""
        out = np.empty(len(features))
        order = np.argsort(positions, kind="stable")
        grouped = positions[order]
        bounds = np.flatnonzero(np.diff(grouped)) + 1
        for rows in np.split(order, bounds):
            position = int(positions[rows[0]])
            # Gather the group before casting: one float64 pass, not two.
            group = features[rows].astype(np.float64, copy=False)
            block = self._kernel_block(position, group)
            decision = block @ self.dual[self._segment(position)]
            decision -= self.rho[position]
            out[rows] = decision / -self.norm_w[position]
        return out

    def discrepancy(
        self,
        features: np.ndarray,
        predicted: np.ndarray,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Per-sample discrepancy ``-t^{y'}`` against the predicted class.

        Each chunk of at most ``chunk_size`` rows (``None``: the whole
        batch) is grouped by predicted class, and each group is scored
        only against its class's support vectors, so the transient kernel
        block is at most ``chunk x M_c`` floats.
        """
        features = np.asarray(features)
        predicted = np.asarray(predicted)
        if len(features) != len(predicted):
            raise ValueError("features and predicted must have equal length")
        if len(features) == 0:
            # Fully-quarantined serving windows score zero samples; skip
            # the GEMM machinery rather than stressing its edge cases.
            return np.empty(0)
        positions = self.class_positions(predicted)
        out = np.empty(len(features))
        step = len(features) if chunk_size is None else max(1, chunk_size)
        for start in range(0, len(features), step):
            stop = start + step
            with obs.timed(_gemm_seconds()):
                out[start:stop] = self._chunk_discrepancy(
                    features[start:stop], positions[start:stop]
                )
        return out


def _kernel_params(kernel: Kernel) -> tuple[str, float, int, float]:
    """(name, gamma, degree, coef0) of a packable kernel, else ValueError."""
    if isinstance(kernel, RBFKernel):
        return "rbf", kernel.gamma, 1, 0.0
    if isinstance(kernel, LinearKernel):
        return "linear", 1.0, 1, 0.0
    if isinstance(kernel, PolynomialKernel):
        return "poly", kernel.gamma, kernel.degree, kernel.coef0
    raise ValueError(f"cannot pack kernel of type {type(kernel).__name__}")


def pack_class_svms(
    svms: dict[int, OneClassSVM],
    scalers: dict[int, StandardScaler] | None = None,
) -> PackedClassSVMs:
    """Stack fitted per-class SVMs (and their scalers) into one scorer.

    Raises ``ValueError`` when the SVMs cannot be packed: no classes, an
    unfitted SVM, a custom kernel type, or polynomial kernels whose
    degree/coef0 disagree across classes (per-class ``gamma`` is fine).
    """
    if not svms:
        raise ValueError("cannot pack an empty SVM collection")
    classes = np.array(sorted(svms), dtype=np.int64)
    scalers = scalers or {}

    names, gammas, degrees, coef0s = [], [], [], []
    for klass in classes:
        svm = svms[int(klass)]
        if svm.support_vectors_ is None or svm.kernel_ is None:
            raise ValueError(f"SVM for class {int(klass)} is not fitted")
        name, gamma, degree, coef0 = _kernel_params(svm.kernel_)
        names.append(name)
        gammas.append(gamma)
        degrees.append(degree)
        coef0s.append(coef0)
    if len(set(names)) != 1:
        raise ValueError(f"mixed kernel types cannot be packed: {sorted(set(names))}")
    kernel_name = names[0]
    if kernel_name == "poly" and (len(set(degrees)) != 1 or len(set(coef0s)) != 1):
        raise ValueError("poly kernels must share degree and coef0 to be packed")

    dim = svms[int(classes[0])].support_vectors_.shape[1]
    coef_rows, duals = [], []
    seg_starts = np.empty(len(classes), dtype=np.intp)
    rho = np.empty(len(classes))
    norm_w = np.empty(len(classes))
    metric = np.empty((len(classes), dim)) if kernel_name == "rbf" else None

    offset = 0
    for position, klass in enumerate(classes):
        svm = svms[int(klass)]
        vectors = svm.support_vectors_
        if len(vectors) == 0:
            # Degenerate SVM: leave the layer to the reference path.
            raise ValueError(f"SVM for class {int(klass)} has no support vectors")
        scaler = scalers.get(int(klass))
        if scaler is not None and scaler.mean_ is not None:
            mean, scale = scaler.mean_, scaler.scale_
        else:
            mean = np.zeros(dim)
            scale = np.ones(dim)
        gamma = gammas[position]
        rows = np.empty((len(vectors), dim + 1))
        if kernel_name == "rbf":
            # -gamma * sq_dist decomposes into GEMM-foldable pieces:
            #   2 gamma x.(w*u)  -  gamma u.(w*u)  -  gamma x.(w*x)
            # with u = m + s*v (raw-space SV) and w = 1/s^2. The first two
            # terms become the rows [W | b] here; the last is the
            # per-class quadratic subtracted at scoring time (``metric``).
            weights = gamma / scale**2
            raw = mean[None, :] + scale[None, :] * vectors
            rows[:, :-1] = 2.0 * weights[None, :] * raw
            rows[:, -1] = -np.einsum("md,d,md->m", raw, weights, raw)
            metric[position] = weights
        else:
            # gamma_c * (x_hat . v) = x . (g v/s) - g m.(v/s): a row [W | b].
            scaled = vectors / scale[None, :]
            rows[:, :-1] = gamma * scaled
            rows[:, -1] = -gamma * (scaled @ mean)
        coef_rows.append(rows)
        duals.append(svm.dual_coef_)
        seg_starts[position] = offset
        rho[position] = svm.rho_
        norm_w[position] = svm.norm_w_
        offset += len(vectors)

    return PackedClassSVMs(
        classes=classes,
        kernel_name=kernel_name,
        seg_starts=seg_starts,
        coef_rows=np.concatenate(coef_rows, axis=0),
        dual=np.concatenate(duals),
        rho=rho,
        norm_w=norm_w,
        gamma=np.asarray(gammas, dtype=np.float64),
        degree=degrees[0],
        coef0=coef0s[0],
        metric=metric,
    )
