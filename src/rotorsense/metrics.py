"""Evaluation metrics: relative speed error and localization error."""

from __future__ import annotations

import numpy as np

from .errors import DataError

ALIGN_TOLERANCE_US = 1e6


def rmae(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Relative mean absolute error in percent:
    (1/N) * sum(|r_i - r_gt,i| / r_gt,i) * 100."""
    est = np.asarray(estimates, dtype=np.float64)
    gt = np.asarray(truth, dtype=np.float64)
    if est.shape != gt.shape or est.ndim != 1 or est.size == 0:
        raise DataError("rmae needs two equal-length, nonempty 1-D arrays")
    if np.any(gt <= 0):
        raise DataError("ground-truth values must be positive")
    return float(np.mean(np.abs(est - gt) / gt) * 100.0)


def localization_error(fused: np.ndarray, truth: np.ndarray) -> tuple[float, list[tuple[float, float]]]:
    """Mean 3-D error over nearest-timestamp-aligned pairs, plus a CDF
    table at 10% quantile steps.

    fused and truth are (N, 4+) arrays with columns (t_us, x, y, z, ...).
    Raises DataError when no fused sample aligns with the truth within
    ALIGN_TOLERANCE_US.
    """
    fused = np.asarray(fused, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if fused.ndim != 2 or truth.ndim != 2 or fused.shape[1] < 4 or truth.shape[1] < 4:
        raise DataError("series must be (N, 4+) arrays of (t, x, y, z, ...)")
    if fused.size == 0 or truth.size == 0:
        raise DataError("cannot align empty series")
    t_truth = truth[:, 0]
    order = np.argsort(t_truth, kind="stable")
    t_truth = t_truth[order]
    xyz_truth = truth[order, 1:4]
    idx = np.searchsorted(t_truth, fused[:, 0])
    idx_lo = np.clip(idx - 1, 0, len(t_truth) - 1)
    idx_hi = np.clip(idx, 0, len(t_truth) - 1)
    pick = np.where(
        np.abs(t_truth[idx_hi] - fused[:, 0]) < np.abs(t_truth[idx_lo] - fused[:, 0]), idx_hi, idx_lo
    )
    aligned = np.abs(t_truth[pick] - fused[:, 0]) <= ALIGN_TOLERANCE_US
    if not aligned.any():
        raise DataError("no fused samples align with the truth within the tolerance")
    errors = np.linalg.norm(fused[aligned, 1:4] - xyz_truth[pick[aligned]], axis=1)
    mean_error = float(errors.mean())
    quantiles = np.arange(0.1, 1.0001, 0.1)
    cdf = [(float(q), float(np.quantile(errors, q))) for q in quantiles]
    return mean_error, cdf
