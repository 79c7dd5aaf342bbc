"""MAD-based outlier detection and two-sided mean replacement.

Section IV: glitches from hardware imperfection and body motion produce
extremely large or small values.  The paper detects them with the
median-absolute-deviation (MAD) rule and replaces each outlier with the
mean of its two previous and two subsequent *normal* values.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError

# Scale factor making MAD a consistent estimator of sigma for Gaussians.
_MAD_TO_SIGMA = 0.6744897501960817


def mad(values: np.ndarray) -> float:
    """Median absolute deviation from the median."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError("mad() expects a 1-D array")
    if values.size == 0:
        raise ShapeError("mad() of an empty array")
    return float(np.median(np.abs(values - np.median(values))))


def mad_outlier_mask(values: np.ndarray, threshold: float = 3.5) -> np.ndarray:
    """Boolean mask of outliers by the modified z-score rule.

    A value is an outlier when ``0.6745 * |x - median| / MAD`` exceeds
    ``threshold`` (3.5 is the classic Iglewicz-Hoaglin recommendation).
    A zero MAD (more than half the values identical) marks any value
    different from the median as an outlier only if some deviation
    exists; with all values equal, nothing is flagged.  The 1-D case of
    :func:`mad_outlier_mask_batch`.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError("mad_outlier_mask() expects a 1-D array")
    return mad_outlier_mask_batch(values, threshold)


def mad_outlier_mask_batch(
    values: np.ndarray, threshold: float = 3.5
) -> np.ndarray:
    """Row-wise outlier masks over the last axis of an ``(..., n)`` stack.

    The median, MAD and modified z-score are computed along the last
    axis for every row at once, so a whole ``(B, 6, n)`` segment batch
    needs two medians instead of ``6 B``.
    """
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1:
        raise ShapeError("mad_outlier_mask_batch() expects at least 1-D")
    if values.shape[-1] == 0:
        return np.zeros(values.shape, dtype=bool)
    median = np.median(values, axis=-1, keepdims=True)
    deviation = np.abs(values - median)
    spread = np.median(deviation, axis=-1, keepdims=True)
    zero_spread = spread == 0.0
    # A subnormal MAD can overflow the ratio to inf; inf > threshold is
    # the correct verdict for such a deviation, so the overflow is benign.
    with np.errstate(over="ignore"):
        modified_z = _MAD_TO_SIGMA * deviation / np.where(zero_spread, 1.0, spread)
    return np.where(zero_spread, deviation > 0.0, modified_z > threshold)


def replace_outliers(
    values: np.ndarray,
    mask: np.ndarray | None = None,
    threshold: float = 3.5,
    neighbors: int = 2,
) -> np.ndarray:
    """Replace outliers with the mean of nearby normal values.

    Implements the paper's two-step mean replacement: each outlier takes
    the mean of its ``neighbors`` previous and ``neighbors`` subsequent
    normal values.  Consecutive outliers and edges are handled by
    searching outward for the nearest normal values on each side; if one
    side has none, the other side's values are used alone.  If *every*
    value is an outlier (degenerate input), the array is returned
    unchanged -- there is no normal level to restore.

    Args:
        values: 1-D signal segment.
        mask: outlier mask; computed with :func:`mad_outlier_mask` if None.
        threshold: MAD threshold used when ``mask`` is None.
        neighbors: how many normal values per side enter the mean.

    Returns:
        A new array with outliers replaced.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError("replace_outliers() expects a 1-D array")
    if neighbors <= 0:
        raise ConfigError("neighbors must be positive")
    if mask is None:
        mask = mad_outlier_mask(values, threshold)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ShapeError("mask shape must match values shape")
    if not mask.any():
        return values.copy()
    if mask.all():
        return values.copy()

    normal_idx = np.flatnonzero(~mask)
    out = values.copy()
    for idx in np.flatnonzero(mask):
        pos = np.searchsorted(normal_idx, idx)
        before = normal_idx[max(0, pos - neighbors) : pos]
        after = normal_idx[pos : pos + neighbors]
        pool = np.concatenate([before, after])
        out[idx] = float(values[pool].mean())
    return out


def replace_outliers_batch(
    values: np.ndarray,
    threshold: float = 3.5,
    neighbors: int = 2,
) -> np.ndarray:
    """Batched :func:`replace_outliers` over the last axis.

    The MAD masks for every row come from one vectorised pass; the
    replacement scan then runs only on the (typically few) rows that
    actually contain outliers, each producing exactly what the scalar
    helper would.  Rows that are entirely outliers are left unchanged,
    like the scalar path.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1:
        raise ShapeError("replace_outliers_batch() expects at least 1-D")
    if neighbors <= 0:
        raise ConfigError("neighbors must be positive")
    masks = mad_outlier_mask_batch(values, threshold)
    out = values.copy()
    if values.ndim == 1:
        return replace_outliers(values, mask=masks, neighbors=neighbors)
    n = values.shape[-1]
    flat_values = out.reshape(-1, n)
    flat_masks = masks.reshape(-1, n)
    any_outlier = flat_masks.any(axis=1)
    all_outlier = flat_masks.all(axis=1)
    for row in np.flatnonzero(any_outlier & ~all_outlier):
        flat_values[row] = replace_outliers(
            flat_values[row], mask=flat_masks[row], neighbors=neighbors
        )
    return out
