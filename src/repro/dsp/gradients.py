"""Gradient computation, sign split and interpolation (Section V-B).

The paper separates positive- and negative-direction vibration by
computing per-axis gradients (Eq. 8), splitting them by sign, and
linearly interpolating each direction to ``n/2`` values so the CNN gets
dimension-consistent inputs ``(2, 6, n/2)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.types import ensure_signal_array


def signal_gradients(signal_array: np.ndarray) -> np.ndarray:
    """Per-axis gradients with unit (normalised) time step, ``(6, n-1)``.

    Eq. 8 with ``|t_{i+1} - t_i|`` normalised to one: uniform sampling
    makes the interval constant, so it only scales the gradients.
    """
    signal_array = ensure_signal_array(signal_array)
    return np.diff(signal_array, axis=1)


def resample_rows_to_length(
    rows: np.ndarray, counts: np.ndarray, length: int
) -> np.ndarray:
    """Linear interpolation of each row of a padded ``(R, m)`` stack.

    Row ``r`` is interpolated from its first ``counts[r]`` entries onto
    ``length`` points; the padding beyond the count is ignored.  Edge
    cases follow the paper's intent of dimension consistency: an empty
    row yields zeros (no motion in that direction) and a single value
    is repeated.
    """
    if length <= 0:
        raise ShapeError("length must be positive")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError("resample_rows_to_length() expects (R, m)")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (rows.shape[0],):
        raise ShapeError("counts must be (R,)")
    out = np.zeros((rows.shape[0], length))
    single = counts == 1
    if single.any():
        out[single] = rows[single, :1]
    multi = np.flatnonzero(counts > 1)
    if multi.size:
        values = rows[multi]
        k = counts[multi]
        grid = np.linspace(0.0, 1.0, length)
        positions = (k - 1)[:, None].astype(np.float64) * grid[None, :]
        left_idx = np.minimum(positions.astype(np.int64), (k - 2)[:, None])
        frac = positions - left_idx
        left = np.take_along_axis(values, left_idx, axis=1)
        right = np.take_along_axis(values, left_idx + 1, axis=1)
        interp = left + (right - left) * frac
        # The right endpoint must hit the last value exactly, as
        # np.interp does; (a + (b - a)) can round away from b.
        last = np.take_along_axis(values, (k - 1)[:, None], axis=1)
        at_end = positions >= (k - 1)[:, None].astype(np.float64)
        out[multi] = np.where(at_end, last, interp)
    return out


def split_directions_batch(
    gradients: np.ndarray, width: int, order: str = "temporal"
) -> np.ndarray:
    """Sign-split each row of gradients into two fixed-width sequences.

    Gradients >= 0 belong to the positive direction, the rest to the
    negative direction; each side is resampled to ``width`` values.

    Args:
        gradients: one gradient sequence per row.
        width: output values per direction.
        order: ``"temporal"`` keeps each direction in time order,
            ``"sorted"`` sorts by magnitude (positive descending,
            negative ascending), mirroring the two front-end readings.

    Returns:
        ``(R, 2, width)`` -- per row: positive then negative direction.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    if gradients.ndim != 2:
        raise ShapeError("split_directions_batch() expects (R, m)")
    if order not in ("temporal", "sorted"):
        raise ShapeError("order must be 'temporal' or 'sorted'")
    positive_mask = gradients >= 0.0
    out = np.empty((gradients.shape[0], 2, width))
    for direction, mask in enumerate((positive_mask, ~positive_mask)):
        counts = mask.sum(axis=1)
        if order == "temporal":
            # Stable argsort on the inverted mask compacts each row's
            # selected values to the front, preserving time order.
            front = np.argsort(~mask, axis=1, kind="stable")
            compact = np.take_along_axis(gradients, front, axis=1)
        elif direction == 0:
            # Positive direction, sorted descending: -inf padding sinks
            # to the end after the reversal.
            padded = np.where(mask, gradients, -np.inf)
            compact = np.sort(padded, axis=1)[:, ::-1]
        else:
            # Negative direction, sorted ascending: +inf padding sinks.
            padded = np.where(mask, gradients, np.inf)
            compact = np.sort(padded, axis=1)
        out[:, direction] = resample_rows_to_length(compact, counts, width)
    return out
