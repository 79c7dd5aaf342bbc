"""Direction-splitting front ends: signal array to extractor input.

Section V-B separates positive- and negative-direction vibration before
the two-branch CNN because the two directions carry different biometric
parameters (``c1`` vs ``c2``, Eq. 6).  This module implements three
realisations of that idea:

* :class:`GradientFrontEnd` (``order="temporal"``) -- the paper's exact
  construction: per-axis gradients, sign-split, linearly interpolated to
  ``n/2`` values per direction, temporal order preserved.
* :class:`GradientFrontEnd` (``order="sorted"``) -- the same sign split
  with each direction sorted by magnitude, i.e. a distributional
  reading; fully invariant to sampling phase.
* :class:`RectifiedSpectralFrontEnd` (default) -- direction separation
  by half-wave rectification of the (mean-removed) signal followed by a
  magnitude spectrum per direction and axis.

Why the default deviates from the paper (see DESIGN.md): at a 350 Hz
output data rate the vocal fundamental spans only 2-3 samples, so the
sampling grid scrambles the waveform phase between trials -- on our
synthetic substrate, strictly temporal gradients then carry mostly
nuisance phase.  Half-wave rectification still separates the two
direction-dependent damping regimes of the paper's model (arguably more
directly than gradient signs), and the magnitude spectrum is invariant
to the sampling phase.  ``benchmarks/test_ablations.py`` quantifies all
three front ends.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.gradients import split_directions_batch
from repro.errors import ConfigError, ShapeError
from repro.types import NUM_AXES, ensure_signal_array

FRONTEND_KINDS = ("spectral", "gradient", "gradient-sorted")


class FrontEnd:
    """Maps a ``(6, n)`` signal array to a ``(2, 6, W)`` extractor input."""

    def width(self, segment_length: int) -> int:
        raise NotImplementedError

    def transform(self, signal_array: np.ndarray) -> np.ndarray:
        """One ``(6, n)`` signal array: the batch of one, no second path."""
        return self.transform_batch(ensure_signal_array(signal_array)[None])[0]

    def transform_batch(self, signal_arrays: np.ndarray) -> np.ndarray:
        """``(B, 6, n)`` to ``(B, 2, 6, W)``."""
        raise NotImplementedError

    def _check_batch(self, signal_arrays: np.ndarray) -> np.ndarray:
        signal_arrays = np.asarray(signal_arrays, dtype=np.float64)
        if signal_arrays.ndim != 3:
            raise ShapeError("expected (B, 6, n)")
        return signal_arrays

    def _empty_batch(self, segment_length: int) -> np.ndarray:
        return np.empty((0, 2, NUM_AXES, self.width(segment_length or 60)))


class RectifiedSpectralFrontEnd(FrontEnd):
    """Half-wave direction split + per-direction magnitude spectra.

    Each axis is mean-removed; positive-direction motion is
    ``max(x, 0)`` and negative-direction ``max(-x, 0)`` (the two damping
    regimes of the one-DOF model); each direction row becomes
    ``|rfft|**power``.  ``power=0.5`` compresses the dominant F0 line so
    the resonance envelope -- the biometric -- is not drowned out.
    """

    def __init__(self, power: float = 0.5) -> None:
        if not 0.0 < power <= 1.0:
            raise ConfigError("power must lie in (0, 1]")
        self.power = power

    def width(self, segment_length: int) -> int:
        return segment_length // 2 + 1

    def transform_batch(self, signal_arrays: np.ndarray) -> np.ndarray:
        """One rectification + FFT over the whole stack."""
        signal_arrays = self._check_batch(signal_arrays)
        if signal_arrays.shape[0] == 0:
            return self._empty_batch(signal_arrays.shape[2])
        centered = signal_arrays - signal_arrays.mean(axis=2, keepdims=True)
        stacked = np.stack(
            [np.maximum(centered, 0.0), np.maximum(-centered, 0.0)], axis=1
        )
        spectra = np.abs(np.fft.rfft(stacked, axis=3))
        return spectra**self.power


class GradientFrontEnd(FrontEnd):
    """The paper's gradient construction (Section V-B, Eq. 8).

    Args:
        order: ``"temporal"`` keeps each direction's gradients in time
            order (the paper's reading); ``"sorted"`` sorts them by
            magnitude (a phase-invariant distributional reading).
    """

    def __init__(self, order: str = "temporal") -> None:
        if order not in ("temporal", "sorted"):
            raise ConfigError("order must be 'temporal' or 'sorted'")
        self.order = order

    def width(self, segment_length: int) -> int:
        return segment_length // 2

    def transform_batch(self, signal_arrays: np.ndarray) -> np.ndarray:
        """Vectorised sign-split: all ``B * 6`` axis rows in one pass."""
        signal_arrays = self._check_batch(signal_arrays)
        batch, axes, n = signal_arrays.shape
        if batch == 0:
            return self._empty_batch(n)
        width = self.width(n)
        grads = np.diff(signal_arrays, axis=2)
        split = split_directions_batch(
            grads.reshape(batch * axes, n - 1), width, order=self.order
        )
        return split.reshape(batch, axes, 2, width).transpose(0, 2, 1, 3)


def make_frontend(kind: str) -> FrontEnd:
    """Factory for the configured front-end kind."""
    if kind == "spectral":
        return RectifiedSpectralFrontEnd()
    if kind == "gradient":
        return GradientFrontEnd(order="temporal")
    if kind == "gradient-sorted":
        return GradientFrontEnd(order="sorted")
    raise ConfigError(f"unknown frontend kind {kind!r}; choose from {FRONTEND_KINDS}")
