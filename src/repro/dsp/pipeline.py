"""The full Section IV preprocessing pipeline.

Order of operations, exactly as the paper lists them:

1. vibration detection and segmentation (``n`` samples per axis),
2. MAD-based outlier processing (detect, then two-sided mean replace),
3. high-pass four-order Butterworth filtering at 20 Hz,
4. min-max normalisation and multi-axis concatenation to ``(6, n)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from typing import Sequence

from repro.config import PreprocessConfig
from repro.dsp.detection import (
    detect_onset,
    detect_onset_from_signal,
    detection_signals_batch,
    segment_after_onset,
)
from repro.dsp.filters import design_highpass, sosfilt
from repro.dsp.normalize import min_max_normalize
from repro.dsp.outliers import replace_outliers_batch
# No stage calls this any more; perfbench/tracing.py still patches the name.
from repro.dsp.outliers import replace_outliers  # noqa: F401
from repro.errors import InsufficientAxesError, OnsetNotFoundError, SignalError
from repro.obs import runtime as obs
from repro.types import NUM_AXES, RawRecording, SignalArray


def sustained_vibration(
    filtered: np.ndarray, min_segment_std: float
) -> tuple[np.ndarray, np.ndarray]:
    """The sustained-vibration quality gate on high-passed segments.

    After outlier replacement a segment that was 'detected' off sensor
    glitches collapses to noise; a genuine 'EMM' sustains hundreds of
    counts of high-passed energy.  An axis is *usable* when it is
    finite end to end and carries any signal at all, so a dead channel
    or a NaN burst disables that axis only; the gate holds when the
    largest usable-axis std reaches ``min_segment_std``.  Only
    :func:`post_onset_stages` calls it; the single-recording path and
    the streaming backend both run that stage code.

    Args:
        filtered: ``(..., 6, n)`` high-passed segments.

    Returns:
        ``(usable, sustained)``: the ``(..., 6)`` usable-axis mask and
        the ``(...)`` gate verdict.
    """
    finite = np.isfinite(filtered).all(axis=-1)
    axis_std = np.where(finite, np.nan_to_num(filtered.std(axis=-1)), 0.0)
    usable = finite & (axis_std > 1e-9)
    sustained = np.where(usable, axis_std, 0.0).max(axis=-1) >= min_segment_std
    return usable, sustained


@dataclasses.dataclass(frozen=True)
class SegmentStages:
    """Post-onset stages of a ``(K, 6, n)`` segment stack, row by row."""

    despiked: np.ndarray
    filtered: np.ndarray
    normalized: np.ndarray
    usable: np.ndarray
    sustained: np.ndarray


def post_onset_stages(
    segments: np.ndarray, config: PreprocessConfig, sos: np.ndarray
) -> SegmentStages:
    """Despike, high-pass, gate and normalise a ``(K, 6, n)`` stack.

    The one implementation of every stage after onset: the batch and
    single-recording pipelines and the training-set generator all call
    it.  Unusable axes are zeroed before normalisation, so a NaN burst
    never reaches the extractor; the gate verdicts are returned, not
    applied.
    """
    with obs.span("outlier"):
        despiked = replace_outliers_batch(segments, threshold=config.mad_threshold)
    with obs.span("filter"):
        filtered = sosfilt(sos, despiked)
    # Rejecting on the gate turns glitch-triggered requests into
    # refusals instead of authenticating near-silence.
    usable, sustained = sustained_vibration(filtered, config.min_segment_std)
    with obs.span("normalize"):
        normalized = min_max_normalize(
            np.where(usable[..., None], filtered, 0.0), axis=-1
        )
    return SegmentStages(despiked, filtered, normalized, usable, sustained)


def _gate_failures(
    stages: SegmentStages, min_usable_axes: int
) -> list[tuple[int, SignalError]]:
    """``(row, error)`` for every row the quality gates refuse.

    No sustained vibration takes precedence over too few usable axes.
    """
    counts = stages.usable.sum(axis=-1)
    refused = ~stages.sustained | (counts < min_usable_axes)
    failures: list[tuple[int, SignalError]] = []
    for row in np.flatnonzero(refused):
        if not stages.sustained[row]:
            error: SignalError = OnsetNotFoundError(
                "segment carries no sustained vibration after despiking"
            )
        else:
            error = InsufficientAxesError(
                f"only {int(counts[row])} of {NUM_AXES} axes usable; "
                f"policy requires {min_usable_axes}"
            )
        failures.append((int(row), error))
    return failures


@dataclasses.dataclass(frozen=True)
class PreprocessDebug:
    """Intermediate stages, for inspection and the Fig. 5/6 benches."""

    onset: int
    raw_segments: np.ndarray
    despiked: np.ndarray
    filtered: np.ndarray
    normalized: np.ndarray


class Preprocessor:
    """Turns a raw recording into the paper's ``(6, n)`` signal array.

    The high-pass sections are designed once at construction; processing
    is therefore cheap enough for the on-device budget the paper reports
    (under 10 ms per request).

    Args:
        config: stage parameters; defaults follow the paper.
    """

    def __init__(self, config: PreprocessConfig | None = None) -> None:
        self.config = config or PreprocessConfig()
        self._sos = design_highpass(
            self.config.highpass_order,
            self.config.highpass_cutoff_hz,
            self.config.sample_rate_hz,
        )

    def process(
        self, recording: RawRecording, min_usable_axes: int = 1
    ) -> SignalArray:
        """Full pipeline; raises on undetectable or too-short vibration.

        ``min_usable_axes`` is the degraded-mode gate of
        :meth:`process_batch_detailed`, applied with the same rule.

        Raises:
            repro.errors.OnsetNotFoundError: nothing to authenticate.
            repro.errors.SegmentTooShortError: vibration cut off early.
            repro.errors.InsufficientAxesError: too few usable axes.
        """
        return self.process_debug(recording, min_usable_axes).normalized

    def process_debug(
        self, recording: RawRecording, min_usable_axes: int = 1
    ) -> PreprocessDebug:
        """Like :meth:`process` but returns every intermediate stage.

        The post-onset stages are those of :meth:`process_batch_detailed`
        on a stack of one, so the result is that batch's row bit for bit
        and a failure raises the batch failure's exception.
        """
        cfg = self.config
        with obs.span("onset"):
            onset = detect_onset(recording, cfg, sos=self._sos)
            segments = segment_after_onset(recording, onset, cfg.segment_length)
        stages = post_onset_stages(segments[None], cfg, self._sos)
        refused = _gate_failures(stages, min_usable_axes)
        if refused:
            raise refused[0][1]
        return PreprocessDebug(
            onset=onset,
            raw_segments=segments,
            despiked=stages.despiked[0],
            filtered=stages.filtered[0],
            normalized=stages.normalized[0],
        )

    def process_batch(self, recordings: Sequence[RawRecording]) -> np.ndarray:
        """Process ``(B, n, 6)`` recordings into ``(B, 6, seg_len)``.

        Recordings whose onset cannot be found are dropped; the caller
        can compare input and output batch sizes to count rejections.
        Use :meth:`process_batch_detailed` (or the
        :class:`repro.core.engine.InferenceEngine` facade) to learn
        *which* recordings failed and why.
        """
        signals, _, _, _ = self.process_batch_detailed(recordings)
        return signals

    def process_batch_detailed(
        self,
        recordings: Sequence[RawRecording],
        min_usable_axes: int = 1,
    ) -> tuple[
        np.ndarray, np.ndarray, list[tuple[int, SignalError]], tuple[int, ...]
    ]:
        """Vectorised batch pipeline with per-item failure bookkeeping.

        Onset detection is decided per recording (each has its own
        event), but every dense stage — the detection high-pass, outlier
        replacement, segment filtering and normalisation — runs once
        over the stacked ``(B, 6, n)`` array.  Per item the output is
        numerically identical to :meth:`process`.

        An axis is *usable* when it is finite end-to-end after filtering
        and carries any signal at all; dead channels (sensor dropout)
        and NaN bursts disable single axes without invalidating the
        whole recording.  Unusable axes are zeroed before normalisation
        and the recording is reported as *degraded*; recordings with
        fewer than ``min_usable_axes`` usable axes fail with
        :class:`~repro.errors.InsufficientAxesError` (DESIGN.md §4g).

        Args:
            recordings: a ``(B, n, 6)`` array or a sequence of
                ``(n_i, 6)`` recordings (lengths may differ).
            min_usable_axes: minimum usable-axis count a recording needs
                to proceed.  The default of 1 reproduces the historical
                gate; the engine threads
                :attr:`repro.config.ResilienceConfig.min_usable_axes`
                through here.

        Returns:
            ``(signals, indices, failures, degraded)``: signals is the
            ``(K, 6, seg_len)`` stack of successes, indices the
            input-order position of each success, failures a list of
            ``(index, exception)`` pairs sorted by index, and degraded
            the sorted input indices of successes that lost at least one
            axis.
        """
        cfg = self.config
        items = [np.asarray(r, dtype=np.float64) for r in recordings]
        failures: list[tuple[int, SignalError]] = []
        segments: list[np.ndarray] = []
        indices: list[int] = []

        with obs.span("onset"):
            rectangular = (
                len(items) > 0
                and all(it.ndim == 2 and it.shape[1] == NUM_AXES for it in items)
                and len({it.shape[0] for it in items}) == 1
            )
            detections = (
                detection_signals_batch(np.stack(items), cfg, sos=self._sos)
                if rectangular
                else None
            )
            for idx, item in enumerate(items):
                try:
                    if detections is not None:
                        onset = detect_onset_from_signal(detections[idx], cfg)
                    else:
                        onset = detect_onset(item, cfg, sos=self._sos)
                    segments.append(
                        segment_after_onset(item, onset, cfg.segment_length)
                    )
                    indices.append(idx)
                except SignalError as exc:
                    failures.append((idx, exc))

        empty = np.empty((0, NUM_AXES, cfg.segment_length))
        if not segments:
            return empty, np.empty(0, dtype=np.int64), failures, ()

        stages = post_onset_stages(np.stack(segments), cfg, self._sos)
        keep = np.ones(len(indices), dtype=bool)
        for local, error in _gate_failures(stages, min_usable_axes):
            keep[local] = False
            failures.append((indices[local], error))
        failures.sort(key=lambda pair: pair[0])
        if not keep.any():
            return empty, np.empty(0, dtype=np.int64), failures, ()
        kept_idx = np.asarray(indices, dtype=np.int64)[keep]
        degraded = tuple(
            int(i) for i, row in zip(kept_idx, stages.usable[keep]) if not row.all()
        )
        return stages.normalized[keep], kept_idx, failures, degraded
