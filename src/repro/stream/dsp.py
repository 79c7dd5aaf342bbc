"""Stateful streaming forms of the Section IV batch DSP primitives.

Everything in this module is held to one standard: **bitwise equality
with the batch pipeline on the concatenated signal, for every possible
chunking of the input** — including 1-sample chunks and uneven tails.
The equivalence arguments (verified by ``tests/test_stream_equivalence.py``):

* :class:`StreamingSOSFilter` — the batch :func:`repro.dsp.filters.sosfilt`
  and this filter run the same ``scipy.signal.sosfilt`` recursion on
  the same :func:`repro.dsp.filters.normalized_sections` coefficients.
  The direct-form-II-transposed update is elementwise per (sample,
  section), so carrying scipy's ``zi`` registers across ``push`` calls
  makes any chunking of the time axis equal one whole-signal call, and
  a fresh (or ``reset``) filter starts from the batch function's
  documented zero-initial-condition state.

* :class:`StreamingOnsetDetector` — numpy's reductions choose their
  summation order by memory layout (contiguous axes take the pairwise
  8-accumulator path, strided axes fall back to sequential), so the
  detector's ring buffer stores the high-passed accelerometer
  *axis-major* — ``(3, capacity)`` C-contiguous — mirroring the batch
  detection signal of :func:`repro.dsp.detection.detection_signals_batch`
  (filtered axis-major, then transposed back), whose reduction axis is
  likewise contiguous.  Window metrics (one ``std(axis=1)`` per window)
  and the stride-1 refinement then reduce over contiguous runs exactly
  as the batch path does, and the std-rule scan is decided
  candidate-by-candidate in the same order as
  :func:`repro.dsp.detection.detect_onset`.

MAD outlier replacement is median-based and therefore has no exact
streaming form; a session hands the whole post-onset window to the
batch pipeline instead (:mod:`repro.stream.session`).
"""

from __future__ import annotations

import numpy as np
from scipy import signal as scipy_signal

from repro.config import PreprocessConfig
from repro.dsp.detection import (
    _detection_pad,
    _detection_sos,
    refine_from_region,
    refinement_bounds,
)
from repro.dsp.filters import normalized_sections
from repro.errors import ShapeError
from repro.types import ACCEL_AXES, NUM_AXES


class StreamingSOSFilter:
    """Chunked biquad cascade carrying scipy's ``zi`` state across pushes.

    The streaming form of :func:`repro.dsp.filters.sosfilt`: feeding
    any partition of a signal through :meth:`push` yields, concatenated,
    the bitwise-identical output of one whole-signal ``sosfilt`` call —
    including the first-chunk transient, because a fresh filter starts
    from the same zero-initial-condition state the batch function
    documents.

    Args:
        sos: ``(num_sections, 6)`` second-order sections.
        batch_shape: leading shape of each pushed chunk; ``(3,)`` for
            the detector's accelerometer block, ``()`` for one lane.
    """

    def __init__(self, sos: np.ndarray, batch_shape: tuple[int, ...] = ()) -> None:
        self._sos = normalized_sections(sos)
        self._batch_shape = tuple(batch_shape)
        self.reset()

    def reset(self) -> None:
        """Return to the zero-initial-condition state (a fresh filter)."""
        # scipy's layout: (sections, *batch_shape, 2) delay registers.
        self._zi = np.zeros((len(self._sos), *self._batch_shape, 2))
        self._samples = 0

    @property
    def samples_seen(self) -> int:
        return self._samples

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Filter one ``(*batch_shape, k)`` chunk; returns the same shape."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.shape[:-1] != self._batch_shape:
            raise ShapeError(
                f"chunk batch shape {chunk.shape[:-1]} != {self._batch_shape}"
            )
        if chunk.shape[-1] == 0:
            return chunk.copy()  # scipy rejects an empty time axis
        out, self._zi = scipy_signal.sosfilt(self._sos, chunk, axis=-1, zi=self._zi)
        self._samples += chunk.shape[-1]
        return out


class StreamingOnsetDetector:
    """Ring-buffered incremental mirror of :func:`detect_onset`.

    Consumes raw ``(k, 6)`` chunks of a live IMU feed and reports the
    paper's onset — start-std > ``onset_std_start`` with
    ``onset_sustain_windows`` following windows ≥ ``onset_std_sustain``,
    refined to stride-1 — the moment it becomes *final*: an onset is
    only emitted once enough samples exist that no future sample could
    change the batch answer (the sustain tail is complete and the
    refinement bounds no longer depend on the signal length).  At that
    point the returned index is bitwise the value
    :func:`repro.dsp.detection.detect_onset` computes on any longer
    prefix of the same stream.

    :meth:`finish` applies end-of-stream semantics for finite signals:
    the batch clamp ``hi = min(n - window, coarse + 2*window)`` and the
    batch rule that candidates with an incomplete sustain tail never
    fire.

    Memory is O(1): filtered accelerometer history lives in a bounded
    axis-major ring (live span ≤ a few windows; see the scan invariant
    in :meth:`_scan`); only the per-window metric list grows, one float
    per ``onset_window`` samples, and the session layer re-arms with a
    fresh detector before that matters.
    """

    def __init__(
        self,
        config: PreprocessConfig | None = None,
        sos: np.ndarray | None = None,
    ) -> None:
        self.config = config or PreprocessConfig()
        self._sos = _detection_sos(self.config, sos)
        self._pad = _detection_pad(self.config)
        self._filter = StreamingSOSFilter(self._sos, batch_shape=(3,))
        window = self.config.onset_window
        # A candidate window resolves (fires or advances) once the head
        # is max(sustain + 1, 3) windows past its start; we retain one
        # window before the candidate for refinement, so the live span
        # never exceeds (max(sustain + 1, 3) + 1) windows.  Four spare
        # windows guarantee room to append between scans.  Capacity is
        # a multiple of the window so stride-aligned metric windows
        # never straddle the wrap seam.
        span = max(self.config.onset_sustain_windows + 1, 3) + 5
        self._cap = span * window
        self._ring = np.zeros((3, self._cap))
        self._head = 0  # absolute count of detection samples stored
        self._tail = 0  # absolute index of the oldest retained sample
        self._metrics: list[np.float64] = []
        self._candidate = 0  # next metric window index to decide
        self._primed = False
        self._onset: int | None = None
        self._final_at: int | None = None

    @property
    def samples_seen(self) -> int:
        return self._head

    @property
    def onset(self) -> int | None:
        """The confirmed onset sample index, or None."""
        return self._onset

    @property
    def final_at(self) -> int | None:
        """Shortest prefix length that confirms the latched onset.

        Once :attr:`onset` is set (by ``push``, not ``finish``), batch
        detection on any prefix of at least this many samples finds the
        identical onset.  Independent of how the stream was chunked —
        the value sessions use to cut a partition-invariant
        verification window.
        """
        return self._final_at

    def push(self, chunk: np.ndarray) -> int | None:
        """Consume one raw ``(k, 6)`` chunk; the onset once confirmed.

        Once an onset is latched, further pushes are no-ops that keep
        returning it — the session layer stops feeding the detector and
        re-arms a fresh one after its cooldown.
        """
        if self._onset is not None:
            return self._onset
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2 or chunk.shape[1] != NUM_AXES:
            raise ShapeError(f"chunk must be (k, 6), got {chunk.shape}")
        block = chunk[:, list(ACCEL_AXES)]
        n = block.shape[0]
        if n == 0:
            return None
        if not self._primed:
            # Settle the high-pass on the first sample's DC level,
            # exactly as _detection_signal's front padding does; the
            # pad outputs are discarded.
            self._filter.push(np.repeat(block[:1], self._pad, axis=0).T)
            self._primed = True
        pos = 0
        while pos < n and self._onset is None:
            room = self._cap - (self._head - self._tail)
            take = min(n - pos, room)
            filtered = self._filter.push(block[pos : pos + take].T)
            self._store(filtered)
            pos += take
            self._scan(final=False)
        return self._onset

    def finish(self) -> int | None:
        """End-of-stream decision with the batch clamp semantics.

        Equals ``detect_onset`` on the full finite signal: candidates
        whose sustain tail is cut off never fire, and the refinement
        range is clamped to the actual signal length.  Returns ``None``
        where the batch function raises ``OnsetNotFoundError``.
        """
        if self._onset is None:
            self._scan(final=True)
        return self._onset

    # -- internals ------------------------------------------------------

    def _store(self, filtered: np.ndarray) -> None:
        k = filtered.shape[1]
        start = self._head % self._cap
        first = min(k, self._cap - start)
        self._ring[:, start : start + first] = filtered[:, :first]
        if first < k:
            self._ring[:, : k - first] = filtered[:, first:]
        self._head += k

    def _gather(self, start: int, length: int) -> np.ndarray:
        """Copy ``detection[start : start + length]`` out of the ring.

        Returned as ``(length, 3)`` with a contiguous time axis per
        column — the same layout as a slice of the batch detection
        signal, so downstream reductions take identical summation
        paths.
        """
        out = np.empty((3, length))
        s = start % self._cap
        first = min(length, self._cap - s)
        out[:, :first] = self._ring[:, s : s + first]
        if first < length:
            out[:, first:] = self._ring[:, : length - first]
        return out.T

    def _scan(self, final: bool) -> None:
        cfg = self.config
        window = cfg.onset_window
        # Complete any newly full stride-aligned metric windows.  The
        # per-axis slice is contiguous (capacity is a multiple of the
        # window), matching the batch window_std reduction layout.
        while (len(self._metrics) + 1) * window <= self._head:
            s = (len(self._metrics) * window) % self._cap
            self._metrics.append(self._ring[:, s : s + window].std(axis=1).max())
        sustain = cfg.onset_sustain_windows
        while self._candidate < len(self._metrics):
            idx = self._candidate
            if self._metrics[idx] <= cfg.onset_std_start:
                self._advance()
                continue
            tail = self._metrics[idx + 1 : idx + 1 + sustain]
            if len(tail) < sustain:
                if final:
                    # Batch semantics: an incomplete sustain tail can
                    # never confirm, on this or any later candidate.
                    self._advance()
                    continue
                return  # wait for more windows
            if all(m >= cfg.onset_std_sustain for m in tail):
                coarse = idx * window
                if not final and self._head < coarse + 3 * window:
                    # Refinement bounds still depend on the length.
                    return
                # The shortest prefix on which the batch rule confirms
                # this same candidate: sustain tail complete and the
                # refinement bounds length-independent.  Pure stream
                # arithmetic, so callers that cut a recording here get
                # a chunking-invariant boundary.
                self._final_at = max(
                    (idx + 1 + sustain) * window, coarse + 3 * window
                )
                self._onset = self._refine(coarse)
                return
            self._advance()

    def _advance(self) -> None:
        self._candidate += 1
        window = self.config.onset_window
        self._tail = max(self._tail, max(0, self._candidate * window - window))

    def _refine(self, coarse: int) -> int:
        window = self.config.onset_window
        lo, hi = refinement_bounds(self._head, coarse, window)
        if hi <= lo:
            return coarse
        region = self._gather(lo, hi + window - lo)
        return refine_from_region(region, lo, hi, window)
