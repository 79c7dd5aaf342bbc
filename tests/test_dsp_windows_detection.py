"""Window framing and onset detection tests (Section IV)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import PreprocessConfig
from repro.dsp.detection import (
    detect_onset,
    has_vibration,
    onset_metric,
    refine_from_region,
    refinement_bounds,
    segment_after_onset,
)
from repro.dsp.windows import frame, window_start_indices, window_std
from repro.errors import (
    ConfigError,
    OnsetNotFoundError,
    SegmentTooShortError,
    ShapeError,
)


class TestFraming:
    def test_non_overlapping_frames(self):
        frames = frame(np.arange(25), 10)
        assert frames.shape == (2, 10)
        np.testing.assert_array_equal(frames[0], np.arange(10))
        np.testing.assert_array_equal(frames[1], np.arange(10, 20))

    def test_custom_stride(self):
        frames = frame(np.arange(20), 10, stride=5)
        assert frames.shape == (3, 10)

    def test_short_signal_yields_empty(self):
        assert frame(np.arange(5), 10).shape == (0, 10)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            frame(np.zeros((5, 5)), 2)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            frame(np.arange(10), 0)

    def test_window_std_values(self):
        signal = np.concatenate([np.zeros(10), np.full(10, 7.0)])
        stds = window_std(signal, 10)
        np.testing.assert_allclose(stds, [0.0, 0.0])

    def test_window_start_indices(self):
        np.testing.assert_array_equal(
            window_start_indices(35, 10), [0, 10, 20]
        )


def _synthetic_recording(onset_sample: int = 80, amplitude: float = 2000.0):
    """Silence, then a strong oscillation on all accel axes."""
    rng = np.random.default_rng(0)
    rec = rng.normal(0.0, 3.0, size=(210, 6))
    t = np.arange(210 - onset_sample)
    burst = amplitude * np.sin(2 * np.pi * 0.25 * t)
    for axis in range(3):
        rec[onset_sample:, axis] += burst
    return rec


class TestOnsetDetection:
    def test_finds_onset_near_truth(self):
        rec = _synthetic_recording(onset_sample=80)
        onset = detect_onset(rec)
        assert 65 <= onset <= 90

    def test_silence_raises(self):
        rng = np.random.default_rng(0)
        rec = rng.normal(0.0, 3.0, size=(210, 6))
        with pytest.raises(OnsetNotFoundError):
            detect_onset(rec)

    def test_has_vibration_is_boolean_wrapper(self):
        assert has_vibration(_synthetic_recording())
        assert not has_vibration(np.zeros((210, 6)))

    def test_short_recording_raises(self):
        with pytest.raises(OnsetNotFoundError):
            detect_onset(np.zeros((5, 6)))

    def test_brief_glitch_does_not_trigger(self):
        """An isolated sensor spike without sustained follow-up is ignored.

        (The spike's high-pass ring-down decays within a window or two,
        so the sustain rule rejects it.)
        """
        rng = np.random.default_rng(0)
        rec = rng.normal(0.0, 3.0, size=(210, 6))
        rec[55, 2] += 5000.0  # one glitch sample, then silence again
        with pytest.raises(OnsetNotFoundError):
            detect_onset(rec)

    def test_uses_any_accel_axis(self):
        """Vibration only on ay still triggers (coupling-direction robust)."""
        rng = np.random.default_rng(0)
        rec = rng.normal(0.0, 3.0, size=(210, 6))
        t = np.arange(130)
        rec[80:, 1] += 2000.0 * np.sin(2 * np.pi * 0.25 * t)
        assert 65 <= detect_onset(rec) <= 90

    def test_detection_on_real_synthesis(self, recording):
        onset = detect_onset(recording)
        assert 20 <= onset <= 100

    def test_effort_invariant_alignment(self):
        """A 2x louder copy detects (nearly) the same onset."""
        rec = _synthetic_recording(onset_sample=83)
        loud = rec.copy()
        loud[:, :3] *= 2.0
        assert abs(detect_onset(rec) - detect_onset(loud)) <= 1

    def test_onset_metric_shape(self):
        metric = onset_metric(np.zeros((50, 6)), window=10)
        assert metric.shape == (5,)


def _refine_per_start(region, lo, hi, window):
    """Reference refinement: one std reduction per stride-1 start."""
    rolling = np.empty(hi - lo + 1)
    for offset, start in enumerate(range(lo, hi + 1)):
        chunk = region[start - lo : start - lo + window]
        rolling[offset] = chunk.std(axis=0).max()
    half = 0.5 * float(rolling.max())
    return lo + int(np.argmax(rolling >= half))


class TestRefinementReduction:
    """The single sliding-window reduction equals the per-start loop
    bitwise, in both layouts the detectors hand it."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(2, 20),
        length=st.integers(0, 300),
        position=st.floats(0.0, 1.0),
        log_scale=st.floats(-3.0, 5.0),
    )
    def test_equals_per_start_loop(self, seed, window, length, position, log_scale):
        rng = np.random.default_rng(seed)
        n = 3 * window + length
        # Quiet noise, then a louder attack from a random sample on.
        signal = rng.normal(size=(3, n)) * 10.0**log_scale
        attack = int(rng.integers(0, n))
        signal[:, attack:] *= rng.uniform(1.0, 50.0)
        coarse = int(position * (n - window))
        lo, hi = refinement_bounds(n, coarse, window)
        if hi <= lo:
            return
        # Batch layout: a row slice of the (n, 3) detection signal,
        # which is filtered axis-major and transposed back.
        batch = np.ascontiguousarray(signal).T[lo : hi + window]
        # Streaming layout: the ring gather copies into a fresh
        # (3, length) array and hands out its transpose.
        ring = np.empty((3, hi + window - lo))
        ring[:] = signal[:, lo : hi + window]
        for region in (batch, ring.T):
            assert refine_from_region(region, lo, hi, window) == _refine_per_start(
                region, lo, hi, window
            )


class TestSegmentation:
    def test_segment_shape_and_content(self):
        rec = np.arange(210 * 6, dtype=float).reshape(210, 6)
        seg = segment_after_onset(rec, 10, 60)
        assert seg.shape == (6, 60)
        np.testing.assert_array_equal(seg[0], rec[10:70, 0])

    def test_too_short_raises(self):
        with pytest.raises(SegmentTooShortError):
            segment_after_onset(np.zeros((100, 6)), 60, 60)

    def test_negative_onset_raises(self):
        with pytest.raises(ShapeError):
            segment_after_onset(np.zeros((100, 6)), -1, 60)

    def test_returns_copy(self):
        rec = np.zeros((100, 6))
        seg = segment_after_onset(rec, 0, 60)
        seg[0, 0] = 99.0
        assert rec[0, 0] == 0.0
