"""Butterworth design and filtering tests, cross-validated against scipy."""

import numpy as np
import pytest
from scipy import signal as scipy_signal

from repro.dsp.filters import (
    butterworth_prototype_poles,
    design_highpass,
    design_lowpass,
    frequency_response,
    highpass,
    normalized_sections,
    sosfilt,
)
from repro.errors import ConfigError, ShapeError

FS = 350.0


class TestPrototype:
    def test_poles_on_unit_circle(self):
        poles = butterworth_prototype_poles(4)
        np.testing.assert_allclose(np.abs(poles), 1.0)

    def test_poles_in_left_half_plane(self):
        poles = butterworth_prototype_poles(6)
        assert np.all(poles.real < 0.0)

    def test_poles_conjugate_symmetric(self):
        poles = butterworth_prototype_poles(4)
        for pole in poles:
            assert np.min(np.abs(poles - np.conj(pole))) < 1e-12

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ConfigError):
            butterworth_prototype_poles(0)


class TestDesignVsScipy:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_highpass_magnitude_matches_scipy(self, order):
        sos = design_highpass(order, 20.0, FS)
        sos_ref = scipy_signal.butter(order, 20.0, "highpass", fs=FS, output="sos")
        freqs = np.linspace(1.0, FS / 2 - 1, 400)
        ours = np.abs(frequency_response(sos, freqs, FS))
        w = 2 * np.pi * freqs / FS
        _, ref = scipy_signal.sosfreqz(sos_ref, worN=w)
        np.testing.assert_allclose(ours, np.abs(ref), atol=1e-10)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_lowpass_magnitude_matches_scipy(self, order):
        sos = design_lowpass(order, 50.0, FS)
        sos_ref = scipy_signal.butter(order, 50.0, "lowpass", fs=FS, output="sos")
        freqs = np.linspace(1.0, FS / 2 - 1, 400)
        ours = np.abs(frequency_response(sos, freqs, FS))
        w = 2 * np.pi * freqs / FS
        _, ref = scipy_signal.sosfreqz(sos_ref, worN=w)
        np.testing.assert_allclose(ours, np.abs(ref), atol=1e-10)

    def test_halfpower_at_cutoff(self):
        sos = design_highpass(4, 20.0, FS)
        mag = np.abs(frequency_response(sos, np.array([20.0]), FS))[0]
        assert mag == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)

    def test_rejects_odd_order(self):
        with pytest.raises(ConfigError):
            design_highpass(3, 20.0, FS)

    def test_rejects_cutoff_beyond_nyquist(self):
        with pytest.raises(ConfigError):
            design_highpass(4, 200.0, FS)


class TestSosfilt:
    def test_matches_scipy_filtering(self, rng):
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=300)
        ours = sosfilt(sos, x)
        ref = scipy_signal.sosfilt(sos, x)
        np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_batched_equals_loop(self, rng):
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=(6, 100))
        batched = sosfilt(sos, x)
        for axis in range(6):
            np.testing.assert_allclose(batched[axis], sosfilt(sos, x[axis]))

    def test_highpass_kills_dc(self):
        out = highpass(np.full(400, 123.0), 20.0, FS)
        assert np.abs(out[-50:]).max() < 1.0

    def test_highpass_preserves_inband_tone(self):
        t = np.arange(1400) / FS
        tone = np.sin(2 * np.pi * 100.0 * t)
        out = highpass(tone, 20.0, FS)
        # Steady-state amplitude preserved within 5 %.
        assert np.abs(out[700:]).max() == pytest.approx(1.0, rel=0.05)

    def test_highpass_attenuates_body_motion_band(self):
        t = np.arange(1400) / FS
        sway = np.sin(2 * np.pi * 3.0 * t)
        out = highpass(sway, 20.0, FS)
        assert np.abs(out[700:]).max() < 0.05

    def test_rejects_bad_sos_shape(self):
        with pytest.raises(ShapeError):
            sosfilt(np.zeros((2, 5)), np.zeros(10))

    def test_input_not_mutated(self, rng):
        sos = design_highpass(2, 20.0, FS)
        x = rng.normal(size=50)
        original = x.copy()
        sosfilt(sos, x)
        np.testing.assert_array_equal(x, original)


class TestZeroInitialConditionContract:
    """``sosfilt`` always starts from rest — the documented contract
    the streaming twin (and every padding caller) relies on."""

    def test_first_output_is_cascaded_b0_times_x0(self, rng):
        # With s1 = s2 = 0 the first output of each section is b0 * x0,
        # so the cascade's first output is (prod b0) * x0 exactly.
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=30)
        sections = normalized_sections(sos)
        expected = x[0]
        for b0, *_ in sections:
            expected = b0 * expected
        assert sosfilt(sos, x)[0] == expected

    def test_repeated_calls_are_independent(self, rng):
        # No state leaks between calls: same input, same output.
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=100)
        first = sosfilt(sos, x)
        sosfilt(sos, rng.normal(size=64))  # unrelated traffic
        np.testing.assert_array_equal(sosfilt(sos, x), first)

    def test_split_filtering_differs_without_carried_state(self, rng):
        # Filtering two halves independently is NOT the same as one
        # call — each half restarts from rest.  This is exactly why the
        # streaming twin must carry (s1, s2) across chunks.
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=120)
        whole = sosfilt(sos, x)
        split = np.concatenate([sosfilt(sos, x[:60]), sosfilt(sos, x[60:])])
        assert not np.array_equal(whole, split)

    def test_settling_pad_suppresses_startup_transient(self):
        # The detection path's first-sample padding: a constant input
        # long enough for the high-pass to settle leaves outputs near
        # zero, so real samples see no spurious startup energy.
        sos = design_highpass(4, 20.0, FS)
        pad = max(int(round(4.0 * FS / 20.0)), 8)
        constant = np.full(pad + 50, 123.4)
        out = sosfilt(sos, constant)
        assert abs(out[0]) > 1.0  # raw startup transient is large
        # Settled after the pad: residual ripple is orders of magnitude
        # below the detector's 100-count sustain threshold.
        assert np.all(np.abs(out[pad:]) < 0.01)

    def test_normalized_sections_divide_by_a0_once(self):
        sos = design_highpass(4, 20.0, FS)
        scaled = sos * 3.0  # a0 = 3 everywhere; same transfer function
        plain = normalized_sections(sos)
        rescaled = normalized_sections(scaled)
        for (b0, b1, b2, _, a1, a2), (c0, c1, c2, _, d1, d2) in zip(plain, rescaled):
            np.testing.assert_allclose(
                [c0, c1, c2, d1, d2], [b0, b1, b2, a1, a2], rtol=1e-12
            )

    def test_normalized_sections_passthrough_when_a0_is_one(self):
        # a0 == 1 (the design_* output) must not be touched at all —
        # even a divide-by-1.0 could flip the last ulp.
        sos = design_highpass(4, 20.0, FS)
        for row, (b0, b1, b2, _, a1, a2) in zip(sos, normalized_sections(sos)):
            assert (b0, b1, b2) == (row[0], row[1], row[2])
            assert (a1, a2) == (row[4], row[5])


class TestUnnormalisedSections:
    """Sections with ``a0 != 1`` go through ``normalized_sections``
    before scipy's recursion, which rejects any other ``a0``."""

    # Doubling a row and dividing it back are both exact in binary, so
    # the normalised rows equal the designed ones bit for bit.
    SCALES = np.array([[2.0], [4.0]])

    def test_batch_filter_equals_prenormalised(self, rng):
        sos = design_highpass(4, 20.0, FS)
        scaled = sos * self.SCALES
        x = rng.normal(size=(3, 200))
        out = sosfilt(scaled, x)
        assert np.array_equal(out, sosfilt(normalized_sections(scaled), x))
        assert np.array_equal(out, sosfilt(sos, x))

    def test_streaming_filter_equals_prenormalised(self, rng):
        from repro.stream import StreamingSOSFilter

        sos = design_highpass(4, 20.0, FS)
        scaled = sos * self.SCALES
        x = rng.normal(size=(3, 200))
        stream = StreamingSOSFilter(scaled, batch_shape=(3,))
        out = np.concatenate(
            [stream.push(x[:, a : a + 35]) for a in range(0, 200, 35)], axis=-1
        )
        prenormalised = StreamingSOSFilter(
            normalized_sections(scaled), batch_shape=(3,)
        )
        assert np.array_equal(out, prenormalised.push(x))
        assert np.array_equal(out, sosfilt(sos, x))

    def test_near_one_a0_is_not_divided(self):
        # Within 1e-12 of one, a0 is taken as exactly 1.0 and the other
        # coefficients pass through untouched.
        sos = design_highpass(4, 20.0, FS)
        nudged = sos.copy()
        nudged[:, 3] += 1e-14
        sections = normalized_sections(nudged)
        assert np.array_equal(sections, sos)


def _biquad_reference(sos, x):
    """Per-sample direct-form-II-transposed cascade from rest."""
    out = np.array(x, dtype=np.float64)
    for b0, b1, b2, _, a1, a2 in normalized_sections(sos):
        s1 = np.zeros(out.shape[:-1])
        s2 = np.zeros(out.shape[:-1])
        for i in range(out.shape[-1]):
            x_i = out[..., i]
            y = b0 * x_i + s1
            s1 = b1 * x_i - a1 * y + s2
            s2 = b2 * x_i - a2 * y
            out[..., i] = y
    return out


class TestReferenceRecursion:
    @pytest.mark.parametrize("shape", [(1,), (210,), (6, 210), (4, 3, 100)])
    def test_sosfilt_equals_per_sample_loop_bitwise(self, rng, shape):
        sos = design_highpass(4, 20.0, FS)
        x = rng.normal(size=shape) * 1000.0
        assert np.array_equal(sosfilt(sos, x), _biquad_reference(sos, x))
