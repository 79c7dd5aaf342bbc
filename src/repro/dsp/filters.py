"""Butterworth filter design and filtering.

The paper removes body-motion low-frequency components with a high-pass
four-order Butterworth filter cut off at 20 Hz (Section IV).  This
module builds the complete design chain from first principles rather
than delegating it to scipy -- analog prototype poles, frequency
transformation, bilinear transform with prewarping, and second-order
section (biquad) assembly.  Filtering itself is one recursion,
``scipy.signal.sosfilt`` (direct form II transposed), which both the
batch :func:`sosfilt` and the streaming
:class:`repro.stream.StreamingSOSFilter` call.  The test suite
cross-validates the design against ``scipy.signal``.

Only even orders are supported (2..8); the paper uses order 4.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as scipy_signal

from repro.errors import ConfigError, ShapeError


def butterworth_prototype_poles(order: int) -> np.ndarray:
    """Poles of the normalised (wc = 1) analog Butterworth low-pass.

    The poles sit on the left half of the unit circle at angles
    ``pi * (2k - 1) / (2n) + pi/2`` for ``k = 1..n``.
    """
    if order <= 0:
        raise ConfigError("order must be positive")
    k = np.arange(1, order + 1)
    theta = np.pi * (2.0 * k - 1.0) / (2.0 * order) + np.pi / 2.0
    return np.exp(1j * theta)


def _prewarp(cutoff_hz: float, sample_rate_hz: float) -> float:
    """Map the digital cutoff onto the analog axis for the bilinear step."""
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ConfigError("cutoff must lie strictly inside (0, Nyquist)")
    return 2.0 * sample_rate_hz * np.tan(np.pi * cutoff_hz / sample_rate_hz)


def _bilinear_zpk(
    zeros: np.ndarray,
    poles: np.ndarray,
    gain: float,
    sample_rate_hz: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Bilinear transform of an analog zpk system to the z-domain."""
    fs2 = 2.0 * sample_rate_hz
    digital_zeros = (fs2 + zeros) / (fs2 - zeros)
    digital_poles = (fs2 + poles) / (fs2 - poles)
    # Degree deficit: each missing analog zero maps to z = -1.
    deficit = len(poles) - len(zeros)
    if deficit < 0:
        raise ConfigError("more zeros than poles in analog prototype")
    digital_zeros = np.concatenate([digital_zeros, -np.ones(deficit)])
    num = np.prod(fs2 - zeros) if len(zeros) else 1.0
    den = np.prod(fs2 - poles)
    digital_gain = float(np.real(gain * num / den))
    return digital_zeros, digital_poles, digital_gain


def _pair_conjugates(roots: np.ndarray) -> list[tuple[complex, complex]]:
    """Group roots into conjugate (or real) pairs for biquad assembly."""
    if len(roots) % 2 != 0:
        raise ConfigError("only even orders are supported")
    remaining = list(roots)
    pairs: list[tuple[complex, complex]] = []
    while remaining:
        root = remaining.pop(0)
        if abs(root.imag) < 1e-12:
            # Real root: pair with the nearest remaining real root.
            reals = [r for r in remaining if abs(r.imag) < 1e-12]
            if not reals:
                raise ConfigError("unpaired real root in filter design")
            mate = min(reals, key=lambda r: abs(r - root))
            remaining.remove(mate)
        else:
            mate = min(remaining, key=lambda r: abs(r - np.conj(root)))
            remaining.remove(mate)
        pairs.append((root, mate))
    return pairs


def _zpk_to_sos(
    zeros: np.ndarray, poles: np.ndarray, gain: float
) -> np.ndarray:
    """Assemble second-order sections; the full gain rides on section 0."""
    zero_pairs = _pair_conjugates(np.asarray(zeros, dtype=complex))
    pole_pairs = _pair_conjugates(np.asarray(poles, dtype=complex))
    if len(zero_pairs) != len(pole_pairs):
        raise ConfigError("zero/pole pair count mismatch")
    sos = np.zeros((len(pole_pairs), 6))
    for idx, ((z1, z2), (p1, p2)) in enumerate(zip(zero_pairs, pole_pairs)):
        b = np.real(np.poly([z1, z2]))
        a = np.real(np.poly([p1, p2]))
        if idx == 0:
            b = b * gain
        sos[idx, :3] = b
        sos[idx, 3:] = a
    return sos


def design_lowpass(
    order: int, cutoff_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """Digital Butterworth low-pass as second-order sections ``(n/2, 6)``."""
    if order % 2 != 0 or not 2 <= order <= 8:
        raise ConfigError("order must be even, in 2..8")
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    prototype = butterworth_prototype_poles(order)
    poles = wc * prototype
    gain = float(np.real(np.prod(-poles)))  # wc**order
    zeros = np.empty(0, dtype=complex)
    dz, dp, dk = _bilinear_zpk(zeros, poles, gain, sample_rate_hz)
    return _zpk_to_sos(dz, dp, dk)


def design_highpass(
    order: int, cutoff_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """Digital Butterworth high-pass as second-order sections ``(n/2, 6)``.

    The analog prototype low-pass is transformed with ``s -> wc / s``:
    poles become ``wc / p_k``, ``order`` zeros appear at the origin, and
    the gain becomes ``1 / prod(-p_k) = 1`` for Butterworth prototypes.
    """
    if order % 2 != 0 or not 2 <= order <= 8:
        raise ConfigError("order must be even, in 2..8")
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    prototype = butterworth_prototype_poles(order)
    poles = wc / prototype
    zeros = np.zeros(order, dtype=complex)
    gain = float(np.real(1.0 / np.prod(-prototype)))
    dz, dp, dk = _bilinear_zpk(zeros, poles, gain, sample_rate_hz)
    return _zpk_to_sos(dz, dp, dk)


def design_bandpass(
    order: int,
    low_hz: float,
    high_hz: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Digital Butterworth band-pass as cascaded high-pass + low-pass.

    A composition of two even-order Butterworth halves (``order`` each);
    its magnitude is the product of the two responses, giving -3 dB
    within a hair of each edge for well-separated bands.  Sufficient
    for the band-selection studies in the benches; an elliptic-integral
    band transform is out of scope.
    """
    if not 0.0 < low_hz < high_hz < sample_rate_hz / 2.0:
        raise ConfigError("need 0 < low < high < Nyquist")
    highpass_sos = design_highpass(order, low_hz, sample_rate_hz)
    lowpass_sos = design_lowpass(order, high_hz, sample_rate_hz)
    return np.concatenate([highpass_sos, lowpass_sos], axis=0)


def design_bandstop(
    order: int,
    low_hz: float,
    high_hz: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Digital notch built from a parallel low-pass + high-pass pair.

    Returned as second-order sections of the *summed* transfer function
    is not possible in SOS form, so this helper instead cascades a
    band-pass of the complementary band inverted via spectral
    subtraction -- implemented simply as two cascades the caller applies
    and sums.  To keep a single-SOS API, we approximate the stop band by
    a deep peaking cut centred geometrically between the edges.
    """
    if not 0.0 < low_hz < high_hz < sample_rate_hz / 2.0:
        raise ConfigError("need 0 < low < high < Nyquist")
    if order % 2 != 0 or not 2 <= order <= 8:
        raise ConfigError("order must be even, in 2..8")
    center = float(np.sqrt(low_hz * high_hz))
    bandwidth = high_hz - low_hz
    q = center / bandwidth
    # Cascade order/2 identical deep cuts (-20 dB each).
    amp = 10.0 ** (-20.0 / 40.0)
    w0 = 2.0 * np.pi * center / sample_rate_hz
    alpha = np.sin(w0) / (2.0 * q)
    b = np.array([1.0 + alpha * amp, -2.0 * np.cos(w0), 1.0 - alpha * amp])
    a = np.array([1.0 + alpha / amp, -2.0 * np.cos(w0), 1.0 - alpha / amp])
    section = np.concatenate([b / a[0], a / a[0]])
    return np.tile(section, (order // 2, 1))


def normalized_sections(sos: np.ndarray) -> np.ndarray:
    """The ``(n, 6)`` sections ``scipy.signal.sosfilt`` consumes.

    This is the one place the coefficient normalisation rule lives:
    a section is divided by its ``a0`` only when
    ``abs(a0 - 1.0) > 1e-12``, via the exact expression ``c / a0``, and
    every returned ``a0`` is exactly ``1.0`` (scipy rejects any other
    value).  Both :func:`sosfilt` and the streaming filter
    (:class:`repro.stream.StreamingSOSFilter`) consume this helper, so
    the two paths run on bitwise-identical coefficients by construction.
    """
    sos = np.asarray(sos, dtype=np.float64)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ShapeError("sos must be (num_sections, 6)")
    sections = sos.copy()
    rescale = np.abs(sos[:, 3] - 1.0) > 1e-12
    sections[rescale] = sos[rescale] / sos[rescale, 3:4]
    sections[:, 3] = 1.0
    return sections


def sosfilt(sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Apply cascaded biquads along the last axis (direct form II transposed).

    Accepts any leading batch shape; state is kept per batch element, so
    a ``(6, n)`` signal array filters all six axes in one call.

    **Zero-initial-condition contract.**  Every call starts each
    section's two delay registers at exactly ``0.0``: the filter
    behaves as if the signal were preceded by infinite silence, and the
    first output sample is ``b0 * x[0]`` through the cascade.  Callers
    that need the filter settled on a DC level (the onset detector's
    gravity-loaded accelerometer) must pad the input themselves — see
    ``repro.dsp.detection.detection_signals_batch`` — because this
    function never carries state across calls.  The streaming filter
    runs the same scipy recursion and carries its ``zi`` registers
    between pushes instead: a fresh (or ``reset()``)
    :class:`repro.stream.StreamingSOSFilter` starts from the same zero
    state, so chunked processing is bitwise identical to one
    whole-signal call.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 0:
        raise ShapeError("signal must have at least one dimension")
    sections = normalized_sections(sos)
    if signal.shape[-1] == 0:
        return signal.copy()  # scipy rejects an empty time axis
    return scipy_signal.sosfilt(sections, signal, axis=-1)


def highpass(
    signal: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Convenience wrapper: design + apply the paper's high-pass filter."""
    sos = design_highpass(order, cutoff_hz, sample_rate_hz)
    return sosfilt(sos, signal)


def frequency_response(
    sos: np.ndarray, freqs_hz: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    """Complex frequency response of a biquad cascade at ``freqs_hz``."""
    sos = np.asarray(sos, dtype=np.float64)
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    z = np.exp(-2j * np.pi * freqs_hz / sample_rate_hz)
    response = np.ones(freqs_hz.shape, dtype=complex)
    for b0, b1, b2, a0, a1, a2 in sos:
        num = b0 + b1 * z + b2 * z**2
        den = a0 + a1 * z + a2 * z**2
        response = response * num / den
    return response
