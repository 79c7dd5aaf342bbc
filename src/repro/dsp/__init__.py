"""Signal-processing substrate implementing Section IV of the paper.

Modules:

* :mod:`repro.dsp.windows` -- sliding-window framing and window statistics,
* :mod:`repro.dsp.detection` -- vibration onset detection,
* :mod:`repro.dsp.outliers` -- MAD outlier detection and mean replacement,
* :mod:`repro.dsp.filters` -- from-scratch Butterworth design + filtering,
* :mod:`repro.dsp.normalize` -- min-max / z-score normalisation,
* :mod:`repro.dsp.gradients` -- gradients, sign split, interpolation,
* :mod:`repro.dsp.spectral` -- FFT-based spectral analysis helpers,
* :mod:`repro.dsp.pipeline` -- the full preprocessing pipeline.
"""

from repro.dsp.analysis import (
    autocorrelation,
    envelope,
    estimate_f0,
    resample_fft,
    zero_crossing_rate,
)
from repro.dsp.detection import detect_onset
from repro.dsp.filters import (
    design_bandpass,
    design_bandstop,
    design_highpass,
    design_lowpass,
    highpass,
    sosfilt,
)
from repro.dsp.stft import spectrogram, stft, window_function
from repro.dsp.gradients import signal_gradients
from repro.dsp.normalize import min_max_normalize, z_score_normalize
from repro.dsp.outliers import mad_outlier_mask, replace_outliers
from repro.dsp.pipeline import Preprocessor
from repro.dsp.windows import window_std

__all__ = [
    "Preprocessor",
    "autocorrelation",
    "design_bandpass",
    "design_bandstop",
    "envelope",
    "estimate_f0",
    "resample_fft",
    "spectrogram",
    "stft",
    "window_function",
    "zero_crossing_rate",
    "design_highpass",
    "design_lowpass",
    "detect_onset",
    "highpass",
    "mad_outlier_mask",
    "min_max_normalize",
    "replace_outliers",
    "signal_gradients",
    "sosfilt",
    "window_std",
    "z_score_normalize",
]
