"""Single-recording entry points are the batch of one, bit for bit.

``Preprocessor.process`` / ``process_debug``, ``FrontEnd.transform``,
``statistical_features`` and the training-set generator's
``preprocess_at_offsets`` run the same stage code as their batch twins
on a stack of one.  For any mix of clean, NaN-burst, dead-axis, spiked,
silent and glitch recordings, each single call equals its row of the
B=N batch exactly, or raises the exception class the batch reports for
that item.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontend import FRONTEND_KINDS, make_frontend
from repro.datasets.synth import preprocess_at_offsets
from repro.dsp.filters import design_highpass
from repro.dsp.pipeline import Preprocessor
from repro.ml.features import statistical_features, statistical_features_batch

KINDS = ("clean", "nan", "dead", "spiked", "silent", "glitch")


@pytest.fixture(scope="module")
def pool(population, recorder):
    """A few nominal recordings the damage is applied to."""
    return [
        recorder.record(population[i % len(population)], trial_index=900 + i)
        for i in range(4)
    ]


@st.composite
def damaged(draw):
    """A recording kind plus where its damage lands."""
    return (
        draw(st.sampled_from(KINDS)),
        draw(st.integers(0, 3)),  # base recording
        draw(st.integers(0, 5)),  # axis
        draw(st.floats(0.0, 1.0)),  # position, as a fraction of the length
    )


def build(pool, spec):
    kind, index, axis, where = spec
    recording = np.array(pool[index], dtype=np.float64)
    n = recording.shape[0]
    at = int(where * (n - 8))
    if kind == "nan":
        recording[at : at + 4, axis] = np.nan
    elif kind == "dead":
        recording[:, axis] = recording[0, axis]
    elif kind == "spiked":
        recording[at, axis] += 5e4
        recording[at + 3, (axis + 1) % 6] -= 5e4
    elif kind == "silent":
        recording = np.zeros_like(recording)
    elif kind == "glitch":
        # Sensor noise with a burst on one accelerometer axis and dead
        # gyro axes: detection fires, then the despiked segment carries
        # no sustained vibration on too few usable axes.
        rng = np.random.default_rng(index)
        recording = rng.normal(scale=10.0, size=recording.shape)
        recording[:, 3:] = 0.0
        start = min(at, n - 80)
        recording[start + 20 : start + 24, axis % 3] += 5e4
    return recording


class TestSingleIsTheBatchRow:
    @given(specs=st.lists(damaged(), min_size=1, max_size=5), need=st.integers(1, 6))
    @settings(max_examples=40)
    def test_preprocess(self, pool, specs, need):
        recordings = [build(pool, spec) for spec in specs]
        pre = Preprocessor()
        signals, indices, failures, _ = pre.process_batch_detailed(
            recordings, min_usable_axes=need
        )
        rows = dict(zip(indices.tolist(), signals))
        errors = dict(failures)
        assert sorted([*rows, *errors]) == list(range(len(recordings)))
        for i, recording in enumerate(recordings):
            if i in rows:
                debug = pre.process_debug(recording, need)
                assert np.array_equal(debug.normalized, rows[i])
                assert np.array_equal(pre.process(recording, need), rows[i])
            else:
                with pytest.raises(type(errors[i])) as raised:
                    pre.process(recording, need)
                assert type(raised.value) is type(errors[i])

    @given(specs=st.lists(damaged(), min_size=1, max_size=5))
    @settings(max_examples=25)
    def test_features_and_front_ends(self, pool, specs):
        pre = Preprocessor()
        signals, _, _, _ = pre.process_batch_detailed(
            [build(pool, spec) for spec in specs]
        )
        if not len(signals):
            return
        sfs = statistical_features_batch(signals)
        batches = {
            kind: make_frontend(kind).transform_batch(signals)
            for kind in FRONTEND_KINDS
        }
        for k, signal in enumerate(signals):
            assert np.array_equal(statistical_features(signal), sfs[k])
            for kind in FRONTEND_KINDS:
                single = make_frontend(kind).transform(signal)
                assert np.array_equal(single, batches[kind][k])

    @given(specs=st.lists(damaged(), min_size=1, max_size=5))
    @settings(max_examples=25)
    def test_training_cut_is_the_pipeline_row(self, pool, specs):
        # The generator does not gate, so the rows compare where the
        # gates pass; its stages are the pipeline's.
        pre = Preprocessor()
        cfg = pre.config
        sos = design_highpass(
            cfg.highpass_order, cfg.highpass_cutoff_hz, cfg.sample_rate_hz
        )
        recordings = [build(pool, spec) for spec in specs]
        signals, indices, _, _ = pre.process_batch_detailed(recordings)
        for row, i in zip(signals, indices):
            (cut,) = preprocess_at_offsets(recordings[i], cfg, (0,), sos)
            assert np.array_equal(cut, row)
