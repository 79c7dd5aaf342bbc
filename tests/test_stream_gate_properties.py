"""The sustained-vibration gate: one rule at every site that applies it.

The batch pipeline, the single-recording pipeline and a stream
session's optional local gate all call
:func:`repro.dsp.pipeline.sustained_vibration`: an axis counts only
when it is finite end to end and carries signal, and the gate holds
when the largest usable-axis std reaches ``min_segment_std``.  So
turning ``StreamConfig.local_gate`` on can never change a decision:
the only difference it makes is *where* a refusal is produced, and a
local refusal is the same ``"refused"`` result the backend returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import StreamConfig
from repro.dsp.detection import detect_onset
from repro.dsp.pipeline import sustained_vibration
from repro.errors import InsufficientAxesError
from repro.stream import SegmentAssembler, StreamSession

GYRO_Z = 5


@pytest.fixture(scope="module")
def gate_system():
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(dtype="float32", num_probes=4)


def run_session(system, user_id, feed, local_gate):
    """(decisions, local refusals) of one system-backed session."""
    session = StreamSession(
        user_id,
        system=system,
        config=StreamConfig(cooldown_samples=105, local_gate=local_gate),
    )
    with obs.collecting() as registry:
        decisions = []
        for pos in range(0, feed.shape[0], 35):
            decisions += session.push(feed[pos : pos + 35])
        decisions += session.close()
        local = registry.to_dict()["counters"].get("stream_local_refusals_total", 0)
    return decisions, int(local)


def nan_burst_feed(system, probe, offset=20, axis=GYRO_Z):
    """``probe`` with a 4-sample NaN burst ``offset`` samples after onset."""
    onset = detect_onset(probe, system.config.preprocess)
    feed = probe.copy()
    feed[onset + offset : onset + offset + 4, axis] = np.nan
    return feed


@st.composite
def feeds(draw):
    """Index into the probe pool plus the damage applied to it."""
    kind = draw(st.sampled_from(["clean", "glitch", "nan", "dead"]))
    probe = draw(st.integers(0, 3))
    axis = draw(st.integers(0, 5))
    at = draw(st.integers(0, 250))
    return kind, probe, axis, at


def build_feed(system, probes, spec):
    kind, index, axis, at = spec
    if kind == "glitch":
        # Sensor noise with one spike: detection fires, the despiked
        # segment carries nothing — a backend refusal.
        rng = np.random.default_rng(index)
        feed = rng.normal(scale=10.0, size=(400, 6))
        feed[at + 20 : at + 24, axis] += 50000.0
        return feed
    probe = np.array(probes[index], dtype=np.float64)
    if kind == "nan":
        # Detection reads the accelerometer; the burst lands on a gyro
        # axis inside the post-onset segment.
        return nan_burst_feed(system, probe, offset=at % 60, axis=3 + axis % 3)
    if kind == "dead":
        probe[:, axis] = probe[0, axis]
    return probe


class TestLocalGateNeverChangesADecision:
    @given(spec=feeds())
    @settings(max_examples=25)
    @example(spec=("nan", 0, GYRO_Z - 3, 20))
    @example(spec=("glitch", 0, 0, 80))
    def test_local_gate_on_equals_off(self, gate_system, spec):
        system, user_id, probes = gate_system
        feed = build_feed(system, probes, spec)
        off, local_off = run_session(system, user_id, feed, local_gate=False)
        on, local_on = run_session(system, user_id, feed, local_gate=True)
        assert local_off == 0
        assert [(d.onset, d.window_start, d.window_end, d.status) for d in on] == [
            (d.onset, d.window_start, d.window_end, d.status) for d in off
        ]
        assert [d.result for d in on] == [d.result for d in off]
        backend_refusals = sum(d.result.exit_stage == "refused" for d in off)
        assert local_on <= backend_refusals

    def test_nan_burst_on_gyro_is_degraded_not_refused(self, gate_system):
        system, user_id, probes = gate_system
        feed = nan_burst_feed(system, np.array(probes[0], dtype=np.float64))
        backend = system.verify(user_id, feed)
        assert backend.exit_stage == "full" and backend.degraded
        off, _ = run_session(system, user_id, feed, local_gate=False)
        on, local = run_session(system, user_id, feed, local_gate=True)
        assert local == 0
        assert [d.result for d in on] == [d.result for d in off] == [backend]

    def test_local_refusal_has_refused_provenance(self, gate_system):
        system, user_id, _ = gate_system
        feed = build_feed(system, [], ("glitch", 0, 0, 80))
        on, local = run_session(system, user_id, feed, local_gate=True)
        assert local == 1
        window = feed[on[0].window_start : on[0].window_end]
        assert on[0].result == system.verify(user_id, window)
        assert on[0].result.exit_stage == "refused"


class TestOneGateRule:
    def test_assembler_and_pipelines_agree_on_a_nan_axis(self, gate_system):
        system, _, probes = gate_system
        feed = nan_burst_feed(system, np.array(probes[0], dtype=np.float64))
        preprocessor = system.preprocessor
        # The single-recording path gates like the batch path does.
        preprocessor.process_debug(feed)
        signals, _, failures, degraded = preprocessor.process_batch_detailed([feed])
        assert len(signals) == 1 and not failures and degraded == (0,)
        onset = detect_onset(feed, system.config.preprocess)
        assembler = SegmentAssembler(system.config.preprocess)
        assembler.push(feed[onset:])
        assert assembler.passes_gate()
        # Both paths zero the unusable axis before the extractor.
        single = system.engine.embed_one(feed)
        assert np.isfinite(single).all()
        np.testing.assert_allclose(single, system.engine.embed([feed]).values[0])

    def test_adapt_on_a_nan_burst_keeps_the_template_finite(self):
        # A NaN embedding used to read as distance 0 (the cosine clamp
        # maps NaN to 1), so adaptation sealed a NaN template and every
        # later verify of that user raised.
        from repro.serve.loadgen import build_bench_system

        system, user_id, probes = build_bench_system(dtype="float32", num_probes=2)
        feed = nan_burst_feed(system, np.array(probes[0], dtype=np.float64))
        system.adapt_template(user_id, feed, rate=0.1)
        assert np.isfinite(system.stored_template(user_id)).all()
        assert system.verify(user_id, probes[1]).exit_stage == "full"

    def test_single_path_refuses_too_few_axes_like_the_batch_path(
        self, gate_system
    ):
        system, user_id, probes = gate_system
        need = system.engine.resilience.min_usable_axes
        probe = np.array(probes[0], dtype=np.float64)
        onset = detect_onset(probe, system.config.preprocess)
        # Detection reads the accelerometer, so the bursts go on the
        # gyro axes first: one usable axis short of the policy.
        feed = probe.copy()
        for axis in range(GYRO_Z, GYRO_Z - (7 - need), -1):
            feed[onset + 10 : onset + 14, axis] = np.nan
        outcome = system.engine.embed([feed])
        assert [f.error for f in outcome.failures] == ["InsufficientAxesError"]
        with pytest.raises(InsufficientAxesError):
            system.preprocessor.process(feed, min_usable_axes=need)
        with pytest.raises(InsufficientAxesError):
            system.engine.embed_one(feed)
        before = system.stored_template(user_id)
        assert system.adapt_template(user_id, feed, rate=0.1) is False
        np.testing.assert_array_equal(system.stored_template(user_id), before)

    @given(
        dead=st.lists(st.integers(0, 5), max_size=6, unique=True),
        nan=st.lists(st.integers(0, 5), max_size=6, unique=True),
        scale=st.floats(0.0, 200.0),
    )
    @settings(max_examples=60)
    def test_gate_reads_only_usable_axes(self, dead, nan, scale):
        rng = np.random.default_rng(0)
        filtered = rng.normal(scale=scale, size=(6, 60))
        filtered[dead] = 0.0
        filtered[nan, 7] = np.nan
        usable, sustained = sustained_vibration(filtered, 50.0)
        expect = [
            axis not in nan and axis not in dead and filtered[axis].std() > 1e-9
            for axis in range(6)
        ]
        assert usable.tolist() == expect
        stds = [filtered[axis].std() for axis in range(6) if expect[axis]]
        assert bool(sustained) == (max(stds, default=0.0) >= 50.0)
