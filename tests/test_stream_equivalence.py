"""Streaming-vs-batch bitwise equivalence (DESIGN.md §4j).

The contract under test: every streaming primitive in
:mod:`repro.stream` produces *bit-identical* float64 outputs to its
batch counterpart for **any** partition of the input into chunks —
including 1-sample chunks and uneven tails.  No tolerances anywhere in
this file: every comparison is exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PreprocessConfig, StreamConfig
from repro.dsp.detection import detect_onset
from repro.dsp.filters import design_highpass, normalized_sections, sosfilt
from repro.errors import OnsetNotFoundError
from repro.stream import StreamingOnsetDetector, StreamingSOSFilter, StreamSession

# Chunk-size lists; the stream is cut by cycling through them, so a
# single-element list like [7] also exercises the uneven final tail.
chunk_plans = st.lists(st.integers(1, 97), min_size=1, max_size=12)


def cuts(total: int, plan: list[int]) -> list[tuple[int, int]]:
    """Partition ``[0, total)`` by cycling through ``plan`` sizes."""
    spans, pos, i = [], 0, 0
    while pos < total:
        take = min(plan[i % len(plan)], total - pos)
        spans.append((pos, pos + take))
        pos += take
        i += 1
    return spans


@pytest.fixture(scope="module")
def bench_system():
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(num_probes=6)


class TestStreamingFilter:
    @given(chunk_plans, st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_chunked_equals_batch_1d(self, plan, seed):
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=rng.integers(1, 400))
        sos = design_highpass(4, 20.0, 350.0)
        batch = sosfilt(sos, signal)
        stream = StreamingSOSFilter(sos)
        out = np.concatenate(
            [stream.push(signal[a:b]) for a, b in cuts(signal.size, plan)]
        )
        assert out.shape == batch.shape
        assert np.array_equal(out, batch)

    @given(chunk_plans, st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_chunked_equals_batch_multichannel(self, plan, seed):
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=(3, int(rng.integers(1, 300))))
        sos = design_highpass(4, 20.0, 350.0)
        batch = sosfilt(sos, signal)
        stream = StreamingSOSFilter(sos, batch_shape=(3,))
        out = np.concatenate(
            [stream.push(signal[:, a:b]) for a, b in cuts(signal.shape[1], plan)],
            axis=-1,
        )
        assert np.array_equal(out, batch)

    def test_one_sample_chunks(self):
        rng = np.random.default_rng(3)
        signal = rng.normal(size=120)
        sos = design_highpass(4, 20.0, 350.0)
        stream = StreamingSOSFilter(sos)
        out = np.concatenate([stream.push(signal[i : i + 1]) for i in range(120)])
        assert np.array_equal(out, sosfilt(sos, signal))

    def test_reset_restores_zero_state(self):
        rng = np.random.default_rng(4)
        signal = rng.normal(size=64)
        sos = design_highpass(4, 20.0, 350.0)
        stream = StreamingSOSFilter(sos)
        first = stream.push(signal)
        stream.reset()
        assert stream.samples_seen == 0
        assert np.array_equal(stream.push(signal), first)

    def test_shares_batch_coefficient_normalisation(self):
        # Both paths must consume the exact same normalised sections;
        # a second normalisation pass would divide twice.
        sos = design_highpass(4, 20.0, 350.0) * 2.0
        sections = normalized_sections(sos)
        assert sections.shape == (len(sos), 6) and (sections[:, 3] == 1.0).all()
        rng = np.random.default_rng(5)
        signal = rng.normal(size=50)
        stream = StreamingSOSFilter(sos)
        assert np.array_equal(stream.push(signal), sosfilt(sos, signal))


class TestStreamingOnsetDetector:
    @given(plan=chunk_plans, trial=st.integers(0, 200))
    @settings(max_examples=30)
    def test_recorded_vibrations(self, population, recorder, plan, trial):
        recording = recorder.record(
            population[trial % len(population)], trial_index=trial
        )
        config = PreprocessConfig()
        batch_onset = detect_onset(recording, config)
        detector = StreamingOnsetDetector(config)
        onset = None
        for a, b in cuts(recording.shape[0], plan):
            onset = detector.push(recording[a:b])
            if onset is not None:
                break
        if onset is None:
            onset = detector.finish()
        assert onset == batch_onset

    @given(chunk_plans, st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_synthetic_and_quiet_streams(self, plan, seed):
        # Mixed population: bursts that trigger the rule, near-silence
        # that must not — the streaming verdict must match batch
        # detection *including* the not-found case.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 400))
        recording = rng.normal(scale=50.0, size=(n, 6))
        if rng.random() < 0.7:
            at = int(rng.integers(0, max(n - 40, 1)))
            recording[at : at + 40] += rng.normal(
                scale=2000.0, size=(min(40, n - at), 6)
            )
        config = PreprocessConfig()
        try:
            expected = detect_onset(recording, config)
        except OnsetNotFoundError:
            expected = None
        detector = StreamingOnsetDetector(config)
        onset = None
        for a, b in cuts(n, plan):
            onset = detector.push(recording[a:b])
            if onset is not None:
                break
        if onset is None:
            onset = detector.finish()
        assert onset == expected

    def test_one_sample_chunks(self, recording):
        batch_onset = detect_onset(recording)
        detector = StreamingOnsetDetector()
        onset = None
        for i in range(recording.shape[0]):
            onset = detector.push(recording[i : i + 1])
            if onset is not None:
                break
        assert onset == batch_onset

    def test_onset_is_latched(self, recording):
        detector = StreamingOnsetDetector()
        onset = detector.push(recording)
        assert onset is not None
        # Further pushes and finish() keep reporting the same onset.
        assert detector.push(recording[:5]) == onset
        assert detector.finish() == onset


class TestEndToEndSession:
    """The headline property: the final VerificationResult is bitwise
    equal to the batch pipeline's, for every tested chunk partition."""

    @given(plan=chunk_plans, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15)
    def test_decision_bitwise_equals_batch_verify(
        self, bench_system, plan, seed
    ):
        system, user_id, probes = bench_system
        probe = probes[seed % len(probes)]
        batch = system.verify(user_id, probe)
        session = StreamSession(
            user_id,
            system=system,
            config=StreamConfig(cooldown_samples=10**9),
        )
        decisions = []
        for a, b in cuts(probe.shape[0], plan):
            decisions += session.push(probe[a:b])
        decisions += session.close()
        assert len(decisions) == 1
        result = decisions[0].result
        assert result is not None
        assert result.distance == batch.distance
        assert result.accepted == batch.accepted
        assert result.threshold == batch.threshold

    def test_one_sample_chunks_end_to_end(self, bench_system):
        system, user_id, probes = bench_system
        probe = probes[0]
        batch = system.verify(user_id, probe)
        session = StreamSession(
            user_id,
            system=system,
            config=StreamConfig(cooldown_samples=10**9),
        )
        decisions = []
        for i in range(probe.shape[0]):
            decisions += session.push(probe[i : i + 1])
        decisions += session.close()
        assert len(decisions) == 1
        assert decisions[0].result.distance == batch.distance

    def test_partition_invariance_across_plans(self, bench_system):
        # Two arbitrary partitions of the same stream: identical
        # decisions, onsets, windows, and state traces.
        system, user_id, probes = bench_system
        stream = np.concatenate([probes[0], probes[1]], axis=0)
        outcomes = []
        for plan in ([1], [35], [17, 3, 94]):
            session = StreamSession(
                user_id,
                system=system,
                config=StreamConfig(cooldown_samples=105),
            )
            decisions = []
            for a, b in cuts(stream.shape[0], plan):
                decisions += session.push(stream[a:b])
            decisions += session.close()
            outcomes.append(
                (
                    [
                        (d.onset, d.window_start, d.window_end, d.result.distance)
                        for d in decisions
                    ],
                    session.trace,
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]
