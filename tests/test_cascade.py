"""Early-exit cascade (:mod:`repro.cascade`, DESIGN.md §4k).

Covers the four pieces and their integration surface:

* ``CascadeConfig`` validation (inverted bands rejected);
* ``ExitPolicy`` band routing + deterministic audit sampling, with a
  hypothesis property pinning band-widening monotonicity;
* ``Stage1Gate`` scorers (features / cnn) and lifecycle;
* post-training quantization (int8 / float16) bounds and the
  ``QuantizedExtractor`` stage-2 protocol;
* the system facade: disabled-default bitwise parity, exit-provenance
  accounting, forced-full audit parity, stage-1 fault fallback, and
  the serving / streaming integration points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.cascade import (
    ROUTE_ACCEPT,
    ROUTE_BORDERLINE,
    ROUTE_FORCED,
    ROUTE_REJECT,
    ExitPolicy,
    QuantizedExtractor,
    Stage1Gate,
    calibrate_cascade,
    quantize_state,
)
from repro.config import (
    CascadeConfig,
    ExtractorConfig,
    InferenceConfig,
    MandiPassConfig,
    SecurityConfig,
    StreamConfig,
)
from repro.core.extractor import TwoBranchExtractor
from repro.core.system import MandiPass
from repro.errors import ConfigError, ModelError, VerificationError
from repro.faults.plan import FaultPlan, FaultRule
from repro.imu import Recorder
from repro.physio import sample_population

#: Band that exits essentially everything on the synthetic substrate
#: (genuine z-scores land near 1, impostors near 6).
TIGHT_BAND = {"t_accept": 1.2, "t_reject": 2.5}


def build_system(
    stage1: str = "features",
    enabled: bool = True,
    quantization: str = "none",
    **cascade_kwargs,
) -> MandiPass:
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(
            template_dim=64, projected_dim=64, matrix_seed=1
        ),
        inference=InferenceConfig(stage2_quantization=quantization),
        cascade=CascadeConfig(
            enabled=enabled, stage1=stage1, **cascade_kwargs
        ),
    )
    model = TwoBranchExtractor(
        extractor_config, num_classes=4, seed=0
    ).eval()
    return MandiPass(model, config=config)


@pytest.fixture(scope="module")
def probes():
    """(enroll, genuine, impostor) recording pools, deterministic."""
    population = sample_population(4, 1, seed=0)
    recorder = Recorder(seed=1)
    enroll = [recorder.record(population[0], trial_index=i) for i in range(4)]
    genuine = [
        recorder.record(population[0], trial_index=10 + i) for i in range(6)
    ]
    impostor = [
        recorder.record(population[1 + i % 3], trial_index=10 + i)
        for i in range(6)
    ]
    return enroll, genuine, impostor


# -- config validation ----------------------------------------------------


class TestCascadeConfig:
    def test_disabled_by_default(self):
        assert CascadeConfig().enabled is False

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError, match="inverted exit band"):
            CascadeConfig(t_accept=0.8, t_reject=0.2)

    def test_degenerate_band_allowed(self):
        CascadeConfig(t_accept=0.5, t_reject=0.5)

    def test_unknown_stage1_rejected(self):
        with pytest.raises(ConfigError):
            CascadeConfig(stage1="transformer")

    def test_forced_fraction_bounds(self):
        with pytest.raises(ConfigError):
            CascadeConfig(forced_full_fraction=1.5)


# -- exit policy ----------------------------------------------------------


class TestExitPolicy:
    def test_band_routing_closed_accept_open_reject_edge(self):
        policy = ExitPolicy(
            CascadeConfig(enabled=True, t_accept=1.0, t_reject=2.0)
        )
        routes = policy.route(np.array([0.2, 1.0, 1.5, 2.0, 9.0]))
        assert routes.tolist() == [
            ROUTE_ACCEPT,
            ROUTE_ACCEPT,
            ROUTE_BORDERLINE,
            ROUTE_BORDERLINE,
            ROUTE_REJECT,
        ]

    def test_degenerate_band_accept_edge_wins(self):
        policy = ExitPolicy(
            CascadeConfig(enabled=True, t_accept=1.0, t_reject=1.0)
        )
        assert policy.route(np.array([1.0]))[0] == ROUTE_ACCEPT

    def test_forced_stride_is_deterministic_and_batch_invariant(self):
        config = CascadeConfig(
            enabled=True, t_accept=1.0, t_reject=2.0,
            forced_full_fraction=0.5,
        )
        scores = np.full(8, 0.1)  # all would exit as accepts
        one_batch = ExitPolicy(config).route(scores)
        split = ExitPolicy(config)
        two_batches = np.concatenate(
            [split.route(scores[:3]), split.route(scores[3:])]
        )
        assert one_batch.tolist() == two_batches.tolist()
        assert int((one_batch == ROUTE_FORCED).sum()) == 4

    def test_forced_fraction_one_forces_everything(self):
        policy = ExitPolicy(
            CascadeConfig(
                enabled=True, t_accept=1.0, t_reject=2.0,
                forced_full_fraction=1.0,
            )
        )
        assert (policy.route(np.array([0.1, 1.5, 9.0])) == ROUTE_FORCED).all()

    def test_retune_revalidates(self):
        policy = ExitPolicy(CascadeConfig(enabled=True))
        policy.retune(0.3, 1.1)
        assert (policy.t_accept, policy.t_reject) == (0.3, 1.1)
        with pytest.raises(ConfigError, match="inverted exit band"):
            policy.retune(1.1, 0.3)
        # a failed retune leaves the previous band installed
        assert (policy.t_accept, policy.t_reject) == (0.3, 1.1)


class TestExitMonotonicity:
    """Widening the borderline band never flips a surviving exit."""

    @given(
        scores=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=32
        ),
        t_accept=st.floats(0.0, 5.0, allow_nan=False),
        gap=st.floats(0.0, 5.0, allow_nan=False),
        widen_accept=st.floats(0.0, 5.0, allow_nan=False),
        widen_reject=st.floats(0.0, 5.0, allow_nan=False),
    )
    # A score on both edges of a degenerate band, accept edge widened:
    # a closed reject edge turned the narrow band's accept into a reject.
    @example(scores=[1.0], t_accept=1.0, gap=0.0, widen_accept=1.0, widen_reject=0.0)
    def test_widening_only_moves_probes_into_stage2(
        self, scores, t_accept, gap, widen_accept, widen_reject
    ):
        t_reject = t_accept + gap
        narrow = ExitPolicy(
            CascadeConfig(
                enabled=True, t_accept=t_accept, t_reject=t_reject
            )
        )
        wide = ExitPolicy(
            CascadeConfig(
                enabled=True,
                t_accept=max(0.0, t_accept - widen_accept),
                t_reject=t_reject + widen_reject,
            )
        )
        values = np.asarray(scores)
        narrow_routes = narrow.route(values)
        wide_routes = wide.route(values)
        # Every exit that survives the widening keeps its decision;
        # the only other legal transition is exit -> borderline.
        surviving = wide_routes != ROUTE_BORDERLINE
        assert (wide_routes[surviving] == narrow_routes[surviving]).all()
        moved = wide_routes != narrow_routes
        assert (wide_routes[moved] == ROUTE_BORDERLINE).all()


# -- stage-1 scorers ------------------------------------------------------


class TestStage1Gate:
    def _signals(self, system, recordings):
        signals, _, _, _ = system.preprocessor.process_batch_detailed(
            recordings,
            min_usable_axes=system.config.resilience.min_usable_axes,
        )
        return signals

    def test_features_scorer_separates_population(self, probes):
        enroll, genuine, impostor = probes
        system = build_system("features")
        system.enroll("alice", enroll)
        gate = system.cascade_gate
        assert gate.has_user("alice")
        genuine_scores = gate.scores("alice", self._signals(system, genuine))
        impostor_scores = gate.scores("alice", self._signals(system, impostor))
        assert genuine_scores.max() < impostor_scores.min()

    def test_cnn_scorer_bounded_cosine(self, probes):
        enroll, genuine, _ = probes
        system = build_system("cnn")
        system.enroll("alice", enroll)
        scores = system.cascade_gate.scores(
            "alice", self._signals(system, genuine)
        )
        assert np.isfinite(scores).all()
        assert (scores >= 0.0).all() and (scores <= 2.0).all()

    def test_fit_requires_signals(self):
        system = build_system()
        with pytest.raises(VerificationError):
            system.cascade_gate.fit_user("alice", np.empty((0, 6, 105)))

    def test_unknown_user_raises(self, probes):
        _, genuine, _ = probes
        system = build_system()
        with pytest.raises(VerificationError):
            system.cascade_gate.scores(
                "nobody", self._signals(system, genuine)
            )

    def test_revoke_drops_gate_reference(self, probes):
        enroll, _, _ = probes
        system = build_system()
        system.enroll("alice", enroll)
        assert system.cascade_gate.has_user("alice")
        system.revoke("alice")
        assert not system.cascade_gate.has_user("alice")


# -- quantization ---------------------------------------------------------


class TestQuantization:
    def test_int8_roundtrip_error_bounded_per_channel(self):
        model = TwoBranchExtractor(
            ExtractorConfig(embedding_dim=64, channels=(4, 8, 16)),
            num_classes=4,
            seed=0,
        )
        state = model.state_dict()
        quantized = quantize_state(state, "int8")
        for name, original in state.items():
            tensor = quantized[name]
            recovered = tensor.dequantize()
            if original.ndim >= 2:
                assert tensor.data.dtype == np.int8
                flat = original.reshape(original.shape[0], -1)
                bound = np.abs(flat).max(axis=1) / 127.0 * 0.5 + 1e-12
                err = np.abs(recovered - original).reshape(
                    original.shape[0], -1
                ).max(axis=1)
                assert (err <= bound).all()
            else:
                # 1-D params are stored as float32 under the int8 scheme
                np.testing.assert_allclose(
                    recovered, original, rtol=1e-6, atol=1e-7
                )

    def test_unknown_scheme_rejected(self):
        model = TwoBranchExtractor(
            ExtractorConfig(embedding_dim=64, channels=(4, 8, 16)),
            num_classes=4,
            seed=0,
        )
        with pytest.raises(ModelError):
            quantize_state(model.state_dict(), "int4")

    def test_extractor_protocol_and_compression(self):
        model = TwoBranchExtractor(
            ExtractorConfig(embedding_dim=64, channels=(4, 8, 16)),
            num_classes=4,
            seed=0,
        ).eval()
        for scheme, min_ratio in (("int8", 3.0), ("float16", 1.9)):
            quantized = QuantizedExtractor(model, scheme)
            ratio = model.storage_nbytes() / quantized.storage_nbytes()
            assert ratio >= min_ratio
            assert quantized.training is False
            assert quantized.eval() is quantized
            with pytest.raises(ModelError):
                quantized.train()

    def test_quantized_embeddings_track_float(self, probes):
        enroll, genuine, _ = probes
        baseline = build_system(enabled=False)
        baseline.enroll("alice", enroll)
        base = baseline.verify_many("alice", genuine)
        for scheme, tolerance in (("int8", 0.05), ("float16", 1e-2)):
            system = build_system(enabled=False, quantization=scheme)
            system.enroll("alice", enroll)
            results = system.verify_many("alice", genuine)
            drift = max(
                abs(q.distance - b.distance) for q, b in zip(results, base)
            )
            assert drift < tolerance

    def test_engine_rejects_unknown_quantization(self):
        with pytest.raises(ConfigError):
            build_system(enabled=False, quantization="int4")


# -- system facade --------------------------------------------------------


class TestCascadeSystem:
    def test_disabled_is_bitwise_identical(self, probes):
        enroll, genuine, impostor = probes
        plain = build_system(enabled=False)
        disabled = build_system(enabled=False)
        plain.enroll("alice", enroll)
        disabled.enroll("alice", enroll)
        queue = genuine + impostor
        for a, b in zip(
            plain.verify_many("alice", queue),
            disabled.verify_many("alice", queue),
        ):
            assert a.distance == b.distance
            assert a.accepted == b.accepted
            assert b.exit_stage == "full"

    def test_all_borderline_band_matches_full_pipeline(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(t_accept=0.0, t_reject=1e9)
        system.enroll("alice", enroll)
        queue = genuine + impostor
        cascade = system.verify_many("alice", queue)
        full = system.verify_many("alice", queue, full_pipeline=True)
        for c, f in zip(cascade, full):
            assert c.distance == f.distance
            assert c.accepted == f.accepted
            assert c.exit_stage == "stage2"
            assert f.exit_stage == "full"

    def test_exit_accounting_covers_every_probe(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        queue = genuine + impostor + [np.zeros((210, 6))]
        with obs.collecting() as registry:
            results = system.verify_many("alice", queue)
            snapshot = registry.to_dict()
        exits = {
            key.split('stage="', 1)[1].rstrip('"}'): int(value)
            for key, value in snapshot["counters"].items()
            if key.startswith("cascade_exits_total{stage=")
        }
        assert sum(exits.values()) == len(queue)
        assert exits.get("stage1_accept", 0) >= len(genuine) - 1
        assert exits.get("stage1_reject", 0) >= len(impostor) - 1
        assert exits.get("refused", 0) == 1
        stages = [r.exit_stage for r in results]
        assert stages[-1] == "refused"
        assert set(stages) <= {"stage1", "stage2", "refused"}

    def test_stage1_exits_decide_correctly(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        for result in system.verify_many("alice", genuine):
            if result.exit_stage == "stage1":
                assert result.accepted
        for result in system.verify_many("alice", impostor):
            if result.exit_stage == "stage1":
                assert not result.accepted

    def test_forced_full_audit_matches_full_pipeline(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(forced_full_fraction=1.0, **TIGHT_BAND)
        system.enroll("alice", enroll)
        queue = genuine + impostor
        forced = system.verify_many("alice", queue)
        full = system.verify_many("alice", queue, full_pipeline=True)
        for a, b in zip(forced, full):
            assert a.exit_stage == "stage2_forced"
            assert a.distance == b.distance
            assert a.accepted == b.accepted

    def test_stage1_fault_degrades_to_full_pipeline(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        queue = genuine + impostor
        baseline = system.verify_many("alice", queue, full_pipeline=True)
        rule = FaultRule("cascade.stage1", "error")
        with obs.collecting() as registry:
            with FaultPlan([rule], seed=0).active():
                degraded = system.verify_many("alice", queue)
            snapshot = registry.to_dict()
        for d, b in zip(degraded, baseline):
            assert d.exit_stage == "full"
            assert d.distance == b.distance
            assert d.accepted == b.accepted
        key = 'cascade_exits_total{stage="fallback_full"}'
        assert snapshot["counters"][key] == len(queue)

    def test_retune_requires_enabled_cascade(self, probes):
        system = build_system(enabled=False)
        with pytest.raises(ConfigError):
            system.retune_cascade(0.1, 2.0)
        enabled = build_system()
        enabled.retune_cascade(0.9, 3.0)
        assert enabled.cascade_policy.t_accept == 0.9

    def test_model_bytes_gauges_published(self):
        with obs.collecting() as registry:
            build_system(enabled=False, quantization="int8")
            snapshot = registry.to_dict()
        gauges = snapshot["gauges"]
        float_bytes = gauges['model_bytes{dtype="float32"}']
        int8_bytes = gauges['model_bytes{dtype="int8"}']
        assert float_bytes > int8_bytes > 0


# -- calibration ----------------------------------------------------------


class TestCalibration:
    def test_calibrated_band_is_feasible_on_substrate(self, probes):
        enroll, genuine, impostor = probes
        system = build_system(epsilon_far=0.25, epsilon_frr=0.25)
        system.enroll("alice", enroll)
        calibration = calibrate_cascade(
            system, "alice", genuine, impostor, grid_size=6
        )
        assert calibration.feasible
        assert 0.0 <= calibration.exit_fraction <= 1.0
        assert calibration.t_reject >= calibration.t_accept
        assert calibration.points
        system.retune_cascade(calibration.t_accept, calibration.t_reject)
        results = system.verify_many("alice", genuine + impostor)
        assert all(r.exit_stage in ("stage1", "stage2") for r in results)


# -- serving integration --------------------------------------------------


class TestServeCascade:
    def test_full_pipeline_requests_batch_separately(self):
        from repro.serve.server import ServeRequest

        def request(full_pipeline):
            return ServeRequest(
                kind="verify",
                user_id="alice",
                recording=None,
                future=None,
                deadline=None,
                submitted_at=0.0,
                full_pipeline=full_pipeline,
            )

        assert request(False).key != request(True).key
        assert request(False).key == request(False).key

    def test_server_threads_full_pipeline_flag(self, probes):
        from repro.serve import AuthServer

        enroll, genuine, _ = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        server = AuthServer(system).start()
        try:
            via_stage1 = server.verify("alice", genuine[0]).result(timeout=30)
            bypassed = server.verify(
                "alice", genuine[0], full_pipeline=True
            ).result(timeout=30)
        finally:
            server.stop()
        assert via_stage1.exit_stage == "stage1"
        assert bypassed.exit_stage == "full"
        assert via_stage1.accepted and bypassed.accepted


# -- streaming integration ------------------------------------------------


class TestStreamStage1:
    def test_clear_windows_decided_locally(self, probes):
        from repro.stream import StreamSession

        enroll, genuine, _ = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        stream = np.concatenate(genuine[:3], axis=0)
        config = StreamConfig(cooldown_samples=105, local_stage1=True)
        with obs.collecting() as registry:
            session = StreamSession("alice", system=system, config=config)
            decisions = []
            for pos in range(0, stream.shape[0], config.chunk_size):
                decisions += session.push(
                    stream[pos : pos + config.chunk_size]
                )
            decisions += session.close()
            snapshot = registry.to_dict()
        assert decisions
        local_exits = sum(
            int(value)
            for key, value in snapshot["counters"].items()
            if key.startswith("stream_stage1_exits_total")
        )
        assert local_exits >= 1
        for decision in decisions:
            if decision.result is not None:
                assert decision.result.accepted
                assert decision.result.exit_stage in ("stage1", "stage2")

    def test_local_stage1_off_uses_backend_path(self, probes):
        from repro.stream import StreamSession

        enroll, genuine, _ = probes
        system = build_system(**TIGHT_BAND)
        system.enroll("alice", enroll)
        stream = np.concatenate(genuine[:2], axis=0)
        config = StreamConfig(cooldown_samples=105, local_stage1=False)
        with obs.collecting() as registry:
            session = StreamSession("alice", system=system, config=config)
            decisions = []
            for pos in range(0, stream.shape[0], config.chunk_size):
                decisions += session.push(
                    stream[pos : pos + config.chunk_size]
                )
            decisions += session.close()
            snapshot = registry.to_dict()
        assert decisions
        assert not any(
            key.startswith("stream_stage1_exits_total")
            for key in snapshot["counters"]
        )
