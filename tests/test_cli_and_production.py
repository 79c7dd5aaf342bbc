"""CLI and production-model caching tests."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import ExtractorConfig
from repro.datasets.cache import DatasetCache
from repro.datasets.standard import concat_datasets, generate_hired_corpus
from repro.errors import ConfigError
from repro.eval.production import get_production_model


class TestCLI:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "MandiPass" in out
        assert "350 Hz" in out

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_flags_parsed(self):
        args = build_parser().parse_args(["train", "--people", "8", "--epochs", "2"])
        assert args.people == 8 and args.epochs == 2 and not args.force

    def test_scenario_bench_reports_claims(self, monkeypatch, capsys):
        """The command prints every claim and exits on their conjunction."""
        import repro.eval.scenarios as scenarios

        claims = {
            "hostile_cell": "walk/noisy",
            "hostile_imu_eer": 0.2,
            "hostile_fused_eer": 0.1,
            "matrix_full": True,
            "fused_beats_imu_in_hostile_cell": True,
            "fused_no_worse_in_clean": True,
            "replay_blocked_by_fusion": True,
            "mimicry_no_worse_fused": True,
        }
        report = {
            "calibration": {
                "imu_threshold": 0.4,
                "heartbeat_threshold": 0.5,
                "fusion_weights": {"imu": 0.7, "heartbeat": 0.3},
            },
            "matrix": [{
                "scenario": "still/clean",
                "modalities": {m: {"eer": 0.05}
                               for m in ("imu", "heartbeat", "fused")},
            }],
            "attacks": [{
                "attack": "replay",
                "far": {"imu": 0.9, "heartbeat": 0.0, "fused": 0.0},
            }],
            "claims": claims,
        }
        calls = []

        def fake_bench(quick, output, seed):
            calls.append((quick, output, seed))
            return report

        monkeypatch.setattr(scenarios, "run_scenario_bench", fake_bench)
        assert main(["scenario-bench", "--quick", "--output", ""]) == 0
        assert calls == [(True, None, 0)]
        out = capsys.readouterr().out
        assert "mimicry_no_worse_fused" in out and "FAIL" not in out

        claims["replay_blocked_by_fusion"] = False
        assert main(["scenario-bench", "--quick", "--output", ""]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestProductionModelCache:
    def test_train_and_reload_identical(self, tmp_path):
        cache = DatasetCache(tmp_path)
        config = ExtractorConfig(embedding_dim=32, channels=(2, 4, 8))
        kwargs = dict(
            cache=cache,
            num_people=6,
            nominal_trials=4,
            condition_trials=1,
            epochs=2,
            extractor_config=config,
        )
        first = get_production_model(**kwargs)
        # A second call must load from disk, bit-identical.
        second = get_production_model(**kwargs)
        for p1, p2 in zip(first.parameters(), second.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_force_retrain_gives_same_weights(self, tmp_path):
        """Training is deterministic in the seed, so retraining matches."""
        cache = DatasetCache(tmp_path)
        config = ExtractorConfig(embedding_dim=32, channels=(2, 4, 8))
        kwargs = dict(
            cache=cache,
            num_people=6,
            nominal_trials=4,
            condition_trials=1,
            epochs=2,
            extractor_config=config,
        )
        first = get_production_model(**kwargs)
        second = get_production_model(force_retrain=True, **kwargs)
        for p1, p2 in zip(first.parameters(), second.parameters()):
            np.testing.assert_allclose(p1.data, p2.data)


class TestHiredCorpus:
    def test_corpus_contains_conditions(self, tmp_path):
        corpus = generate_hired_corpus(
            num_people=4, nominal_trials=3, condition_trials=1,
            cache=DatasetCache(tmp_path),
        )
        # nominal (3 trials x 3 offsets) + 7 conditions x 1 trial x 3
        # offsets per person, minus any preprocessing drops.
        per_person = np.bincount(corpus.labels)
        assert per_person.min() > 3 * 3
        assert len(corpus.profiles) == 4

    def test_concat_rejects_different_populations(self, tmp_path):
        from repro.datasets.standard import hired_spec, user_spec

        cache = DatasetCache(tmp_path)
        a = cache.get(hired_spec(num_people=3, trials_per_person=2))
        b = cache.get(user_spec(num_people=3, trials_per_person=2))
        with pytest.raises(ConfigError):
            concat_datasets([a, b])

    def test_concat_offsets_trial_ids(self, tmp_path):
        from repro.datasets.standard import hired_spec
        import dataclasses

        cache = DatasetCache(tmp_path)
        spec = hired_spec(num_people=3, trials_per_person=2)
        a = cache.get(spec)
        b = cache.get(dataclasses.replace(spec, recorder_seed=55))
        merged = concat_datasets([a, b])
        assert len(merged) == len(a) + len(b)
        # Trial ids from the second dataset do not collide with the first.
        assert merged.trial_ids.max() > a.trial_ids.max()

    def test_concat_rejects_empty(self):
        with pytest.raises(ConfigError):
            concat_datasets([])
