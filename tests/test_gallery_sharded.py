"""The sharded gallery subsystem: shards, log, cascade, concurrency.

Four layers of coverage:

* **units** — :class:`MutationLog` FIFO/pop-after-apply semantics,
  :class:`GalleryShard` row mutations (append, overwrite-in-place,
  tombstone, build-then-swap compaction) and shape validation;
* **cascade exactness** — identify through the prescreen + rerank
  cascade is *bitwise* identical to per-user loop scoring: random
  galleries, lazy matrix providers, adversarially loose bounds
  (rank=1, top_k=1), distance ties, the zero-probe all-ties edge case,
  and decisions across revoke / renew / compaction;
* **facade integration** — the system facade's mutation helper feeds
  enroll / revoke / renew / adapt through the mutation log (no O(U)
  invalidation), and identify results track the surviving set;
* **concurrency** — interleaved enroll / revoke / identify threads:
  every decision stays bitwise-loop-exact for the stable population,
  and tombstoned users are never returned once their revocation
  synced.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.config import GalleryConfig
from repro.core.gallery import (
    GalleryMutation,
    GalleryShard,
    MutationLog,
    ShardedGallery,
    TemplateGallery,
)
from repro.core.similarity import cosine_distance
from repro.errors import ShapeError

IN, OUT = 12, 10


def _matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(IN), size=(IN, OUT))


def _template(seed: int) -> np.ndarray:
    return np.random.default_rng(seed ^ 0x5EED).normal(size=OUT)


def _loop_best(probe, users):
    """The per-user dict-loop oracle: strict min, first enrolled wins."""
    probe = np.asarray(probe, dtype=np.float64)
    best = None
    for user_id, (matrix, template) in users.items():
        distance = cosine_distance(
            probe @ np.asarray(matrix, dtype=np.float64),
            np.asarray(template, dtype=np.float64).reshape(-1),
        )
        if best is None or distance < best[1]:
            best = (user_id, distance)
    return best


def _populated(num_users: int, config: GalleryConfig, lazy: bool = False):
    """(gallery, oracle dict) with ``num_users`` synthetic users."""
    gallery = ShardedGallery(config)
    users: dict[str, tuple] = {}
    for index in range(num_users):
        matrix, template = _matrix(index), _template(index)
        source = (lambda m=matrix: m) if lazy else matrix
        gallery.upsert(f"u{index}", source, template)
        users[f"u{index}"] = (matrix, template)
    gallery.sync()
    return gallery, users


def _assert_parity(gallery, users, probes):
    matches = gallery.best_match(probes)
    for probe, match in zip(np.atleast_2d(probes), matches):
        expected = _loop_best(probe, users)
        assert match.user_id == expected[0]
        assert match.distance == expected[1]  # bitwise, not approx


# -- mutation log ----------------------------------------------------------


class TestMutationLog:
    def test_fifo_and_pop_after_apply(self):
        log = MutationLog()
        log.upsert(GalleryMutation(kind="upsert", user_id="a"))
        log.remove(GalleryMutation(kind="remove", user_id="b"), held=lambda _: True)
        assert len(log) == 2
        assert log.peek().user_id == "a"
        assert log.peek().user_id == "a"  # peek does not consume
        log.pop()
        assert log.peek().user_id == "b"
        log.pop()
        assert log.peek() is None
        log.pop()  # popping empty is harmless

    def test_concurrent_appends_all_land(self):
        log = MutationLog()

        def append_users(thread: int) -> None:
            # Distinct users, so no upsert coalesces with another.
            for i in range(100):
                log.upsert(GalleryMutation(kind="upsert", user_id=f"u{thread}-{i}"))

        threads = [
            threading.Thread(target=append_users, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log) == 400


# -- shard rows ------------------------------------------------------------


class TestGalleryShard:
    def test_append_overwrite_kill_compact(self):
        shard = GalleryShard(capacity=3, in_dim=IN, out_dim=OUT, rank=4)
        for index in range(3):
            assert shard.append(
                f"u{index}", _matrix(index), _template(index), seq=index
            ) == index
        assert not shard.has_space
        with pytest.raises(ShapeError):
            shard.append("u3", _matrix(3), _template(3), seq=3)
        # Overwrite in place keeps occupancy and identity.
        shard.write_slot(1, "u1", _matrix(7), _template(7), seq=1)
        assert shard.count == 3 and shard.num_alive == 3
        shard.kill_slot(1)
        assert shard.num_alive == 2 and shard.tombstones == 1
        assert shard.tombstone_ratio() == pytest.approx(1 / 3)
        # Tombstoned scoring state is zeroed so it cannot leak into gemms.
        assert not shard.numer_block()[:, 1].any()
        assert not shard.tail_dir_block()[:, 1].any()
        assert not shard.prescreen_block()[:, 4:8].any()
        with pytest.raises(ShapeError):
            shard.matrix_for(1)
        compacted = shard.compacted()
        assert compacted.count == 2 and compacted.tombstones == 0
        assert compacted.user_ids[:2] == ["u0", "u2"]
        assert list(compacted.seq[:2]) == [0, 2]  # seq survives the move
        # Build-then-swap: the original is untouched.
        assert shard.count == 3 and shard.tombstones == 1

    def test_shape_validation(self):
        shard = GalleryShard(capacity=2, in_dim=IN, out_dim=OUT, rank=4)
        with pytest.raises(ShapeError):
            shard.append("u", np.zeros((IN, OUT + 1)), _template(0), seq=0)
        with pytest.raises(ShapeError):
            shard.append("u", _matrix(0), np.zeros(OUT + 2), seq=0)
        with pytest.raises(ShapeError):
            GalleryShard(capacity=0, in_dim=IN, out_dim=OUT, rank=4)

    def test_tail_direction_column(self):
        shard = GalleryShard(capacity=3, in_dim=IN, out_dim=OUT, rank=4)
        head_only = _template(1)
        head_only[4:] = 0.0
        shard.append("u0", _matrix(0), _template(0), seq=0)
        shard.append("u1", _matrix(1), head_only, seq=1)
        shard.append("u2", _matrix(2), np.zeros(OUT), seq=2)
        tail = _template(0)[4:]
        np.testing.assert_allclose(
            shard.tail_dir_block()[:, 0],
            _matrix(0)[:, 4:] @ (tail / np.linalg.norm(tail)),
            rtol=1e-12,
        )
        # No tail energy in the template: no tail direction.
        assert not shard.tail_dir_block()[:, 1:].any()
        full_rank = GalleryShard(capacity=1, in_dim=IN, out_dim=OUT, rank=OUT)
        full_rank.append("u0", _matrix(0), _template(0), seq=0)
        assert not full_rank.tail_dir_block().any()
        # Compaction rebuilds the block; nbytes counts it.
        shard.kill_slot(0)
        np.testing.assert_array_equal(
            shard.compacted().tail_dir_block(), shard.tail_dir_block()[:, 1:]
        )
        assert shard.nbytes() >= shard._tail_dir.nbytes + shard._numer.nbytes

    def test_rank_capped_at_out_dim(self):
        shard = GalleryShard(capacity=2, in_dim=IN, out_dim=OUT, rank=99)
        assert shard.rank == OUT


# -- cascade exactness -----------------------------------------------------


class TestCascadeExactness:
    CONFIG = GalleryConfig(shard_size=4, top_k=2, prescreen_rank=3)

    def test_bitwise_parity_with_loop(self):
        gallery, users = _populated(11, self.CONFIG)
        probes = np.random.default_rng(1).normal(size=(6, IN))
        _assert_parity(gallery, users, probes)

    def test_parity_with_lazy_matrix_providers(self):
        gallery, users = _populated(9, self.CONFIG, lazy=True)
        probes = np.random.default_rng(2).normal(size=(4, IN))
        _assert_parity(gallery, users, probes)

    def test_parity_under_adversarially_loose_bounds(self):
        # rank=1 makes the prescreen bound as weak as it can be and
        # top_k=1 the seed minimal: correctness must come entirely from
        # the soundness expansion, whatever the cost.
        gallery, users = _populated(
            13, GalleryConfig(shard_size=3, top_k=1, prescreen_rank=1)
        )
        probes = np.random.default_rng(3).normal(size=(5, IN))
        _assert_parity(gallery, users, probes)

    def test_distance_tie_first_enrolled_wins(self):
        gallery = ShardedGallery(self.CONFIG)
        matrix, template = _matrix(0), _template(0)
        # Identical rows: every distance ties bitwise; the loop keeps
        # the first enrolled, so must the cascade.
        for name in ("first", "second", "third"):
            gallery.upsert(name, matrix, template)
        probe = np.random.default_rng(4).normal(size=IN)
        assert gallery.best_match(probe)[0].user_id == "first"
        # After revoking the winner the tie resolves to the next oldest.
        gallery.remove("first")
        assert gallery.best_match(probe)[0].user_id == "second"

    def test_zero_probe_matches_loop(self):
        gallery, users = _populated(5, self.CONFIG)
        match = gallery.best_match(np.zeros(IN))[0]
        expected = _loop_best(np.zeros(IN), users)
        assert (match.user_id, match.distance) == expected
        assert match.distance == 1.0

    def test_zero_template_user_is_never_spuriously_matched(self):
        gallery, users = _populated(4, self.CONFIG)
        gallery.upsert("zero", _matrix(50), np.zeros(OUT))
        users["zero"] = (_matrix(50), np.zeros(OUT))
        probes = np.random.default_rng(5).normal(size=(3, IN))
        _assert_parity(gallery, users, probes)

    def test_revoked_user_never_returned(self):
        gallery, users = _populated(8, self.CONFIG)
        probes = np.random.default_rng(6).normal(size=(40, IN))
        for probe in probes:
            winner = gallery.best_match(probe)[0].user_id
            gallery.remove(winner)
            users.pop(winner)
            if not users:
                assert gallery.best_match(probe)[0] is None
                break
            _assert_parity(gallery, users, probe[None, :])

    def test_renew_overwrites_in_place(self):
        gallery, users = _populated(6, self.CONFIG)
        before = gallery.stats()
        gallery.upsert("u2", _matrix(77), _template(77))
        users["u2"] = (_matrix(77), _template(77))
        gallery.sync()
        after = gallery.stats()
        assert after["users"] == before["users"]
        assert after["shards"] == before["shards"]
        assert after["tombstones"] == before["tombstones"] == 0
        _assert_parity(
            gallery, users, np.random.default_rng(7).normal(size=(4, IN))
        )

    def test_compaction_preserves_decisions_bitwise(self):
        config = GalleryConfig(
            shard_size=4, top_k=2, prescreen_rank=3, compact_tombstone_ratio=0.2
        )
        gallery, users = _populated(12, config)
        probes = np.random.default_rng(8).normal(size=(5, IN))
        for victim in ("u1", "u2", "u5", "u9"):
            gallery.remove(victim)
            users.pop(victim)
        gallery.sync()
        assert gallery.compactions >= 1
        assert gallery.stats()["tombstones"] == 0
        _assert_parity(gallery, users, probes)

    def test_revoke_reenroll_moves_to_back_of_tie_order(self):
        gallery = ShardedGallery(self.CONFIG)
        matrix, template = _matrix(0), _template(0)
        for name in ("a", "b"):
            gallery.upsert(name, matrix, template)
        probe = np.random.default_rng(9).normal(size=IN)
        assert gallery.best_match(probe)[0].user_id == "a"
        # dict-order parity: pop + re-insert moves "a" behind "b".
        gallery.remove("a")
        gallery.upsert("a", matrix, template)
        assert gallery.best_match(probe)[0].user_id == "b"

    def test_empty_and_shape_errors(self):
        gallery = ShardedGallery(self.CONFIG)
        assert gallery.best_match(np.zeros((2, IN))) == [None, None]
        populated, _ = _populated(3, self.CONFIG)
        with pytest.raises(ShapeError):
            populated.best_match(np.zeros((1, IN + 1)))

    def test_score_threads_path_matches_inline(self):
        threaded, users = _populated(
            10,
            GalleryConfig(
                shard_size=3, top_k=2, prescreen_rank=3, score_threads=2
            ),
        )
        probes = np.random.default_rng(10).normal(size=(4, IN))
        _assert_parity(threaded, users, probes)
        threaded.close()
        threaded.close()  # idempotent

    def test_exact_distances_batch_matches_loop(self):
        gallery, users = _populated(7, self.CONFIG)
        probes = np.random.default_rng(11).normal(size=(3, IN))
        user_ids, distances = gallery.exact_distances_batch(probes)
        assert user_ids == [f"u{i}" for i in range(7)]
        for row, probe in enumerate(probes):
            for column, user_id in enumerate(user_ids):
                matrix, template = users[user_id]
                assert distances[row, column] == cosine_distance(
                    probe @ matrix, template
                )

    def test_users_listed_in_enrollment_order(self):
        gallery, _ = _populated(9, self.CONFIG)
        gallery.remove("u4")
        gallery.sync()
        assert gallery.users() == [
            f"u{i}" for i in range(9) if i != 4
        ]

    def test_sync_gauges_and_mutation_counters(self):
        with obs.collecting() as registry:
            gallery, _ = _populated(5, self.CONFIG)
            gallery.remove("u0")
            gallery.sync()
            assert registry.gauge("gallery_users").value == 4
            assert registry.gauge("gallery_shards").value == 2
            assert (
                registry.counter("gallery_mutations_total", kind="upsert").value
                == 5
            )
            assert (
                registry.counter("gallery_mutations_total", kind="remove").value
                == 1
            )

    def test_dense_gallery_still_importable_from_package(self):
        # The dense generation stays the exact full-scoring reference.
        matrices = [_matrix(i) for i in range(3)]
        templates = [_template(i) for i in range(3)]
        dense = TemplateGallery(
            user_ids=["a", "b", "c"], matrices=matrices, templates=templates
        )
        assert dense.num_users == 3


# -- facade integration ----------------------------------------------------


@pytest.fixture(scope="module")
def facade():
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(
        dtype="float32",
        num_probes=6,
        gallery=GalleryConfig(shard_size=2, top_k=1, prescreen_rank=4),
    )


class TestFacadeIntegration:
    def test_mutations_are_incremental_not_invalidating(self, facade):
        system, user_id, probes = facade
        system.reset_gallery()
        assert system.identify_many(probes[:1])[0] is not None
        gallery = system._gallery
        system.enroll("incr", list(probes[:3]), transform_seed=601)
        # The instance survives the mutation (no invalidate-and-rebuild);
        # the change is a pending log entry until the next identify.
        assert system._gallery is gallery
        assert gallery.pending == 1
        system.identify_many(probes[:1])
        assert gallery.pending == 0
        assert "incr" in gallery.users()
        system.revoke("incr")
        assert system._gallery is gallery
        system.identify_many(probes[:1])
        assert "incr" not in gallery.users()

    def test_adapt_template_updates_gallery_row(self, facade):
        system, user_id, probes = facade
        system.reset_gallery()
        system.identify_many(probes[:1])
        gallery = system._gallery
        if system.adapt_template(user_id, probes[0], rate=0.2):
            assert system._gallery is gallery  # overwrite, not rebuild
            system.identify_many(probes[:1])
            row = gallery._index[user_id]
            stored = gallery._shards[row[0]].template_for(row[1])
            sealed = system.stored_template(user_id)
            np.testing.assert_array_equal(stored, sealed)

    def test_identify_matches_fallback_decisions(self, facade):
        # The degraded fallback replays the per-user *verify* pipeline,
        # whose dtype policy differs from the gallery's float64 scoring,
        # so distances agree to rounding — decisions must agree exactly.
        system, user_id, probes = facade
        system.reset_gallery()
        results = system.identify_many(list(probes[:4]))
        fallback = system._identify_fallback(list(probes[:4]))
        for fast, slow in zip(results, fallback):
            assert fast.user_id == slow.user_id
            assert fast.accepted == slow.accepted
            assert fast.distance == pytest.approx(slow.distance, rel=1e-9)

    def test_warm_gallery_prebuilds(self, facade):
        system, _, _ = facade
        system.reset_gallery()
        system.warm_gallery()
        assert system._gallery is not None
        assert system._gallery.pending == 0


# -- concurrency: interleaved enroll / revoke / identify -------------------


class TestConcurrentMutationVsIdentification:
    def test_interleaved_threads_stay_loop_exact(self):
        """Writers churn users while readers identify; decisions stay exact.

        A stable core population is constructed so each probe's true
        argmin is a core user (its template is the probe's own
        projection — distance exactly 0 for that pairing, ~1 for
        everything random).  Churn threads enroll/revoke disposable
        users concurrently with identify threads; whatever interleaving
        happens, every decision must be bitwise the loop answer for the
        stable set, and users revoked-and-synced *before* the readers
        started must never be returned.
        """
        config = GalleryConfig(
            shard_size=4, top_k=2, prescreen_rank=3,
            compact_tombstone_ratio=0.3,
        )
        gallery = ShardedGallery(config)
        rng = np.random.default_rng(42)
        probes = rng.normal(size=(8, IN))
        core: dict[str, tuple] = {}
        for index, probe in enumerate(probes):
            matrix = _matrix(1000 + index)
            template = np.asarray(probe, dtype=np.float64) @ matrix
            name = f"core{index}"
            gallery.upsert(name, matrix, template)
            core[name] = (matrix, template)
        expected = {
            index: _loop_best(probe, core)
            for index, probe in enumerate(probes)
        }
        # Pre-revoked users: tombstoned and synced before readers start.
        for index in range(4):
            gallery.upsert(f"dead{index}", _matrix(2000 + index), _template(index))
        gallery.sync()
        for index in range(4):
            gallery.remove(f"dead{index}")
        gallery.sync()
        forbidden = {f"dead{index}" for index in range(4)}

        stop = threading.Event()
        failures: list[str] = []

        def churn(worker: int) -> None:
            tick = 0
            while not stop.is_set():
                name = f"churn{worker}-{tick % 5}"
                try:
                    gallery.upsert(
                        name, _matrix(3000 + worker * 100 + tick), _template(tick)
                    )
                    gallery.sync()
                    gallery.remove(name)
                    gallery.sync()
                except Exception as exc:  # pragma: no cover - fails the test
                    failures.append(f"churn: {exc!r}")
                    return
                tick += 1

        def identify(reader: int) -> None:
            rounds = 0
            while not stop.is_set() and rounds < 60:
                index = (reader + rounds) % len(probes)
                try:
                    match = gallery.best_match(probes[index])[0]
                except Exception as exc:  # pragma: no cover - fails the test
                    failures.append(f"identify: {exc!r}")
                    return
                if match.user_id in forbidden:
                    failures.append(f"tombstoned user returned: {match.user_id}")
                    return
                if (match.user_id, match.distance) != expected[index]:
                    failures.append(
                        f"decision drift: {match} != {expected[index]}"
                    )
                    return
                rounds += 1

        writers = [threading.Thread(target=churn, args=(w,)) for w in range(2)]
        readers = [
            threading.Thread(target=identify, args=(r,)) for r in range(2)
        ]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join(30.0)
        stop.set()
        for thread in writers:
            thread.join(30.0)
        assert not failures, failures[:3]
        assert not any(t.is_alive() for t in writers + readers), "deadlock"
        # Steady state after the dust settles: core-only parity again.
        for index, probe in enumerate(probes):
            final = gallery.best_match(probe)[0]
            assert (final.user_id, final.distance) == expected[index]


# -- scale bench smoke (tiny tier-1 version of benchmarks/) ----------------


class TestBenchSmoke:
    def test_gallery_benchmark_tiny_sweep(self, tmp_path):
        from repro.core.gallery.bench import gallery_benchmark, write_results

        data = gallery_benchmark(
            quick=True,
            sizes=(40, 90),
            repeats=1,
            update_repeats=2,
            num_timing_probes=2,
            num_parity_probes=2,
        )
        assert data["claims"]["parity_bitwise_at_every_u"]
        assert data["claims"]["update_latency_flat_2x"] in (True, False)
        assert [p["num_users"] for p in data["sweep"]] == [40, 90]
        target = write_results(data, tmp_path / "BENCH_gallery.json")
        assert target.exists()

    def test_cli_gallery_bench(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            ["gallery-bench", "--sizes", "40,90", "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert "U=" in captured.out and "PASS" in captured.out
        assert out.exists()
        assert code in (0, 1)  # tiny sizes may not clear the speed bars


class TestGalleryConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_size": 0},
            {"top_k": 0},
            {"prescreen_rank": 0},
            {"prescreen_dtype": "float16"},
            {"compact_tombstone_ratio": 0.0},
            {"compact_tombstone_ratio": 1.5},
            {"score_threads": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GalleryConfig(**kwargs)
