"""The gallery mutation log coalesces per user and stays bounded.

Without coalescing, a warm gallery that is mutated but never identified
against would hold one log entry — and one Gaussian-matrix reference —
per enroll, renew, adapt and revoke.  The log coalesces per user: an upsert
overwrites the user's pending upsert, a remove drops the user's pending
entries and is logged only when the shards hold the user.  This module
checks the unit rules, the bound on a churn loop through the facade,
writers racing syncing threads, and (with hypothesis) that any
interleaving of mutations and syncs identifies bitwise like a freshly
built gallery, tie order included.
"""

from __future__ import annotations

import collections
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GalleryConfig
from repro.core.gallery import GalleryMutation, MutationLog, ShardedGallery

IN, OUT = 8, 6


def _upsert(user_id: str, tag: int = 0) -> GalleryMutation:
    return GalleryMutation(
        kind="upsert",
        user_id=user_id,
        matrix=np.full((IN, OUT), float(tag)),
        template=np.full(OUT, float(tag)),
    )


def _remove(user_id: str) -> GalleryMutation:
    return GalleryMutation(kind="remove", user_id=user_id)


def _never_held(user_id: str) -> bool:
    return False


def _always_held(user_id: str) -> bool:
    return True


class TestCoalescingRules:
    def test_upsert_overwrites_pending_upsert_in_place(self):
        log = MutationLog()
        log.upsert(_upsert("a", 1))
        log.upsert(_upsert("b", 2))
        log.upsert(_upsert("a", 3))
        entries = log.entries()
        assert [(m.user_id, m.template[0]) for m in entries] == [("a", 3.0), ("b", 2.0)]

    def test_remove_of_never_held_user_is_a_no_op(self):
        log = MutationLog()
        log.upsert(_upsert("a"))
        log.remove(_remove("a"), held=_never_held)
        assert len(log) == 0
        log.remove(_remove("ghost"), held=_never_held)
        assert len(log) == 0

    def test_remove_of_held_user_drops_its_entries(self):
        log = MutationLog()
        log.upsert(_upsert("a"))
        log.upsert(_upsert("b"))
        log.remove(_remove("a"), held=_always_held)
        assert [(m.kind, m.user_id) for m in log.entries()] == [
            ("upsert", "b"),
            ("remove", "a"),
        ]

    def test_upsert_after_remove_is_kept_apart(self):
        # Revoke then re-enroll moves the user to the back of the tie
        # order, so the remove must stay ahead of the new upsert.
        log = MutationLog()
        log.remove(_remove("a"), held=_always_held)
        log.upsert(_upsert("a", 1))
        log.upsert(_upsert("a", 2))
        assert [(m.kind, m.user_id) for m in log.entries()] == [
            ("remove", "a"),
            ("upsert", "a"),
        ]
        assert log.entries()[1].template[0] == 2.0

    def test_in_flight_head_is_never_dropped_or_rewritten(self):
        log = MutationLog()
        log.upsert(_upsert("a", 1))
        head = log.peek()  # a sync is applying it
        log.upsert(_upsert("a", 2))
        log.remove(_remove("a"), held=_never_held)
        entries = log.entries()
        assert entries[0] is head
        assert [m.kind for m in entries] == ["upsert", "remove"]
        log.pop()
        assert [m.kind for m in log.entries()] == ["remove"]


class TestChurnStaysBounded:
    @pytest.fixture(scope="class")
    def facade(self):
        from repro.serve.loadgen import build_bench_system

        return build_bench_system(dtype="float32", num_probes=6)

    def test_enroll_revoke_churn_without_identify(self, facade):
        system, user_id, probes = facade
        system.reset_gallery()
        system.warm_gallery()
        gallery = system._gallery
        names = [f"churn{i}" for i in range(3)]
        for cycle in range(200):
            name = names[cycle % len(names)]
            system.enroll(name, list(probes[:2]), transform_seed=700 + cycle)
            system.revoke(name)
            entries = gallery._log.entries()
            distinct = {m.user_id for m in entries}
            assert len(entries) <= 2 * len(distinct)
            assert not any(
                m.user_id == name and m.matrix is not None for m in entries
            )
        # Only the warm population was ever applied, so nothing is left.
        assert gallery.pending == 0
        assert gallery.users() == [user_id]
        assert system._gallery is gallery


class TestConcurrentSync:
    def test_writers_racing_syncs_converge(self):
        """Coalescing appends racing a draining sync lose no update.

        Each writer owns its users, so every user's final state is
        known; syncing threads drain the log throughout.  A remove
        that dropped an in-flight upsert, or skipped itself while the
        user was being applied, would leave a revoked user alive.
        """
        gallery = ShardedGallery(
            GalleryConfig(shard_size=4, top_k=1, prescreen_rank=2)
        )
        writers, users_each, rounds = 4, 3, 60
        expected: dict[str, float | None] = {}
        stop = threading.Event()

        def slow_matrix(tag: float):
            # A lazy provider that yields the interpreter mid-apply, so
            # writers run while an upsert is in flight.
            def provide() -> np.ndarray:
                time.sleep(1e-4)
                return np.full((IN, OUT), tag)

            return provide

        def write(w: int) -> None:
            rng = np.random.default_rng(w)
            for r in range(rounds):
                user = f"w{w}u{r % users_each}"
                if rng.random() < 0.4:
                    gallery.remove(user)
                    expected[user] = None
                else:
                    tag = float(w * 1000 + r + 1)
                    gallery.upsert(user, slow_matrix(tag), np.full(OUT, tag))
                    expected[user] = tag

        def drain() -> None:
            while not stop.is_set():
                gallery.sync()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            syncers = [threading.Thread(target=drain) for _ in range(2)]
            threads = [
                threading.Thread(target=write, args=(w,)) for w in range(writers)
            ]
            for thread in syncers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            for thread in syncers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in syncers + threads)
        gallery.sync()
        assert gallery.pending == 0
        alive = {user for user, tag in expected.items() if tag is not None}
        assert set(gallery.users()) == alive
        for user in alive:
            assert gallery.row(user)[1][0] == expected[user]


# -- interleavings ---------------------------------------------------------

USERS = ("a", "b", "c", "d")
# A small key space, so different users share a matrix and template and
# identify has exact distance ties to break by enrollment order.
KEYS = st.integers(0, 2)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("enroll"), st.sampled_from(USERS), KEYS),
        st.tuples(st.just("revoke"), st.sampled_from(USERS), KEYS),
        st.tuples(st.just("renew"), st.sampled_from(USERS), KEYS),
        st.tuples(st.just("adapt"), st.sampled_from(USERS), KEYS),
        st.tuples(st.just("sync"), st.just(""), st.just(0)),
    ),
    max_size=30,
)


def _matrix(key: int) -> np.ndarray:
    return np.random.default_rng(key).normal(size=(IN, OUT))


def _template(key: int) -> np.ndarray:
    return np.random.default_rng(key + 100).normal(size=OUT)


CONFIG = GalleryConfig(
    shard_size=2, top_k=1, prescreen_rank=2, compact_tombstone_ratio=0.3
)


class TestInterleavingsMatchAFreshGallery:
    @given(ops=operations, warm=st.booleans())
    @settings(max_examples=120)
    def test_identify_equals_fresh_build(self, ops, warm):
        gallery = ShardedGallery(CONFIG)
        # Facade semantics: dict order is enrollment order; a renew or
        # adapt of an enrolled user keeps its place, a revoke forgets it.
        enrolled: collections.OrderedDict[str, tuple] = collections.OrderedDict()
        if warm:
            enrolled["w"] = (_matrix(0), _template(0))
            gallery.upsert("w", *enrolled["w"])
            gallery.sync()
        for op, user, key in ops:
            if op == "sync":
                gallery.sync()
            elif op == "revoke":
                enrolled.pop(user, None)
                gallery.remove(user)
            elif op == "enroll" or user in enrolled:
                if op == "adapt":
                    matrix, template = enrolled[user][0], 1.5 * _template(key)
                else:
                    matrix, template = _matrix(key), _template(key)
                enrolled[user] = (matrix, template)
                gallery.upsert(user, *enrolled[user])
            assert gallery.pending <= 2 * len(USERS) + 2
        fresh = ShardedGallery(CONFIG)
        for user, (matrix, template) in enrolled.items():
            fresh.upsert(user, matrix, template)
        probes = np.random.default_rng(7).normal(size=(5, IN))
        probes[0] = 0.0
        got = gallery.best_match(probes)
        want = fresh.best_match(probes)
        assert gallery.users() == fresh.users() == list(enrolled)
        assert [(m.user_id, m.distance) if m else None for m in got] == [
            (m.user_id, m.distance) if m else None for m in want
        ]
