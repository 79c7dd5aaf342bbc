"""Soundness of the gallery prescreen bound (hypothesis).

The cascade in :mod:`repro.core.gallery.sharded` returns bitwise the
per-user loop's decision only because its prescreen never overstates a
user's similarity: every alive slot's lower distance must sit at or
below the loop's own ``cosine_distance(x @ G, t)``.  The property here
checks exactly that, for random shapes and prescreen ranks, across the
bound's edge cases: an empty tail (``rank >= out``), templates that live
entirely in the head (zero tail direction), zero templates, negative
numerators, probes whose projection nearly equals the template
(cosine ~ 1), zero probes, ill-conditioned matrices (where ``||x G||``
is tiny next to ``||x||``, so prescreen rounding is not relative to
the bound) and both prescreen dtypes.

A seeded fixture of the deployed shape (256 users, 512 x 512 matrices,
probes correlated with enrolled users) then pins that the tail-direction
term shrinks the exact-rerank pool below the head-only bound's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.config import GalleryConfig
from repro.core.gallery import ShardedGallery
from repro.core.similarity import cosine_distance

#: How each enrolled user's template is drawn.
TEMPLATE_KINDS = ("random", "head", "zero")


def _template(rng, kind: str, out_dim: int, rank: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros(out_dim)
    template = rng.normal(size=out_dim)
    if kind == "head":
        template[rank:] = 0.0  # all energy in the prescreen columns
    return template


def _probes(rng, users, scale: float, noise: float) -> np.ndarray:
    """Random and zero probes, plus one aligned and one opposed per user.

    An aligned probe ``t_hat @ pinv(G)`` projects (nearly) onto the
    template, so its cosine is ~1 and the bound is at its tightest; the
    opposed probe negates it and exercises the negative-numerator branch.
    """
    in_dim = users[0][0].shape[0]
    rows = [rng.normal(size=in_dim), rng.normal(size=in_dim), np.zeros(in_dim)]
    for matrix, template in users:
        norm = np.linalg.norm(template)
        unit = template / norm if norm else template
        aligned = unit @ np.linalg.pinv(matrix)
        aligned = aligned + noise * rng.normal(size=in_dim)
        rows.extend([aligned, -aligned])
    return scale * np.array(rows)


def _assert_bound_sound(gallery: ShardedGallery, probes: np.ndarray) -> None:
    lower = gallery._lower_distances(probes, np.linalg.norm(probes, axis=1))
    table = gallery._score_state()
    slots, alive = table.slots, table.alive
    assert lower.shape == (probes.shape[0], len(slots))
    for column, (shard, slot) in enumerate(slots):
        if not alive[column]:
            assert np.all(np.isinf(lower[:, column]))
            continue
        matrix, template = shard.matrix_for(slot), shard.template_for(slot)
        for row, probe in enumerate(probes):
            exact = cosine_distance(probe @ matrix, template)
            assert lower[row, column] <= exact, (row, column, exact)


class TestPrescreenBoundSoundness:
    @given(
        in_dim=st.integers(1, 12),
        out_dim=st.integers(1, 12),
        rank=st.integers(1, 14),
        kinds=st.lists(st.sampled_from(TEMPLATE_KINDS), min_size=1, max_size=5),
        dtype=st.sampled_from(("float32", "float64")),
        scale=st.sampled_from((1e-3, 1.0, 1e3)),
        noise=st.sampled_from((0.0, 1e-9, 1e-3, 0.3)),
        conditioning=st.sampled_from((1.0, 1e-5, 1e-8)),
        revoke_first=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # rank >= out: the tail (and with it the tail direction) is empty.
    @example(8, 4, 4, ["random", "random"], "float32", 1.0, 0.0, 1.0, False, 0)
    @example(8, 4, 9, ["random"], "float64", 1.0, 1e-9, 1.0, False, 1)
    # Head-only and zero templates: v = 0, the head-only bound remains.
    @example(6, 10, 3, ["head", "zero", "random"], "float32", 1.0, 0.0, 1.0, False, 2)
    # Square matrices, aligned probes: cosine ~1 at both dtypes.
    @example(10, 10, 3, ["random"] * 4, "float32", 1e3, 0.0, 1.0, True, 3)
    @example(10, 10, 3, ["random"] * 4, "float64", 1e-3, 1e-9, 1.0, True, 4)
    # Ill-conditioned, float32: the bound is tight (cosine 1) while the
    # prescreen's rounding of p is large next to ||x G||.
    @example(2, 2, 1, ["random"], "float32", 1e-3, 0.0, 1e-5, False, 0)
    @example(5, 5, 5, ["random"] * 2, "float32", 1.0, 0.0, 1e-8, False, 5)
    # A ~1e-20 projection: its float32 square underflows to a subnormal.
    @example(1, 1, 1, ["zero", "random"], "float32", 1e-3, 1e-9, 1e-8, False, 0)
    def test_lower_bound_never_exceeds_loop_distance(
        self,
        in_dim,
        out_dim,
        rank,
        kinds,
        dtype,
        scale,
        noise,
        conditioning,
        revoke_first,
        seed,
    ):
        rng = np.random.default_rng(seed)
        gallery = ShardedGallery(
            GalleryConfig(
                shard_size=3, top_k=1, prescreen_rank=rank, prescreen_dtype=dtype
            )
        )
        users = []
        for index, kind in enumerate(kinds):
            matrix = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, out_dim))
            left, singular, right = np.linalg.svd(matrix, full_matrices=False)
            singular[-1] *= conditioning
            matrix = (left * singular) @ right
            template = _template(rng, kind, out_dim, rank)
            gallery.upsert(f"u{index}", matrix, template)
            users.append((matrix, template))
        if revoke_first and len(kinds) > 1:
            gallery.remove("u0")  # a tombstoned column must stay inf
        gallery.sync()
        _assert_bound_sound(gallery, _probes(rng, users, scale, noise))


# -- pool size on the deployed shape ----------------------------------------

DIM, USERS, PROBES = 512, 256, 16


def _deployed_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(DIM), size=(DIM, DIM))


def _identify(gallery: ShardedGallery, probes: np.ndarray) -> tuple[list, float]:
    """The matches and the mean exact-rerank pool size per probe."""
    with obs.collecting() as registry:
        matches = gallery.best_match(probes)
    pool = registry.to_dict()["histograms"]["gallery_rerank_pool"]
    assert pool["count"] == probes.shape[0]
    return matches, pool["sum"] / pool["count"]


def test_tail_direction_shrinks_deployed_rerank_pool():
    # Embeddings share a low-rank population structure (so impostor
    # cosines spread the way trained MandiblePrints do); each probe is a
    # noisy re-measurement of one enrolled user.  Matrices are lazy
    # seeded providers, so the gallery never holds 512 MB of them.
    rng = np.random.default_rng(2021)
    people = rng.normal(size=(USERS, 8)) @ rng.normal(size=(8, DIM))
    people += rng.normal(size=(USERS, DIM))
    gallery = ShardedGallery(GalleryConfig())
    for user in range(USERS):
        seed = 10_000 + user
        template = people[user] @ _deployed_matrix(seed)
        gallery.upsert(
            f"u{user}", lambda seed=seed: _deployed_matrix(seed), template
        )
    owners = rng.choice(USERS, size=PROBES, replace=False)
    probes = people[owners] + 0.5 * rng.normal(size=(PROBES, DIM))

    matches, tightened = _identify(gallery, probes)
    assert [match.user_id for match in matches] == [f"u{u}" for u in owners]
    # Zeroing every tail direction reduces the bound to its head-only
    # form, which is sound too: same matches, larger pool.
    for shard in gallery._shards:
        shard._tail_dir[:] = 0.0
    loose_matches, loose = _identify(gallery, probes)
    assert loose_matches == matches
    # Seeded and deterministic: 16.0 (the top_k seed alone) against
    # 73.4 with the head-only bound.
    assert tightened < loose / 3
