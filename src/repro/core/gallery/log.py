"""The gallery mutation log: how enrollment changes reach the shards.

The system facade mutates templates under its write lock (enroll /
revoke / renew / adapt); the sharded gallery consumes those changes
lazily, at the next identification.  The :class:`MutationLog` is the
seam between the two: the write side appends an O(1) record per
mutation (no array work — enrollment latency is independent of the
enrolled population), and :meth:`ShardedGallery.sync
<repro.core.gallery.sharded.ShardedGallery.sync>` drains the log into
row-level shard updates.

Ordering is the contract: the log preserves mutation order, so an
upsert followed by a remove of the same user lands in that order and
the gallery converges to the facade's state.  Entries are popped only
*after* a successful apply — an injected fault mid-drain leaves the
remaining entries queued, and the next sync retries them (exactly-once
application, at-least-once attempts).

The gallery's appends coalesce per user (:meth:`MutationLog.upsert`,
:meth:`MutationLog.remove`), so a gallery that is mutated but never
synced holds at most a remove and an upsert per user, and no matrix of
a revoked user.  The applied result is the one the uncoalesced log
would reach.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Callable, Union

import numpy as np

#: A Gaussian matrix, either resident or produced on demand.  Lazy
#: providers let million-row galleries avoid holding every ``in x out``
#: matrix in memory: the prescreen keeps only ``rank`` columns per user
#: and the provider is re-invoked for the handful of rerank candidates.
MatrixSource = Union[np.ndarray, Callable[[], np.ndarray]]


def resolve_matrix(source: MatrixSource) -> np.ndarray:
    """Materialise a matrix source as a float64 2-D array."""
    matrix = source() if callable(source) else source
    return np.asarray(matrix, dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class GalleryMutation:
    """One logged enrollment change.

    Attributes:
        kind: ``"upsert"`` (enroll / renew / template adaptation) or
            ``"remove"`` (revocation).
        user_id: the affected identity.
        matrix: the user's Gaussian matrix (or provider) for upserts.
        template: the sealed cancelable template for upserts, float64.
    """

    kind: str
    user_id: str
    matrix: MatrixSource | None = None
    template: np.ndarray | None = None


class MutationLog:
    """A thread-safe FIFO of :class:`GalleryMutation` entries.

    Appends are cheap and lock-scoped, so the facade's write-side
    latency stays O(1) in the enrolled population; draining peeks the
    head and pops only after the caller applied it successfully.

    :meth:`upsert` and :meth:`remove` are the coalescing appends, so a
    warm gallery that is mutated but never identified against holds at
    most a remove and an upsert per user:

    * an upsert overwrites the user's pending upsert in place when no
      remove follows it — the later row wins either way, and the
      entry keeps its position, so a new user's sequence number is
      the one the first upsert would have drawn;
    * a remove drops the user's pending entries (a revoked user's
      matrix is never kept alive by the log) and is itself logged
      only when the shards hold the user — or are about to, through
      the entry a sync is applying right now.

    The head a sync has peeked is *in flight* until popped: the
    coalescing appends never drop or rewrite it, because its effect may
    already be in the shards.
    """

    def __init__(self) -> None:
        # Entry id -> mutation in log order; ids only grow, overwriting
        # a value keeps its position, and the ordered dict's linked
        # list keeps head access O(1) however many entries were popped.
        self._entries: collections.OrderedDict[int, GalleryMutation] = (
            collections.OrderedDict()
        )
        self._by_user: dict[str, list[int]] = {}
        self._next_id = 0
        self._in_flight: int | None = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _push(self, mutation: GalleryMutation) -> None:
        self._entries[self._next_id] = mutation
        self._by_user.setdefault(mutation.user_id, []).append(self._next_id)
        self._next_id += 1

    def upsert(self, mutation: GalleryMutation) -> None:
        """Log an upsert, overwriting the user's pending upsert."""
        with self._lock:
            ids = self._by_user.get(mutation.user_id)
            if (
                ids
                and ids[-1] != self._in_flight
                and self._entries[ids[-1]].kind == "upsert"
            ):
                self._entries[ids[-1]] = mutation
            else:
                self._push(mutation)

    def remove(self, mutation: GalleryMutation, held: Callable[[str], bool]) -> None:
        """Log a remove, dropping the user's earlier pending entries.

        ``held(user_id)`` says whether the shards hold the user; it is
        evaluated under the log lock, so a concurrent sync either has
        popped the entry that added the user (``held`` sees it) or has
        not (the entry is still logged or in flight).
        """
        user_id = mutation.user_id
        with self._lock:
            kept = []
            for entry_id in self._by_user.pop(user_id, ()):
                if entry_id == self._in_flight:
                    kept.append(entry_id)
                else:
                    del self._entries[entry_id]
            if kept:
                self._by_user[user_id] = kept
            if held(user_id) or any(
                self._entries[i].kind == "upsert" for i in kept
            ):
                self._push(mutation)

    def peek(self) -> GalleryMutation | None:
        """The oldest unapplied mutation, without removing it.

        The returned entry is in flight until :meth:`pop`.
        """
        with self._lock:
            if not self._entries:
                return None
            self._in_flight = next(iter(self._entries))
            return self._entries[self._in_flight]

    def pop(self) -> None:
        """Drop the head entry (after a successful apply)."""
        with self._lock:
            if not self._entries:
                return
            head = next(iter(self._entries))
            mutation = self._entries.pop(head)
            ids = self._by_user[mutation.user_id]
            ids.remove(head)
            if not ids:
                del self._by_user[mutation.user_id]
            if self._in_flight == head:
                self._in_flight = None

    def entries(self) -> list[GalleryMutation]:
        """A snapshot of the pending entries, oldest first."""
        with self._lock:
            return list(self._entries.values())
