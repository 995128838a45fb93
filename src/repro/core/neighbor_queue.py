"""The ``neighborQ`` priority queue.

Section 3.2: each node keeps a priority queue over its neighbors that
picks the first hop ``s`` of every probe walk.

* **Warm-up**: initialized with a random permutation of the neighbors
  ("each neighbor has an equal probability to be probed") and consumed
  round-robin.
* **Maintenance**: after a *successful* exchange through ``s``, its
  priority number is decreased by 1 ("so that it could be chosen in near
  future"); after a failure ``s`` is "replaced at the tail of neighborq,
  waiting for the next probing cycle".
* **Churn**: newly appearing neighbors are "added into the front of
  neighborq with a maximum priority value, so that these peers can be
  probed earlier".

Implementation: a stable-ordered list of (priority, arrival) entries;
lower priority number = probed sooner.  Selection takes the entry with
the minimal (priority, order) key, which makes the three rules above
simple priority arithmetic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["NeighborQueue"]

# Priority constants: lower = probed sooner.
_PRIO_FRONT = -1_000_000  # churn insertions ("maximum priority")
_PRIO_BASE = 0


class NeighborQueue:
    """Priority queue over a node's neighbor slots."""

    def __init__(self, neighbors: Iterable[int], rng: np.random.Generator) -> None:
        order = list(neighbors)
        rng.shuffle(order)
        # entry: slot -> (priority, seq); seq breaks ties FIFO
        self._prio: dict[int, tuple[int, int]] = {}
        self._seq = 0
        #: The neighbor tuple last reconciled by :meth:`sync`, while the
        #: queue still holds exactly its slots (None otherwise).
        self._synced: tuple[int, ...] | None = None
        for s in order:
            self._push(s, _PRIO_BASE)

    def _push(self, slot: int, priority: int) -> None:
        self._prio[slot] = (priority, self._seq)
        self._seq += 1

    def __len__(self) -> int:
        return len(self._prio)

    def __contains__(self, slot: int) -> bool:
        return slot in self._prio

    def select(self) -> int:
        """The neighbor to use as next first hop (min priority, FIFO ties)."""
        if not self._prio:
            raise IndexError("select from empty NeighborQueue")
        return min(self._prio, key=self._prio.__getitem__)

    def on_success(self, slot: int) -> None:
        """Successful exchange through ``slot``: bump it forward by 1."""
        if slot in self._prio:
            prio, _ = self._prio[slot]
            self._prio[slot] = (prio - 1, self._prio[slot][1])

    def on_failure(self, slot: int) -> None:
        """Failed attempt through ``slot``: demote to the tail."""
        if slot in self._prio:
            tail = max((p for p, _ in self._prio.values()), default=_PRIO_BASE)
            self._push(slot, max(tail, _PRIO_BASE) + 1)

    def on_new_neighbor(self, slot: int) -> None:
        """Churn: a fresh neighbor goes to the very front."""
        if slot not in self._prio:
            self._synced = None
        self._push(slot, _PRIO_FRONT)

    def sync(self, neighbors: Iterable[int]) -> None:
        """Reconcile with the current neighbor set after an exchange.

        Departed slots are dropped; new slots enter at the front (they
        are exactly the peers whose latency the node knows least about).

        Handed the very tuple it reconciled last (the overlay returns the
        same object from ``sorted_neighbors`` until an edge at the slot
        changes), there is nothing to do: a tuple is immutable, and every
        membership change made behind ``sync``'s back forgets it.
        """
        if neighbors is self._synced:
            return
        current = set(neighbors)
        for s in list(self._prio):
            if s not in current:
                del self._prio[s]
        # sorted insertion keeps same-priority FIFO ties deterministic
        # (set iteration order must never leak into protocol behaviour)
        for s in sorted(current):
            if s not in self._prio:
                self._push(s, _PRIO_FRONT)
        self._synced = neighbors if isinstance(neighbors, tuple) else None

    def snapshot(self) -> list[int]:
        """Slots in probe order (for tests and debugging)."""
        return sorted(self._prio, key=self._prio.__getitem__)
