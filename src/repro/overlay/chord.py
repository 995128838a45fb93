"""Chord DHT overlay.

A from-scratch Chord (Stoica et al., SIGCOMM'01) simulator: circular
identifier space of size ``2**bits``, per-node finger tables pointing at
``successor(id + 2^k)``, successor/predecessor links, and the standard
greedy closest-preceding-finger lookup.

Representation: slots are stored in **ring order** (slot ``i`` holds the
``i``-th smallest identifier), so the successor of slot ``i`` is simply
``(i + 1) % n``.  The logical graph (fingers + successor + predecessor,
taken as undirected edges — the paper's "routing tables extended to
record both successor nodes and predecessor ones") is a pure function of
the identifier set and never changes; PROP-G swaps which *host* owns
which identifier via the embedding, exactly the paper's "exchange node
identifiers" operation.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.overlay.base import RoutedOverlay
from repro.overlay.ids import unique_ids
from repro.topology.latency import LatencyOracle

__all__ = ["ChordOverlay"]


class ChordOverlay(RoutedOverlay):
    """Chord ring with finger tables over a latency oracle."""

    def __init__(
        self,
        oracle: LatencyOracle,
        embedding: np.ndarray,
        ids: np.ndarray,
        bits: int,
    ) -> None:
        super().__init__(oracle, embedding)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (self.n_slots,):
            raise ValueError("need exactly one id per slot")
        if np.any(np.diff(ids) <= 0):
            raise ValueError("ids must be strictly increasing in slot order")
        if ids.min() < 0 or ids.max() >= (1 << bits):
            raise ValueError("id out of identifier space")
        self.ids = ids
        self._id = ids.tolist()
        self.bits = int(bits)
        self.space = 1 << bits
        # fingers[i]: distinct finger target slots of slot i, sorted by
        # clockwise id-distance from i (ascending).  Includes the
        # successor (finger 0).  finger_dist[i] holds those distances,
        # the keys a lookup bisects.
        self.fingers: list[list[int]] = []
        self.finger_dist: list[list[int]] = []
        self._build_fingers()
        self._build_edges()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        oracle: LatencyOracle,
        rng: np.random.Generator,
        *,
        bits: int | None = None,
        embedding: np.ndarray | None = None,
    ) -> "ChordOverlay":
        """Build a Chord ring over all oracle members with random ids.

        The hash-based identifier assignment is modelled by drawing
        distinct uniform ids and a random slot->host embedding — ids
        carry no physical locality, which is precisely the mismatch
        PROP repairs.
        """
        n = oracle.n if embedding is None else len(embedding)
        if bits is None:
            bits = max(16, int(np.ceil(np.log2(max(n, 2)))) + 4)
        ids = np.sort(unique_ids(n, bits, rng))
        if embedding is None:
            embedding = rng.permutation(n).astype(np.intp)
        return cls(oracle, embedding, ids, bits)

    def _successor_index_of_id(self, key: int) -> int:
        """Slot owning ``key``: the first slot with id >= key (cyclic)."""
        i = bisect.bisect_left(self._id, key % self.space)
        return i % self.n_slots

    def _build_fingers(self) -> None:
        self.fingers = []
        self.finger_dist = []
        for i in range(self.n_slots):
            targets: list[int] = []
            seen: set[int] = set()
            for k in range(self.bits):
                start = (self._id[i] + (1 << k)) % self.space
                j = self._successor_index_of_id(start)
                if j != i and j not in seen:
                    seen.add(j)
                    targets.append(j)
            self._add_fingers(i, targets)

    def _add_fingers(self, slot: int, targets: list[int]) -> None:
        """Append ``slot``'s table: ``targets`` sorted by clockwise
        id-distance from ``slot``, and those distances (distinct slots
        have distinct ids, so the order has no ties)."""
        base = self._id[slot]
        table = sorted(((self._id[j] - base) % self.space, j) for j in targets)
        self.fingers.append([j for _, j in table])
        self.finger_dist.append([d for d, _ in table])

    def _build_edges(self) -> None:
        for i, targets in enumerate(self.fingers):
            for j in targets:
                if not self.has_edge(i, j):
                    self.add_edge(i, j)
        # successor links are finger 0 and therefore already present for
        # n >= 2; predecessor links are the reverse direction of the
        # successor's finger and come in via undirectedness.

    # -- routing ------------------------------------------------------------

    def owner(self, key: int) -> int:
        """Slot responsible for ``key`` (its successor on the ring)."""
        return self._successor_index_of_id(key)

    def route(self, src: int, key: int) -> list[int]:
        """Greedy Chord lookup path from slot ``src`` to the owner of ``key``.

        Returns the slot path including both endpoints.  Each hop goes
        to the closest preceding finger — the farthest finger strictly
        inside ``(id, key)``, found by bisecting the slot's sorted
        finger distances — or to the successor when the key falls in
        ``(id, id_successor]``.
        """
        return self._route(src, key % self.space, None, 1)

    # -- failure-aware routing (successor-list extension) -----------------

    def successor_list(self, slot: int, size: int) -> list[int]:
        """The next ``size`` slots clockwise — Chord's successor list.

        Real deployments keep this list for fault tolerance ("most
        structured systems selectively record several predecessor
        nodes … to improve fault resilience", Section 3.2); routing can
        skip a dead successor by jumping to the next list entry.
        """
        if not 1 <= size < self.n_slots:
            raise ValueError(f"size must be in [1, {self.n_slots}), got {size}")
        return [(slot + k) % self.n_slots for k in range(1, size + 1)]

    def owner_of_key_alive(self, key: int, alive: np.ndarray) -> int:
        """First *alive* slot at or after ``key`` (its surviving owner)."""
        start = self._successor_index_of_id(key)
        n = self.n_slots
        for off in range(n):
            cand = (start + off) % n
            if alive[cand]:
                return cand
        raise RuntimeError("no alive slot in the ring")

    def route_with_failures(
        self,
        src: int,
        key: int,
        alive: np.ndarray,
        *,
        successor_list_size: int = 8,
    ) -> list[int]:
        """Greedy lookup that skips failed nodes.

        ``alive`` is a boolean mask per slot; ``src`` must be alive.  At
        each step the farthest *alive* finger strictly preceding the key
        is taken; when no finger helps, the successor list is scanned
        for the first alive entry.  Raises :class:`RuntimeError` when a
        node's entire successor list is dead (the standard Chord failure
        condition).
        """
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != (self.n_slots,):
            raise ValueError("alive mask must have one entry per slot")
        if not alive[src]:
            raise ValueError(f"source slot {src} is not alive")
        return self._route(src, key % self.space, alive, successor_list_size)

    def _route(
        self, src: int, key: int, alive: np.ndarray | None, successor_list_size: int
    ) -> list[int]:
        """The one greedy loop behind :meth:`route` (``alive`` None: every
        slot is up) and :meth:`route_with_failures`."""
        dest = self.owner(key) if alive is None else self.owner_of_key_alive(key, alive)
        fallback = min(successor_list_size, self.n_slots - 1)
        path = [src]
        cur = src
        guard = 4 * self.n_slots
        while cur != dest:
            key_cw = (key - self._id[cur]) % self.space
            fingers = self.fingers[cur]
            # fingers[:k] lie strictly inside (cur, key); take the
            # farthest alive one
            k = bisect.bisect_left(self.finger_dist[cur], key_cw)
            while k and alive is not None and not alive[fingers[k - 1]]:
                k -= 1
            if k:
                nxt = fingers[k - 1]
            else:
                # no finger precedes the key: the first alive entry of
                # the successor list (the successor itself when all are up)
                for nxt in self.successor_list(cur, fallback):
                    if alive is None or alive[nxt]:
                        break
                else:
                    raise RuntimeError(
                        f"slot {cur}: entire successor list dead — ring broken"
                    )
            path.append(nxt)
            cur = nxt
            guard -= 1
            if guard <= 0:
                raise RuntimeError("Chord routing failed to converge")
        return path
