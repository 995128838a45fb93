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
        self.bits = int(bits)
        self.space = 1 << bits
        # fingers[i]: distinct finger target slots of slot i, sorted by
        # clockwise id-distance from i (ascending).  Includes the
        # successor (finger 0).
        self.fingers: list[list[int]] = []
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
        i = bisect.bisect_left(self.ids, key % self.space)
        return i % self.n_slots

    def _build_fingers(self) -> None:
        n = self.n_slots
        ids = self.ids
        self.fingers = []
        for i in range(n):
            targets: list[int] = []
            seen: set[int] = set()
            for k in range(self.bits):
                start = (int(ids[i]) + (1 << k)) % self.space
                j = self._successor_index_of_id(start)
                if j != i and j not in seen:
                    seen.add(j)
                    targets.append(j)
            # sort by clockwise distance so closest-preceding scans can
            # walk from the farthest finger backwards
            targets.sort(key=lambda j: (int(ids[j]) - int(ids[i])) % self.space)
            self.fingers.append(targets)

    def _build_edges(self) -> None:
        for i, targets in enumerate(self.fingers):
            for j in targets:
                if not self.has_edge(i, j):
                    self.add_edge(i, j)
        # successor links are finger 0 and therefore already present for
        # n >= 2; predecessor links are the reverse direction of the
        # successor's finger and come in via undirectedness.

    # -- routing ------------------------------------------------------------

    def successor_slot(self, slot: int) -> int:
        return (slot + 1) % self.n_slots

    def owner(self, key: int) -> int:
        """Slot responsible for ``key`` (its successor on the ring)."""
        return self._successor_index_of_id(key)

    def _cw(self, from_id: int, to_id: int) -> int:
        return (to_id - from_id) % self.space

    def route(self, src: int, key: int) -> list[int]:
        """Greedy Chord lookup path from slot ``src`` to the owner of ``key``.

        Returns the slot path including both endpoints.  Uses the classic
        algorithm: hop to the successor when the key falls in
        ``(id, id_successor]``, otherwise to the closest preceding finger.
        """
        key = key % self.space
        dest = self.owner(key)
        path = [src]
        cur = src
        hops_guard = 4 * self.n_slots
        while cur != dest:
            ids = self.ids
            cur_id = int(ids[cur])
            key_cw = self._cw(cur_id, key)
            succ = self.successor_slot(cur)
            if self._cw(cur_id, int(ids[succ])) >= key_cw:
                # key lies in (cur, successor] so the successor owns it
                nxt = succ
            else:
                nxt = succ
                # scan fingers from farthest: first one strictly inside
                # (cur_id, key) wins
                for j in reversed(self.fingers[cur]):
                    if 0 < self._cw(cur_id, int(ids[j])) < key_cw:
                        nxt = j
                        break
            path.append(nxt)
            cur = nxt
            hops_guard -= 1
            if hops_guard <= 0:
                raise RuntimeError("Chord routing failed to converge")
        return path

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
        key = key % self.space
        dest = self.owner_of_key_alive(key, alive)
        ids = self.ids
        path = [src]
        cur = src
        guard = 4 * self.n_slots
        while cur != dest:
            cur_id = int(ids[cur])
            key_cw = self._cw(cur_id, key)
            nxt = None
            for j in reversed(self.fingers[cur]):
                if alive[j] and 0 < self._cw(cur_id, int(ids[j])) < key_cw:
                    nxt = j
                    break
            if nxt is None:
                for j in self.successor_list(cur, min(successor_list_size, self.n_slots - 1)):
                    if alive[j]:
                        nxt = j
                        break
            if nxt is None:
                raise RuntimeError(
                    f"slot {cur}: entire successor list dead — ring broken"
                )
            path.append(nxt)
            cur = nxt
            guard -= 1
            if guard <= 0:
                raise RuntimeError("failure-aware routing failed to converge")
        return path
