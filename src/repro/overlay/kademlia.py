"""Kademlia DHT overlay (protocol-independence extension).

The XOR-metric DHT (Maymounkov & Mazières, IPTPS'02) behind the large
deployed networks (BitTorrent Mainline, eDonkey/Kad).  The paper argues
PROP-G runs on *any* structured overlay; Kademlia is the strongest
practical test of that claim because its routing table is organized by
identifier prefix rather than ring arithmetic:

* node ids live in ``[0, 2**bits)``; distance is ``a XOR b``;
* node ``u``'s table has one *k-bucket* per prefix length: bucket ``i``
  holds up to ``k`` nodes whose distance to ``u`` is in
  ``[2^(bits-1-i), 2^(bits-i))`` (i.e. they share exactly ``i`` leading
  bits with ``u``);
* lookup greedily queries the closest known node to the target until no
  closer node exists; the owner of a key is the node with minimum XOR
  distance.

As everywhere in this library, the logical graph (bucket contents) is a
pure function of the identifier set, so PROP-G = embedding swap leaves
it untouched; PROP-O is refused (``supports_rewiring = False``).

Bucket filling is deterministic: each bucket takes the ``k`` candidates
with smallest XOR distance (real Kademlia prefers long-lived contacts;
distance is the natural stand-in in a static membership snapshot).
"""

from __future__ import annotations

import numpy as np

from repro.overlay.base import RoutedOverlay
from repro.overlay.ids import unique_ids
from repro.topology.latency import LatencyOracle

__all__ = ["KademliaOverlay"]


class KademliaOverlay(RoutedOverlay):
    """Kademlia XOR-metric overlay."""

    def __init__(
        self,
        oracle: LatencyOracle,
        embedding: np.ndarray,
        ids: np.ndarray,
        bits: int,
        *,
        k: int = 8,
    ) -> None:
        super().__init__(oracle, embedding)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (self.n_slots,):
            raise ValueError("need exactly one id per slot")
        if np.unique(ids).size != ids.size:
            raise ValueError("ids must be distinct")
        if ids.min() < 0 or ids.max() >= (1 << bits):
            raise ValueError("id out of identifier space")
        if k < 1:
            raise ValueError("bucket size k must be >= 1")
        self.ids = ids
        self.bits = int(bits)
        self.space = 1 << bits
        self.k = int(k)
        # buckets[u][i] = slots sharing exactly i leading bits with u,
        # truncated to the k XOR-closest.
        self.buckets: list[list[list[int]]] = []
        self._build_buckets()
        self._build_edges()

    @classmethod
    def build(
        cls,
        oracle: LatencyOracle,
        rng: np.random.Generator,
        *,
        bits: int | None = None,
        k: int = 8,
        embedding: np.ndarray | None = None,
    ) -> "KademliaOverlay":
        n = oracle.n if embedding is None else len(embedding)
        if bits is None:
            bits = max(16, int(np.ceil(np.log2(max(n, 2)))) + 4)
        ids = unique_ids(n, bits, rng)
        if embedding is None:
            embedding = rng.permutation(n).astype(np.intp)
        return cls(oracle, embedding, ids, bits, k=k)

    # -- construction ----------------------------------------------------

    def _build_buckets(self) -> None:
        n = self.n_slots
        ids = self.ids
        self.buckets = []
        for u in range(n):
            per_prefix: dict[int, list[int]] = {}
            xor = ids ^ int(ids[u])
            for v in range(n):
                if v == u:
                    continue
                i = self.bits - int(xor[v]).bit_length()
                per_prefix.setdefault(i, []).append(v)
            table: list[list[int]] = [[] for _ in range(self.bits)]
            for i, members in per_prefix.items():
                members.sort(key=lambda v: int(xor[v]))
                table[i] = members[: self.k]
            self.buckets.append(table)

    def _build_edges(self) -> None:
        for u in range(self.n_slots):
            for bucket in self.buckets[u]:
                for v in bucket:
                    if not self.has_edge(u, v):
                        self.add_edge(u, v)

    # -- routing -----------------------------------------------------------

    def _xor(self, slot: int, key: int) -> int:
        return int(self.ids[slot]) ^ (key % self.space)

    def owner(self, key: int) -> int:
        """Slot with minimum XOR distance to ``key``."""
        d = self.ids ^ np.int64(key % self.space)
        return int(np.argmin(d))

    def known_contacts(self, slot: int) -> list[int]:
        """All slots in ``slot``'s routing table (bucket union)."""
        out: list[int] = []
        for bucket in self.buckets[slot]:
            out.extend(bucket)
        return out

    def route(self, src: int, key: int) -> list[int]:
        """Greedy XOR-descent from ``src`` to the key's owner.

        Each hop moves to the strictly XOR-closer contact of the current
        node; Kademlia guarantees such a contact exists whenever the
        current node is not the owner, because the bucket covering the
        key's prefix region is non-empty in a full table.
        """
        key = key % self.space
        dest = self.owner(key)
        path = [src]
        cur = src
        guard = self.bits + self.n_slots
        while cur != dest:
            cur_d = self._xor(cur, key)
            best = None
            best_d = cur_d
            for v in self.known_contacts(cur):
                d = self._xor(v, key)
                if d < best_d:
                    best = v
                    best_d = d
            if best is None:
                raise RuntimeError(
                    f"slot {cur}: no XOR-closer contact toward key {key} — "
                    "bucket table incomplete"
                )
            path.append(best)
            cur = best
            guard -= 1
            if guard <= 0:
                raise RuntimeError("Kademlia routing failed to converge")
        return path
