"""Pastry DHT overlay (protocol-independence extension).

A compact Pastry (Rowstron & Druschel, Middleware'01) simulator: ids are
sequences of base-``2**b`` digits, each node keeps a prefix routing table
(one row per prefix length, one entry per digit value) and a leaf set of
the ``L`` numerically closest nodes.  Routing forwards to the leaf-set
owner when the key is within leaf range, otherwise to the routing-table
entry sharing a longer prefix, with the standard "rare case" fallback to
any known node numerically closer to the key.

The paper's claim exercised here: PROP-G "can be deployed effortlessly on
both unstructured and structured P2P systems" — the PROP engine runs on
Pastry exactly as on Chord because both are just logical graphs with an
embedding.  Plain Pastry fills routing-table slots with an arbitrary
qualifying node; passing ``proximity_aware=True`` fills them with the
physically closest qualifying node instead (Pastry's built-in PNS),
used by the combination benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.base import RoutedOverlay
from repro.overlay.ids import common_prefix_len, digits_of, unique_ids
from repro.topology.latency import LatencyOracle

__all__ = ["PastryOverlay"]


class PastryOverlay(RoutedOverlay):
    """Pastry prefix-routing overlay."""

    def __init__(
        self,
        oracle: LatencyOracle,
        embedding: np.ndarray,
        ids: np.ndarray,
        *,
        base_bits: int = 4,
        n_digits: int = 8,
        leaf_set_size: int = 8,
        proximity_aware: bool = False,
    ) -> None:
        super().__init__(oracle, embedding)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (self.n_slots,):
            raise ValueError("need exactly one id per slot")
        if np.unique(ids).size != ids.size:
            raise ValueError("ids must be distinct")
        self.ids = ids
        self.base_bits = base_bits
        self.n_digits = n_digits
        self.space = 1 << (base_bits * n_digits)
        if ids.min() < 0 or ids.max() >= self.space:
            raise ValueError("id out of identifier space")
        self.leaf_set_size = leaf_set_size
        self.proximity_aware = proximity_aware
        self.digits = [digits_of(int(x), base_bits, n_digits) for x in ids]
        # ring order of slots by id, for leaf sets
        self._order = np.argsort(ids)
        self._rank = np.empty(self.n_slots, dtype=np.intp)
        self._rank[self._order] = np.arange(self.n_slots)
        self.leaf_sets: list[list[int]] = []
        self.routing_tables: list[dict[tuple[int, int], int]] = []
        self._build_leaf_sets()
        self._leaf_lookup = [frozenset(s) for s in self.leaf_sets]
        self._build_routing_tables()
        self._build_edges()

    @classmethod
    def build(
        cls,
        oracle: LatencyOracle,
        rng: np.random.Generator,
        *,
        base_bits: int = 4,
        n_digits: int = 8,
        leaf_set_size: int = 8,
        proximity_aware: bool = False,
        embedding: np.ndarray | None = None,
    ) -> "PastryOverlay":
        n = oracle.n if embedding is None else len(embedding)
        ids = unique_ids(n, base_bits * n_digits, rng)
        if embedding is None:
            embedding = rng.permutation(n).astype(np.intp)
        return cls(
            oracle,
            embedding,
            ids,
            base_bits=base_bits,
            n_digits=n_digits,
            leaf_set_size=leaf_set_size,
            proximity_aware=proximity_aware,
        )

    # -- construction ----------------------------------------------------

    def _build_leaf_sets(self) -> None:
        n = self.n_slots
        half = min(self.leaf_set_size // 2, (n - 1) // 2)
        for i in range(n):
            r = int(self._rank[i])
            leaves = []
            for off in range(1, half + 1):
                leaves.append(int(self._order[(r + off) % n]))
                leaves.append(int(self._order[(r - off) % n]))
            self.leaf_sets.append(sorted(set(leaves) - {i}))

    def _build_routing_tables(self) -> None:
        """Fill routing tables by grouping slots per (row, digit) cell.

        Plain Pastry: an arbitrary qualifying node (first by slot order).
        Proximity-aware: the qualifying node closest to the owner in
        physical latency.
        """
        n = self.n_slots
        base = 1 << self.base_bits
        # index: prefix tuple -> slots having that prefix
        by_prefix: dict[tuple[int, ...], list[int]] = {}
        for s in range(n):
            d = self.digits[s]
            for l in range(self.n_digits + 1):
                by_prefix.setdefault(d[:l], []).append(s)

        emb = self.embedding
        oracle = self.oracle
        for i in range(n):
            di = self.digits[i]
            table: dict[tuple[int, int], int] = {}
            for row in range(self.n_digits):
                for digit in range(base):
                    if digit == di[row]:
                        continue
                    cand = by_prefix.get(di[:row] + (digit,))
                    if not cand:
                        continue
                    if self.proximity_aware:
                        c = np.asarray(cand, dtype=np.intp)
                        best = int(c[np.argmin(oracle.to_many(int(emb[i]), emb[c]))])
                    else:
                        best = cand[0]
                    table[(row, digit)] = best
            self.routing_tables.append(table)

    def _build_edges(self) -> None:
        for i in range(self.n_slots):
            for j in self.leaf_sets[i]:
                if i != j and not self.has_edge(i, j):
                    self.add_edge(i, j)
            for j in self.routing_tables[i].values():
                if i != j and not self.has_edge(i, j):
                    self.add_edge(i, j)

    # -- routing -----------------------------------------------------------

    def _id_distance(self, a: int, key: int) -> int:
        d = abs(a - key)
        return min(d, self.space - d)

    def owner(self, key: int) -> int:
        """Slot numerically closest to ``key`` (ties to the lower id)."""
        key %= self.space
        dists = np.abs(self.ids - key)
        dists = np.minimum(dists, self.space - dists)
        best = np.flatnonzero(dists == dists.min())
        return int(best[np.argmin(self.ids[best])])

    def route(self, src: int, key: int) -> list[int]:
        """Pastry prefix routing from ``src`` to the key's owner slot."""
        key %= self.space
        dest = self.owner(key)
        key_digits = digits_of(key, self.base_bits, self.n_digits)
        path = [src]
        cur = src
        guard = 4 * self.n_digits + self.n_slots
        while cur != dest:
            nxt = None
            # Leaf-set rule: when the key's owner is already in our leaf
            # set, deliver directly (the numerically-closest-leaf case of
            # the Pastry algorithm; the prefix metric may *decrease* on
            # this final hop, e.g. across a digit boundary like 0x7F/0x80).
            if dest in self._leaf_lookup[cur]:
                path.append(dest)
                break
            l = common_prefix_len(self.digits[cur], key_digits)
            if l < self.n_digits:
                entry = self.routing_tables[cur].get((l, key_digits[l]))
                if entry is not None:
                    nxt = entry
            if nxt is None:
                # Rare case: the routing-table cell is empty.  Forward to
                # any known node (leaf set or table) that shares a prefix
                # at least as long and is numerically closer to the key.
                cur_dist = self._id_distance(int(self.ids[cur]), key)
                best = None
                best_key = (l, -cur_dist)
                for j in list(self.leaf_sets[cur]) + list(self.routing_tables[cur].values()):
                    lj = common_prefix_len(self.digits[j], key_digits)
                    dj = self._id_distance(int(self.ids[j]), key)
                    if (lj, -dj) > best_key:
                        best = j
                        best_key = (lj, -dj)
                nxt = best
            if nxt is None or nxt == cur:
                raise RuntimeError("Pastry routing stuck — state tables incomplete")
            path.append(nxt)
            cur = nxt
            guard -= 1
            if guard <= 0:
                raise RuntimeError("Pastry routing failed to converge")
        return path
