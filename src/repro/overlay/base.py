"""Overlay = logical graph + physical embedding.

The central modelling decision of this reproduction (see DESIGN.md §2):
an overlay network is

* a **logical graph** over slots ``0..n-1`` — the ring-with-fingers of
  Chord, the zone adjacency of CAN, the random graph of Gnutella; and
* an **embedding** array mapping each slot to a *member host* index in a
  :class:`~repro.topology.latency.LatencyOracle`.

The paper's two exchange primitives map onto this split exactly:

* **PROP-G** swaps two entries of the embedding.  The logical topology is
  untouched, which *is* Theorem 2 (isomorphism) by construction, and
  connectivity persistence (Theorem 1) is trivial.
* **PROP-O** rewires ``m`` logical edges between two slots.  Degrees are
  preserved by trading equal numbers of edges, and connectivity is
  preserved because exchanged neighbors never lie on the probe walk path
  (the Theorem 1 argument).

Hot-path note: edge latency queries go through the oracle protocol
(:class:`~repro.topology.latency.LatencyOracleBase`) — on the exact
backend these are a gather from one stored row plus an offset, and the
per-slot neighbor latency sum used by the Var test is a single
vectorized reduction over that gather.  Approximate backends (Vivaldi
coordinates, landmark triangulation) drop in behind the same five
calls with O(n*dim) state instead of the exact O(domains*n).

Derived state: most probe cycles change nothing (a PROP-G exchange
moves two hosts, never an edge), so the overlay keeps three lazily
built per-slot views — the sorted neighbor tuple, the neighbor index
array and the neighbor-latency sum — and each mutation primitive drops
exactly the entries it can change.  Every view is built by the same
expression an uncached read would evaluate, so cached and fresh values
are bit-identical (DESIGN.md "Derived state").
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.topology.latency import LatencyOracleBase

__all__ = ["Overlay", "RoutedOverlay"]


class Overlay:
    """A logical overlay graph embedded into a physical network.

    Parameters
    ----------
    oracle:
        Pairwise latency oracle among member hosts.
    embedding:
        ``embedding[slot]`` is the member-host index occupying ``slot``.
        Must be a permutation-free injection into ``range(oracle.n)``
        (two slots can never share a host).  The overlay keeps its own
        copy and publishes it as a read-only array.
    """

    #: Whether the overlay tolerates free edge rewiring (PROP-O, LTM).
    #: Structured overlays derive their edges from identifiers/zones, so
    #: rewiring would silently corrupt routing — they override to False
    #: and only position exchange (PROP-G) may be deployed on them, which
    #: is exactly the paper's protocol-applicability matrix.
    supports_rewiring: bool = True

    def __init__(self, oracle: LatencyOracleBase, embedding: np.ndarray | Iterable[int]) -> None:
        emb = np.array(list(embedding) if not isinstance(embedding, np.ndarray) else embedding,
                       dtype=np.intp)
        if emb.ndim != 1 or emb.size == 0:
            raise ValueError("embedding must be a non-empty 1-D array")
        if np.unique(emb).size != emb.size:
            raise ValueError("embedding must map slots to distinct hosts")
        if emb.min() < 0 or emb.max() >= oracle.n:
            raise ValueError("embedding refers to a host outside the oracle")
        self.oracle = oracle
        self._publish(emb)
        self.n_slots = int(emb.size)
        self._adj: list[set[int]] = [set() for _ in range(self.n_slots)]
        self._n_edges = 0
        # Version counters let cached views (edge arrays for the
        # vectorized flooding model) invalidate themselves lazily.
        self.topology_version = 0
        self.embedding_version = 0
        self._edge_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        self._reset_views()

    def _publish(self, emb: np.ndarray) -> None:
        """Own ``emb`` as the writable ``_emb`` and publish ``embedding``
        as a read-only view of it: a host moves only through
        :meth:`swap_embedding` and :meth:`replace_host`, which keep the
        derived views coherent."""
        self._emb = emb
        self.embedding = emb.view()
        self.embedding.flags.writeable = False

    # -- derived per-slot views (DESIGN.md "Derived state") -----------------

    def _reset_views(self) -> None:
        """Start with no per-slot view built (construction and ``copy()``)."""
        n = self.n_slots
        #: ``tuple(sorted(_adj[slot]))`` — the D3 decision order.
        self._nbr_sorted: list[tuple[int, ...] | None] = [None] * n
        #: ``_adj[slot]`` as an index array, in set-iteration order.
        self._nbr_index: list[np.ndarray | None] = [None] * n
        #: ``sum_{i in N(slot)} d(slot, i)`` under the current embedding.
        self._nbr_sum: list[float | None] = [None] * n

    def _edges_changed(self, a: int, b: int) -> None:
        """The neighbor sets of ``a`` and ``b`` changed: drop their views."""
        self._nbr_sorted[a] = self._nbr_sorted[b] = None
        self._nbr_index[a] = self._nbr_index[b] = None
        self._nbr_sum[a] = self._nbr_sum[b] = None

    def _host_changed(self, slot: int) -> None:
        """``embedding[slot]`` changed: every sum with a term at ``slot``."""
        sums = self._nbr_sum
        sums[slot] = None
        # order-independent: clears entries, reads none
        for w in self._adj[slot]:
            sums[w] = None

    # -- construction ----------------------------------------------------

    def add_edge(self, a: int, b: int) -> None:
        """Insert undirected logical edge (a, b)."""
        self._check_slot(a)
        self._check_slot(b)
        if a == b:
            raise ValueError(f"self-loop at slot {a}")
        if b in self._adj[a]:
            raise ValueError(f"duplicate edge ({a}, {b})")
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._n_edges += 1
        self.topology_version += 1
        self._edges_changed(a, b)

    def remove_edge(self, a: int, b: int) -> None:
        """Delete undirected logical edge (a, b)."""
        if b not in self._adj[a]:
            raise ValueError(f"edge ({a}, {b}) not present")
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self._n_edges -= 1
        self.topology_version += 1
        self._edges_changed(a, b)

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj[a]

    # -- queries -----------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def neighbors(self, slot: int) -> frozenset[int]:
        """Neighbor set of ``slot`` (immutable snapshot view)."""
        return frozenset(self._adj[slot])

    def sorted_neighbors(self, slot: int) -> tuple[int, ...]:
        """Neighbors of ``slot`` as a sorted tuple, cached per slot.

        Deterministic order is load-bearing: this tuple feeds walk
        forwarding draws, PROP-O candidate ranking, and queue
        synchronization, so set-iteration order must never reach a
        protocol decision (``tests/properties/test_stream_ownership.py``
        runs every world with shuffled sets).  The same tuple object is
        returned until an edge at ``slot`` changes, which is what lets
        :meth:`NeighborQueue.sync` skip a reconciliation by identity.
        """
        nbrs = self._nbr_sorted[slot]
        if nbrs is None:
            nbrs = self._nbr_sorted[slot] = tuple(sorted(self._adj[slot]))
        return nbrs

    def neighbor_list(self, slot: int) -> list[int]:
        """:meth:`sorted_neighbors` as a fresh list the caller may mutate."""
        return list(self.sorted_neighbors(slot))

    def neighbor_index(self, slot: int) -> np.ndarray:
        """:meth:`sorted_neighbors` as a read-only index array, cached per slot.

        Sorted: a float sum depends on its order, and set order depends
        on the edge insertion history (``copy`` re-inserts).
        """
        idx = self._nbr_index[slot]
        if idx is None:
            idx = np.array(self.sorted_neighbors(slot), dtype=np.intp)
            idx.flags.writeable = False
            self._nbr_index[slot] = idx
        return idx

    def degree(self, slot: int) -> int:
        return len(self._adj[slot])

    def degree_sequence(self) -> np.ndarray:
        return np.asarray([len(s) for s in self._adj], dtype=np.int64)

    def min_degree(self) -> int:
        """δ(G) — the default PROP-O exchange size ``m``."""
        return int(min(len(s) for s in self._adj))

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (a, b) with a < b."""
        for a, nbrs in enumerate(self._adj):
            for b in nbrs:
                if a < b:
                    yield (a, b)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as parallel (u, v) arrays, cached per topology version."""
        cache = self._edge_cache
        if cache is not None and cache[0] == self.topology_version:
            return cache[1], cache[2]
        if self._n_edges:
            pairs = np.fromiter(
                (x for e in self.iter_edges() for x in e),
                dtype=np.intp,
                count=2 * self._n_edges,
            ).reshape(-1, 2)
            u, v = pairs[:, 0].copy(), pairs[:, 1].copy()
        else:
            u = np.empty(0, dtype=np.intp)
            v = np.empty(0, dtype=np.intp)
        self._edge_cache = (self.topology_version, u, v)
        return u, v

    # -- latency -----------------------------------------------------------

    def latency(self, a: int, b: int) -> float:
        """Physical latency (ms) between the hosts at slots ``a`` and ``b``."""
        emb = self.embedding
        return self.oracle.between(emb.item(a), emb.item(b))

    def latencies_from(self, slot: int, others: Iterable[int]) -> np.ndarray:
        """Vector of latencies from ``slot`` to each slot in ``others``."""
        others = np.asarray(list(others), dtype=np.intp)
        if others.size == 0:
            return np.empty(0, dtype=np.float64)
        emb = self.embedding
        return self.oracle.to_many(int(emb[slot]), emb[others])

    def neighbor_latency_sum(self, slot: int) -> float:
        """``sum_{i in N(slot)} d(slot, i)`` — the Var building block.

        Cached per slot; an edge change at ``slot`` or a host change at
        ``slot`` or any of its neighbors drops the entry.
        """
        total = self._nbr_sum[slot]
        if total is None:
            emb = self.embedding
            total = self.oracle.sum_to(emb.item(slot), emb[self.neighbor_index(slot)])
            self._nbr_sum[slot] = total
        return total

    def mean_logical_edge_latency(self) -> float:
        """Mean latency over logical edges — the stretch numerator."""
        if self._n_edges == 0:
            return 0.0
        u, v = self.edge_arrays()
        emb = self.embedding
        return float(self.oracle.pairwise(emb[u], emb[v]).mean())

    def total_neighbor_latency(self) -> float:
        """``sum_slots sum_{i in N(slot)} d(slot, i)`` (each edge twice).

        The monotone objective PROP descends: every accepted exchange
        strictly reduces this quantity (Section 4.2 of the paper).
        """
        if self._n_edges == 0:
            return 0.0
        u, v = self.edge_arrays()
        emb = self.embedding
        return 2.0 * float(self.oracle.pairwise(emb[u], emb[v]).sum())

    # -- mutation primitives used by PROP ---------------------------------

    def swap_embedding(self, a: int, b: int) -> None:
        """PROP-G primitive: the hosts at slots ``a`` and ``b`` trade places."""
        self._check_slot(a)
        self._check_slot(b)
        emb = self._emb
        emb[a], emb[b] = emb[b], emb[a]
        self.embedding_version += 1
        self._host_changed(a)
        self._host_changed(b)

    def rewire(self, old_a: int, old_b: int, new_a: int, new_b: int) -> None:
        """Single cut-add: remove edge (old_a, old_b), insert (new_a, new_b)."""
        self.remove_edge(old_a, old_b)
        self.add_edge(new_a, new_b)

    def replace_host(self, slot: int, host: int) -> int:
        """Churn primitive: a new host takes over ``slot``; returns the
        departed host.  The logical graph is untouched — this is the
        leave-plus-join composition of the churn model (DESIGN.md §5)."""
        self._check_slot(slot)
        host = int(host)
        if not 0 <= host < self.oracle.n:
            raise ValueError(f"host {host} outside the oracle")
        departed = int(self.embedding[slot])
        if host != departed and bool(np.any(self.embedding == host)):
            raise ValueError(f"host {host} already occupies a slot")
        self._emb[slot] = host
        self.embedding_version += 1
        self._host_changed(slot)
        return departed

    def host_at(self, slot: int) -> int:
        """Member-host index occupying ``slot``."""
        return int(self.embedding[slot])

    def exchange_compatible(self, u: int, v: int, policy: str) -> bool:
        """May slots ``u`` and ``v`` peer-exchange under ``policy``?

        Overlays with per-slot structure constraints override this —
        e.g. the two-tier Gnutella restricts PROP-O trades to same-role
        pairs so leaf/ultrapeer invariants survive.  The engine treats an
        incompatible probe as a failed attempt.
        """
        return True

    # -- views ---------------------------------------------------------------

    def is_connected(self) -> bool:
        """BFS connectivity check on the logical graph."""
        if self.n_slots == 0:
            return True
        seen = bytearray(self.n_slots)
        stack = [0]
        seen[0] = 1
        count = 1
        adj = self._adj
        while stack:
            x = stack.pop()
            # order-independent: BFS reachability count, no decision made
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    count += 1
                    stack.append(y)
        return count == self.n_slots

    def copy(self) -> "Overlay":
        """Independent overlay of the same type over the same oracle.

        The clone owns its embedding, neighbor sets and derived views;
        everything else a family computes once from identifiers or zones
        (finger tables, buckets, roles) is never mutated in place — PNS
        ``refresh`` rebinds ``fingers`` and ``finger_dist`` — and stays
        shared.
        """
        clone = copy.copy(self)
        clone._publish(self._emb.copy())
        clone._adj = [set(s) for s in self._adj]
        clone._edge_cache = None
        clone._reset_views()
        return clone

    # -- internals ----------------------------------------------------------

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.n_slots})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_slots={self.n_slots}, n_edges={self._n_edges})"


class RoutedOverlay(Overlay):
    """A structured overlay: lookups follow one greedy route per query.

    PROP-G needs nothing from a DHT but its logical edges (Theorem 2
    leaves the graph untouched), and the lookup metric needs nothing but
    the route.  A family therefore supplies :meth:`route`, :meth:`owner`
    and its table construction; path pricing and the batch forms live
    here.  A *target* is whatever the family addresses: an integer key
    (Chord, Pastry, Kademlia) or a torus point (CAN).
    """

    supports_rewiring = False  # edges are a function of identifiers / zones

    #: Size of the integer key space — set by key-routed families (CAN
    #: addresses torus points and has none).
    space: int

    def route(self, src: int, target: Any) -> list[int]:
        """Slot path from ``src`` to :meth:`owner` of ``target``, both included."""
        raise NotImplementedError

    def owner(self, target: Any) -> int:
        """Slot responsible for ``target``."""
        raise NotImplementedError

    def path_latency(self, path: Sequence[int], node_delay: np.ndarray | None = None) -> float:
        """Latency of a slot path: link latencies plus processing delays.

        ``node_delay`` (per slot) is charged at every node that receives
        the message, i.e. all path members except the source.  Links are
        summed first, left to right, then receiver delays — the order
        every committed series was produced with.
        """
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.latency(a, b)
        if node_delay is not None:
            for s in path[1:]:
                total += float(node_delay[s])
        return total

    def lookup_latency(self, src: int, target: Any, node_delay: np.ndarray | None = None) -> float:
        """End-to-end latency of a lookup for ``target`` issued at ``src``."""
        return self.path_latency(self.route(src, target), node_delay)

    def lookup_latencies(
        self,
        queries: np.ndarray | Sequence[tuple[int, Any]],
        node_delay: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-lookup latency vector over ``(src_slot, target)`` rows.

        Routes every query, prices all hops of all paths with one
        ``oracle.pairwise`` gather, then sums each path in
        :meth:`path_latency`'s order — its links, then its receiver
        delays, left to right — so each entry equals
        :meth:`lookup_latency` bit for bit.
        """
        if isinstance(queries, np.ndarray):
            if queries.ndim != 2 or queries.shape[1] != 2:
                raise ValueError("queries must be (k, 2) rows of (src, key)")
            queries = queries.tolist()
        paths = [self.route(src, target) for src, target in queries]
        hops = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths)) - 1
        chain = itertools.chain.from_iterable
        senders = np.fromiter(chain(p[:-1] for p in paths), dtype=np.intp, count=hops.sum())
        receivers = np.fromiter(chain(p[1:] for p in paths), dtype=np.intp, count=hops.sum())
        emb = self.embedding
        links = self.oracle.pairwise(emb[senders], emb[receivers])
        # One column per path: its links, then its receiver delays, then
        # zeros.  A running sum down each column adds in path_latency's
        # order (a reduction may pair terms up; an accumulation cannot).
        col = np.repeat(np.arange(len(paths)), hops)
        row = np.arange(col.size) - np.repeat(np.cumsum(hops) - hops, hops)
        depth = int(hops.max(initial=0)) * (1 if node_delay is None else 2)
        terms = np.zeros((max(depth, 1), len(paths)))
        terms[row, col] = links
        if node_delay is not None:
            terms[row + hops[col], col] = node_delay[receivers]
        return np.add.accumulate(terms, axis=0)[-1]
