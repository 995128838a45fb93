"""Gnutella-like unstructured overlay.

First-generation file-sharing systems (Gnutella, Kazaa) build an
unconstrained random graph and locate objects by TTL-scoped flooding.
This module provides:

* :meth:`GnutellaOverlay.build` — a connected random graph with a
  heavy-tailed degree distribution and a guaranteed minimum degree.  When
  per-host capacities are supplied, powerful hosts receive proportionally
  more connections, reproducing the measured power-law-like character of
  the real Gnutella network (Ripeanu et al.) that the paper's PROP-O
  analysis leans on ("powerful nodes own more connections").
* a flooding lookup-latency model: the latency of a flooded query is the
  latency of the fastest path from querier to target within the flood
  scope, optionally adding per-node processing delays (the Fig. 7
  heterogeneity experiment).  Exact min-latency paths are computed with
  Dijkstra (scipy, C speed); a hop-bounded Bellman-Ford variant models
  small TTLs faithfully.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.overlay.base import Overlay
from repro.topology.latency import LatencyOracle

__all__ = ["GnutellaOverlay"]


class GnutellaOverlay(Overlay):
    """Unstructured overlay with flooding-based lookups."""

    DEFAULT_TTL = 7

    @classmethod
    def build(
        cls,
        oracle: LatencyOracle,
        rng: np.random.Generator,
        *,
        min_degree: int = 4,
        mean_extra_degree: float = 2.0,
        capacity_weight: np.ndarray | None = None,
        embedding: np.ndarray | None = None,
    ) -> "GnutellaOverlay":
        """Construct a connected unstructured overlay over all oracle members.

        Parameters
        ----------
        min_degree:
            Hard lower bound on every node's degree (paper experiments use
            δ(G) = 4 as the default PROP-O exchange size).
        mean_extra_degree:
            Mean of the geometric surplus degree on top of ``min_degree``
            — the heavy-ish tail.
        capacity_weight:
            Optional per-*slot* positive weights; higher-weight slots
            attract proportionally more surplus edges (fast nodes become
            hubs).  Length must equal the member count.
        embedding:
            Optional explicit slot->host mapping; defaults to identity
            (slot i is host i), matching "a new node randomly chooses some
            existing nodes … as its logical neighbors" since hosts are
            already a random sample of the physical network.
        """
        n = oracle.n if embedding is None else len(embedding)
        if n < min_degree + 1:
            raise ValueError(f"need more than min_degree+1={min_degree + 1} nodes, got {n}")
        if embedding is None:
            embedding = np.arange(n, dtype=np.intp)
        ov = cls(oracle, embedding)

        # Target surplus degrees: geometric tail, scaled by capacity.
        surplus = rng.geometric(1.0 / (1.0 + mean_extra_degree), size=n) - 1
        if capacity_weight is not None:
            w = np.asarray(capacity_weight, dtype=np.float64)
            if w.shape != (n,) or np.any(w <= 0):
                raise ValueError("capacity_weight must be positive with one entry per slot")
            scale = w / w.mean()
            surplus = np.rint(surplus * scale).astype(np.int64)
        target = np.maximum(min_degree, min_degree + surplus)

        # 1. Random attachment tree => connected.
        order = rng.permutation(n)
        for i in range(1, n):
            a = int(order[i])
            b = int(order[rng.integers(0, i)])
            ov.add_edge(a, b)

        # 2. Fill remaining stubs by weighted random pairing.
        deficit = target - ov.degree_sequence()
        stubs: list[int] = [s for s in range(n) for _ in range(max(0, int(deficit[s])))]
        rng.shuffle(stubs)
        misses = 0
        while len(stubs) >= 2 and misses < 10 * n:
            a = stubs.pop()
            b = stubs.pop()
            if a == b or ov.has_edge(a, b):
                stubs.extend((a, b))
                rng.shuffle(stubs)
                misses += 1
                continue
            ov.add_edge(a, b)

        # 3. Top up any node still under min_degree.
        for s in range(n):
            guard = 0
            while ov.degree(s) < min_degree and guard < 10 * n:
                t = int(rng.integers(0, n))
                if t != s and not ov.has_edge(s, t):
                    ov.add_edge(s, t)
                guard += 1
            if ov.degree(s) < min_degree:
                raise RuntimeError(f"could not reach min_degree at slot {s}")
        return ov

    # -- structural membership ---------------------------------------------

    def join(self, host: int, rng: np.random.Generator, *, degree: int | None = None) -> int:
        """A new host joins, connecting to random existing peers.

        Mirrors the paper's description of unstructured joins ("a new
        node randomly chooses some existing nodes of the system as its
        logical neighbors").  ``degree`` defaults to the overlay's
        current minimum degree.  Returns the new slot.
        """
        if degree is None:
            degree = self.min_degree()
        if not 1 <= degree <= self.n_slots:
            raise ValueError(f"degree must be in [1, {self.n_slots}], got {degree}")
        slot = self.append_slot(host)
        peers = rng.choice(slot, size=degree, replace=False)
        for p in peers:
            self.add_edge(slot, int(p))
        return slot

    def leave(self, slot: int) -> int:
        """A peer departs gracefully, handing its neighbors to each other.

        Connectivity is preserved by chaining the departing peer's
        neighbors (n1-n2, n2-n3, …) where not already adjacent — the
        standard unstructured-overlay repair.  Returns the departed
        host.  Note the swap-remove renumbering contract of
        :meth:`Overlay.pop_slot`.
        """
        nbrs = sorted(self._adj[slot])
        for a, b in zip(nbrs, nbrs[1:]):
            if not self.has_edge(a, b):
                self.add_edge(a, b)
        for x in sorted(self._adj[slot]):
            self.remove_edge(slot, x)
        return self.pop_slot(slot)

    # -- flooding lookup model -------------------------------------------

    def _directed_weights(
        self, node_delay: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edge list (tail, head, weight) of the logical graph.

        ``weight(u -> v) = d(u, v) + node_delay[v]``: a query forwarded to
        ``v`` pays the link latency plus ``v``'s processing delay.  The
        querier's own processing is not charged (it issues, not forwards).
        ``node_delay`` is indexed by *slot*.
        """
        u, v = self.edge_arrays()
        emb = self.embedding
        w = self.oracle.pairwise(emb[u], emb[v])
        tails = np.concatenate([u, v])
        heads = np.concatenate([v, u])
        weights = np.concatenate([w, w])
        if node_delay is not None:
            nd = np.asarray(node_delay, dtype=np.float64)
            if nd.shape != (self.n_slots,):
                raise ValueError("node_delay must have one entry per slot")
            weights = weights + nd[heads]
        return tails, heads, weights

    def lookup_latency_matrix(
        self,
        sources: np.ndarray | list[int],
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
    ) -> np.ndarray:
        """Min lookup latency from each source slot to every slot.

        Returns a ``(len(sources), n_slots)`` matrix.  With ``ttl=None``
        the flood scope is unbounded (exact Dijkstra — the regime of the
        paper's default TTL=7 floods, which reach the whole overlay at
        these sizes).  With an integer ``ttl`` a hop-bounded Bellman-Ford
        models small scopes exactly; unreached slots get ``inf``.
        """
        sources = np.asarray(sources, dtype=np.intp)
        tails, heads, weights = self._directed_weights(node_delay)
        if ttl is None:
            mat = sparse.coo_matrix(
                (weights, (tails, heads)), shape=(self.n_slots, self.n_slots)
            ).tocsr()
            return csgraph.dijkstra(mat, directed=True, indices=sources)
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        dist = np.full((sources.size, self.n_slots), np.inf)
        dist[np.arange(sources.size), sources] = 0.0
        if tails.size == 0:
            return dist
        for _ in range(ttl):
            cand = dist[:, tails] + weights  # (k, 2E)
            new = dist.copy()
            np.minimum.at(new, (slice(None), heads), cand)
            if np.array_equal(new, dist):
                break
            dist = new
        return dist

    def lookup_latency(
        self,
        src: int,
        dst: int,
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
        charge_destination: bool = False,
    ) -> float:
        """Latency of one flooded lookup (``inf`` if out of flood scope).

        A lookup completes when the query first reaches the node holding
        the object, so the destination's own processing delay (object
        retrieval, not routing) is excluded unless ``charge_destination``.
        """
        val = float(self.lookup_latency_matrix([src], node_delay, ttl)[0, dst])
        if node_delay is not None and not charge_destination and src != dst and np.isfinite(val):
            val -= float(node_delay[dst])
        return val

    def mean_lookup_latency(
        self,
        pairs: np.ndarray,
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
        charge_destination: bool = False,
        retry_timeout: float | None = None,
    ) -> float:
        """Mean latency over ``pairs`` — rows of (src_slot, dst_slot).

        This is the paper's Gnutella metric ("the average lookup latency
        derived from … lookup operations").  Pairs sharing a source are
        batched into a single Dijkstra run.

        Lookups whose target lies outside the flood scope (finite ``ttl``
        only) do not complete on the first flood.  With ``retry_timeout``
        set, the querier re-floods at a larger scope after the timeout —
        Gnutella's expanding-ring requery — and the lookup costs
        ``retry_timeout`` plus the unbounded-flood latency.  Without it,
        failed lookups are simply excluded from the average (``inf`` if
        every lookup fails); use :meth:`lookup_success_rate` to observe
        the failure fraction.
        """
        vals = self._lookup_values(pairs, node_delay, ttl, charge_destination)
        failed = ~np.isfinite(vals)
        if retry_timeout is not None and ttl is not None and failed.any():
            retry = self._lookup_values(
                np.asarray(pairs)[failed], node_delay, None, charge_destination
            )
            vals = vals.copy()
            vals[failed] = retry_timeout + retry
        reached = vals[np.isfinite(vals)]
        if reached.size == 0:
            return float("inf")
        return float(np.mean(reached))

    def lookup_latencies(
        self,
        pairs: np.ndarray,
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
        charge_destination: bool = False,
    ) -> np.ndarray:
        """Per-lookup latency vector (``inf`` for out-of-scope targets).

        The distribution behind :meth:`mean_lookup_latency` — used for
        percentile reporting (tail latency is what heterogeneity hurts
        first).
        """
        return self._lookup_values(pairs, node_delay, ttl, charge_destination)

    def replica_lookup_latency(
        self,
        src: int,
        holders: np.ndarray | list[int],
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
        charge_destination: bool = False,
    ) -> float:
        """Latency of a flooded lookup for a *replicated* object.

        Real file-sharing queries succeed at the first replica the flood
        reaches: the latency is the minimum over the holder set.  Returns
        ``inf`` when no holder lies inside the flood scope; ``0`` when
        the querier holds the object itself.
        """
        holders = np.asarray(holders, dtype=np.intp)
        if holders.size == 0:
            raise ValueError("need at least one holder")
        if np.any(holders == src):
            return 0.0
        row = self.lookup_latency_matrix([src], node_delay, ttl)[0]
        vals = row[holders]
        if node_delay is not None and not charge_destination:
            vals = vals - np.asarray(node_delay, dtype=np.float64)[holders]
        return float(vals.min())

    def mean_replica_lookup_latency(
        self,
        queries: list[tuple[int, np.ndarray]],
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
    ) -> float:
        """Mean latency over (src, holder-set) queries; failures excluded.

        Failed lookups (no holder in scope) are excluded from the mean,
        matching :meth:`mean_lookup_latency`; all-failed returns ``inf``.
        """
        vals = np.array([
            self.replica_lookup_latency(src, holders, node_delay, ttl)
            for src, holders in queries
        ])
        reached = vals[np.isfinite(vals)]
        return float(reached.mean()) if reached.size else float("inf")

    def walk_search_latency(
        self,
        src: int,
        dst: int,
        rng: np.random.Generator,
        *,
        walkers: int = 16,
        max_steps: int = 128,
        node_delay: np.ndarray | None = None,
    ) -> float:
        """Latency of a k-walker random-walk search (extension).

        The successor of flooding in later unstructured systems: ``k``
        independent walkers step to uniform random neighbors; the search
        completes when the first walker reaches ``dst``.  Returns the
        first-arrival time, or ``inf`` when no walker finds the target
        within ``max_steps`` steps.  Walk searches trade the flood's
        message explosion for latency — and benefit from PROP exactly as
        floods do, since every step is a physical link crossing.
        """
        if walkers < 1 or max_steps < 1:
            raise ValueError("walkers and max_steps must be >= 1")
        if src == dst:
            return 0.0
        emb = self.embedding
        oracle = self.oracle
        best = np.inf
        for _ in range(walkers):
            t = 0.0
            cur = src
            for _ in range(max_steps):
                nbrs = self._adj[cur]
                if not nbrs:
                    break
                nxt = self.sorted_neighbors(cur)[int(rng.integers(0, len(nbrs)))]
                t += oracle.between(int(emb[cur]), int(emb[nxt]))
                cur = nxt
                if cur == dst:
                    best = min(best, t)
                    break
                # destination processing excluded (same convention as
                # flooding lookups); forwarders pay theirs
                if node_delay is not None:
                    t += float(node_delay[cur])
                if t >= best:
                    break  # this walker can no longer win
        return best

    def flood_traffic(self, src: int, ttl: int) -> int:
        """Message count of one TTL-scoped flood from ``src``.

        Gnutella flooding: every node that receives the query with
        remaining TTL forwards it to all neighbors except the sender, so
        the message count is ``deg(src)`` plus ``deg(v) - 1`` for every
        node ``v`` reached at hop distance ``1 <= d < ttl``.  This is
        LTM's original cost metric ("reduce … unnecessary traffic");
        note it depends only on the logical topology, so PROP-G leaves
        it exactly unchanged while LTM's cuts reduce it.
        """
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        from repro.metrics.graphstats import hop_distance_matrix

        hops = hop_distance_matrix(self, np.array([src]))[0]
        deg = self.degree_sequence()
        total = int(deg[src])
        forwarders = np.flatnonzero((hops >= 1) & (hops < ttl))
        total += int((deg[forwarders] - 1).sum())
        return total

    def lookup_success_rate(
        self,
        pairs: np.ndarray,
        ttl: int | None = None,
    ) -> float:
        """Fraction of lookups whose target lies inside the flood scope."""
        vals = self._lookup_values(pairs, None, ttl, True)
        return float(np.mean(np.isfinite(vals)))

    def _lookup_values(
        self,
        pairs: np.ndarray,
        node_delay: np.ndarray | None,
        ttl: int | None,
        charge_destination: bool,
    ) -> np.ndarray:
        """Per-pair flood latency, one shortest-path tree per *root*.

        A flood is symmetric up to the endpoints' own processing delays:
        the fastest ``s -> t`` path reversed is the fastest ``t -> s``
        path with the same hop count, and the two costs differ only in
        which endpoint's delay is charged (``cost(s->t) - nd[t] ==
        cost(t->s) - nd[s]``).  So each pair may be solved from either
        end: from whichever endpoint occurs in more pairs of the batch,
        and a pair left alone on its tree moves to its other endpoint
        when that one is a root anyway.  That covers a uniform sample
        with about a third fewer trees than one per distinct source.
        """
        pairs = np.asarray(pairs, dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (k, 2) array of (src, dst) slots")
        src, dst = pairs[:, 0], pairs[:, 1]
        uses = np.bincount(pairs.ravel(), minlength=self.n_slots)
        flipped = uses[dst] > uses[src]  # ties -> solve from the source
        near, far = np.where(flipped, dst, src), np.where(flipped, src, dst)
        served = np.bincount(near, minlength=self.n_slots)  # pairs per tree
        flipped ^= (served[near] == 1) & (served[far] > 0)
        far = np.where(flipped, src, dst)
        roots, inverse = np.unique(np.where(flipped, dst, src), return_inverse=True)
        vals = self.lookup_latency_matrix(roots, node_delay, ttl)[inverse, far]
        if node_delay is not None:
            nd = np.asarray(node_delay, dtype=np.float64)
            if charge_destination:  # a flipped tree charged src: charge dst instead
                vals[flipped] += (nd[dst] - nd[src])[flipped]
            else:  # every tree charged its far end: now neither end is
                vals = vals - nd[far]
        vals[src == dst] = 0.0  # a self-lookup never leaves the querier
        return vals

    def copy(self) -> "GnutellaOverlay":
        clone = GnutellaOverlay(self.oracle, self.embedding.copy())
        self._copy_graph_into(clone)
        return clone
