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
        every lookup fails).  A ``retry_timeout`` that is negative or not
        finite is a ``ValueError``: it would price a requery below (or
        beyond) any flood.
        """
        if retry_timeout is not None and not 0.0 <= retry_timeout < np.inf:
            raise ValueError(
                f"retry_timeout must be finite and >= 0, got {retry_timeout}")
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
