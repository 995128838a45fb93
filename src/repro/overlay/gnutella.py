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
  small TTLs faithfully.  A batch of unbounded-flood lookups is priced
  by meeting two limited Dijkstra balls, one around each endpoint, over
  the arc that crosses the middle of the fastest path; a certificate
  proves each met value exact, and the pairs it cannot prove fall back
  to full trees (the section at the end of this module has the
  argument).  A sample of 1000 lookups on ts-large settles 31 % of the
  slots the trees alone did at n = 1000 and 17 % at n = 5000.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.overlay.base import Overlay
from repro.topology.latency import LatencyOracle

__all__ = ["GnutellaOverlay"]

#: Rows of ``n`` values in any one transient matrix of the flood
#: sampler.  Trees, balls and meets are computed a chunk at a time, so a
#: sample's memory stays flat however many pairs it prices.
_CHUNK_ROWS = 64
#: Full trees a meet starts from: they answer their own pairs and give
#: the distance scale the ball radius is chosen on.
_SCALE_TREES = 8
#: Marginal work per ball slot, in slots of a full tree: settling it in
#: a limited Dijkstra (once per distinct endpoint), and relaxing its
#: out-arcs in a meet (once per pair).  A pair the meet cannot prove
#: costs about one full tree.  Measured on ts-large at n = 1000 and 5000
#: (1.0-1.05 and 0.5-0.66).
_BALL_COST = 1.0
_MEET_COST = 0.6


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

    #: Every flood runs over one directed graph, whoever queries, so two
    #: floods may meet in the middle.  The two-tier overlay turns it off:
    #: there a leaf forwards its own query and nobody else's.
    _shared_flood_graph = True

    def _slot_delays(self, node_delay: np.ndarray) -> np.ndarray:
        nd = np.asarray(node_delay, dtype=np.float64)
        if nd.shape != (self.n_slots,):
            raise ValueError("node_delay must have one entry per slot")
        return nd

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
            weights = weights + self._slot_delays(node_delay)[heads]
        return tails, heads, weights

    def _flood_graph(
        self, node_delay: np.ndarray | None
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """The flood graph in CSR form, plus each arc's bare link latency
        in the same arc order (the weights of :meth:`_directed_weights`
        without the head's processing delay)."""
        tails, heads, link = self._directed_weights(None)
        order = np.argsort(tails, kind="stable")
        heads, link = heads[order], link[order]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(tails, minlength=self.n_slots))])
        weights = link if node_delay is None else link + self._slot_delays(node_delay)[heads]
        graph = sparse.csr_matrix((weights, heads, indptr), shape=(self.n_slots,) * 2)
        return graph, link

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
        if ttl is None:
            graph, _ = self._flood_graph(node_delay)
            return csgraph.dijkstra(graph, directed=True, indices=sources)
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        tails, heads, weights = self._directed_weights(node_delay)
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
        """Per-pair flood latency: balls that meet, then trees for the rest.

        Both stages compute the *core* latency of a pair — the fastest
        path's link latencies plus the processing delays of the nodes
        that forward the query, neither endpoint's own delay included.
        A flood is symmetric in that quantity, so either end may solve
        a pair.  The destination's delay is added back at the end when
        it is charged.  An unbounded flood on one shared graph is
        resolved first by :meth:`_meet_values`; the pairs it cannot
        prove, and every pair of a TTL-scoped flood, take
        :meth:`_tree_values`.

        Both are exact: the meet's certificate is argued at the end of
        this module.  On ts-large (one core) a 1000-lookup sample takes
        ≈ 50 ms at n = 1000 and ≈ 0.25 s at n = 5000, against ≈ 0.1 s
        and ≈ 1.1 s from trees alone; in 10 alternating ``make pairs``
        one simulated hour of Fig 5(a) fell 2.03 → 1.28 s and of
        n = 5000 6.20 → 4.08 s.
        """
        pairs = np.asarray(pairs, dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (k, 2) array of (src, dst) slots")
        src, dst = pairs[:, 0], pairs[:, 1]
        nd = None if node_delay is None else self._slot_delays(node_delay)
        vals = np.zeros(len(pairs))  # a self-lookup never leaves the querier
        moving = src != dst
        todo = moving.copy()
        if ttl is None and self._shared_flood_graph and todo.any():
            met = self._meet_values(pairs[todo], nd)
            vals[todo] = met
            todo[todo] = np.isnan(met)
        if todo.any():
            vals[todo] = self._tree_values(pairs[todo], nd, ttl)
        if nd is not None and charge_destination:
            vals[moving] += nd[dst[moving]]
        return vals

    def _tree_values(
        self, pairs: np.ndarray, nd: np.ndarray | None, ttl: int | None
    ) -> np.ndarray:
        """Core latency of each pair (``src != dst``), one shortest-path
        tree per *root*.

        Each pair is solved from whichever endpoint occurs in more pairs
        of the batch, and a pair left alone on its tree moves to its
        other endpoint when that one is a root anyway.  That covers a
        uniform sample with about a third fewer trees than one per
        distinct source.  Trees are computed a chunk of roots at a time,
        so no matrix holds more than ``_CHUNK_ROWS`` rows.
        """
        src, dst = pairs[:, 0], pairs[:, 1]
        uses = np.bincount(pairs.ravel(), minlength=self.n_slots)
        flipped = uses[dst] > uses[src]  # ties -> solve from the source
        near = np.where(flipped, dst, src)
        served = np.bincount(near, minlength=self.n_slots)  # pairs per tree
        flipped ^= (served[near] == 1) & (served[np.where(flipped, src, dst)] > 0)
        near, far = np.where(flipped, dst, src), np.where(flipped, src, dst)
        roots, inverse = np.unique(near, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        first = np.searchsorted(inverse[order], np.arange(roots.size + 1))
        vals = np.empty(len(pairs))
        for lo in range(0, roots.size, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, roots.size)
            rows = self.lookup_latency_matrix(roots[lo:hi], nd, ttl)
            solved = order[first[lo]:first[hi]]
            vals[solved] = rows[inverse[solved] - lo, far[solved]]
        if nd is not None:  # every tree charged its far end
            vals -= nd[far]
        return vals

    def _meet_values(self, pairs: np.ndarray, nd: np.ndarray | None) -> np.ndarray:
        """Core latency of each pair (``src != dst``) from two balls that
        meet, ``NaN`` where the meet proves nothing.

        A few full trees come first, from the batch's busiest endpoints:
        they answer those endpoints' pairs outright, and their distances
        are the overlay's own distance scale, from which
        :func:`_meet_radius` picks the ball radius.  Every other pair is
        met by :func:`_meet`.
        """
        graph, link = self._flood_graph(nd)
        ends, inverse = np.unique(pairs.ravel(), return_inverse=True)
        ends_of = inverse.reshape(-1, 2)
        busiest = np.argsort(-np.bincount(inverse), kind="stable")[:_SCALE_TREES]
        trees = csgraph.dijkstra(graph, directed=True, indices=ends[busiest])
        delay = np.zeros(self.n_slots) if nd is None else nd
        row = np.full(ends.size, -1)
        row[busiest] = np.arange(busiest.size)
        vals = np.full(len(pairs), np.nan)
        for near, far in ((0, 1), (1, 0)):
            hit = np.isnan(vals) & (row[ends_of[:, near]] >= 0)
            there = pairs[hit, far]
            vals[hit] = trees[row[ends_of[hit, near]], there] - delay[there]
        rest = np.isnan(vals)
        if rest.any():
            slack = float(delay.max())
            radius = _meet_radius(trees, delay, ends[busiest], slack,
                                  np.unique(ends_of[rest]).size, int(rest.sum()))
            vals[rest] = _meet(graph, link, pairs[rest], radius, slack)
        return vals


# -- meeting in the middle ---------------------------------------------------
#
# ``F_r(x)`` is a full flood's latency from ``r`` to ``x``: links plus the
# processing delay of every node after ``r``, ``x`` included.  The *core*
# latency ``G(s, t)`` of a pair charges neither endpoint's delay, so
# ``G(s, t) = G(t, s)`` and, for every arc ``x -> y`` with link latency
# ``d(x, y)``, ``F_s(x) + d(x, y) + F_t(y)`` is the core cost of a walk
# from ``s`` to ``t``: at least ``G(s, t)``, and equal to it on an arc of
# a fastest path.
#
# The ball of radius ``L`` around ``r`` is every ``x`` with
# ``F_r(x) <= L``; ``dijkstra(limit=L)`` returns exactly those entries,
# bit-identical to a full tree's.  ``M`` is the minimum of the sum above
# over arcs leaving ball(s) into ball(t).  Walk the fastest path
# ``s = v_0 .. v_k = t`` and let ``v_i`` be its last node in ball(s).
# Either ``i = k`` and the arc into ``t`` counts (``F_t(t) = 0``), or
# ``F_s(v_{i+1}) > L`` and, since ``F_s(v) + F_t(v) = G + nd[v]`` on the
# path, ``F_t(v_{i+1}) < G + nd[v_{i+1}] - L``.  So whenever
# ``G <= 2 L - max(nd)`` the arc ``v_i -> v_{i+1}`` counts and
# ``M = G``; and ``M <= 2 L - max(nd)`` implies that bound on ``G``.
# That certificate proves ``M`` exact.  A meet over shared *vertices*
# only would not be: one long arc can cross the middle of a fastest
# path with neither end in the other ball (arcs reach 1 890 ms on
# ts-large).


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + c) for a, c in zip(starts, counts)])``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _spans(weights: np.ndarray, budget: int) -> list[slice]:
    """Consecutive runs of items, each weighing at most ``budget`` plus
    the weight of its last item."""
    cum = np.cumsum(weights)
    cuts = np.flatnonzero(np.diff((cum - weights) // budget)) + 1
    edges = [0, *cuts.tolist(), len(weights)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _balls(
    graph: sparse.csr_matrix, roots: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every root's ball as CSR rows: ``slots[ptr[i]:ptr[i + 1]]`` and
    their ``dists`` are the slots within ``radius`` of ``roots[i]``.

    Only the finite entries are kept; the limited trees are computed a
    chunk of roots at a time.
    """
    n = graph.shape[0]
    counts, slots, dists = [], [], []
    for lo in range(0, roots.size, _CHUNK_ROWS):
        rows = csgraph.dijkstra(graph, directed=True, indices=roots[lo:lo + _CHUNK_ROWS],
                                limit=radius)
        inside = rows <= radius
        counts.append(np.count_nonzero(inside, axis=1))
        slots.append((np.flatnonzero(inside) % n).astype(np.int32))
        dists.append(rows[inside])
    ptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return ptr, np.concatenate(slots), np.concatenate(dists)


def _meet(
    graph: sparse.csr_matrix,
    link: np.ndarray,
    pairs: np.ndarray,
    radius: float,
    slack: float,
) -> np.ndarray:
    """Core latency of each (s, t) pair whose balls of ``radius`` meet
    with the certificate ``M <= 2 * radius - slack``, ``NaN`` elsewhere.

    ``graph`` and ``link`` come from :meth:`GnutellaOverlay._flood_graph`
    and ``slack`` is the largest node delay (0 without delays).  Each
    pair relaxes the out-arcs of whichever of its two balls has fewer,
    into the other ball laid out densely; pairs are met a chunk at a
    time, so no buffer holds more than about ``_CHUNK_ROWS`` rows of
    ``n`` values.
    """
    n = graph.shape[0]
    ends, inverse = np.unique(pairs.ravel(), return_inverse=True)
    ptr, slot, dist = _balls(graph, ends, radius)
    size = np.diff(ptr)
    indptr, heads = graph.indptr, graph.indices
    degree = np.diff(indptr)
    owner = np.repeat(np.arange(ends.size), size)
    arcs = np.bincount(owner, weights=degree[slot], minlength=ends.size).astype(np.intp)
    a, b = inverse.reshape(-1, 2).T
    swap = arcs[b] < arcs[a]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    met = np.empty(len(pairs))
    for part in _spans(n + arcs[a], _CHUNK_ROWS * n):
        pa, pb = a[part], b[part]
        rows = np.arange(pa.size) * n
        far = np.full(pa.size * n, np.inf)
        take = _ragged(ptr[pb], size[pb])
        far[np.repeat(rows, size[pb]) + slot[take]] = dist[take]
        take = _ragged(ptr[pa], size[pa])
        x = slot[take]
        out = _ragged(indptr[x], degree[x])
        cand = np.repeat(dist[take], degree[x]) + link[out]
        cand += far[np.repeat(np.repeat(rows, size[pa]), degree[x]) + heads[out]]
        reach = arcs[pa]
        some = reach > 0
        best = np.full(pa.size, np.inf)
        best[some] = np.minimum.reduceat(cand, (np.cumsum(reach) - reach)[some])
        met[part] = best
    met[~(met <= 2.0 * radius - slack)] = np.nan
    return met


def _meet_radius(
    trees: np.ndarray,
    delay: np.ndarray,
    roots: np.ndarray,
    slack: float,
    balls: int,
    pairs: int,
) -> float:
    """The ball radius with the least estimated work for a batch.

    ``trees`` are full trees from ``roots``: their entries sample both
    the share of slots a ball of each radius holds and the core latency
    of a pair.  A radius ``L`` costs ``balls`` limited trees and
    ``pairs`` meets of that share, plus one full tree for each pair
    whose core latency exceeds ``2 L - slack``; the candidates place
    ``2 L - slack`` on 64 quantiles of the sampled core latencies.
    """
    k, n = trees.shape
    reach = np.sort(trees, axis=None)
    core = np.sort(np.delete(trees - delay, np.arange(k) * n + roots))
    bound = core[np.linspace(0, core.size - 1, 64).astype(np.intp)]
    radius = np.maximum((bound + slack) / 2.0, 0.0)
    radius = radius[np.isfinite(radius)]
    if radius.size == 0:
        return 0.0
    share = np.searchsorted(reach, radius, side="right") / reach.size
    failed = 1.0 - np.searchsorted(core, 2.0 * radius - slack, side="right") / core.size
    work = share * (balls * _BALL_COST + pairs * _MEET_COST) + failed * pairs
    return float(radius[np.argmin(work)])
