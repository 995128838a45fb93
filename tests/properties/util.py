"""Shared machinery for the property-based (hypothesis) suites.

The theorems quantify over *arbitrary* connected overlays and latency
spaces, so these helpers build both from a raw integer seed: a random
symmetric latency matrix (no metric assumptions — the theorems hold
without the triangle inequality) and a random connected graph (spanning
tree plus extra edges).
"""

from __future__ import annotations

import numpy as np

from repro.overlay.base import Overlay
from repro.topology.latency import LatencyOracleBase

__all__ = ["FakeOracle", "fresh_sum", "random_connected_overlay", "random_prop_o_step",
           "stale_views"]


class FakeOracle(LatencyOracleBase):
    """Minimal oracle backend: a random symmetric positive matrix.

    Implements the abstract :class:`LatencyOracleBase` surface so the
    property suites exercise the same derived queries (``to_many``,
    ``sum_to``, ...) the protocol uses, over a latency space with no
    metric assumptions (the theorems hold without the triangle
    inequality).
    """

    backend = "fake"

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        raw = rng.random((n, n)) * 100.0 + 1.0
        self.matrix = np.triu(raw, 1)
        self.matrix = self.matrix + self.matrix.T
        self.hosts = np.arange(n, dtype=np.int64)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.matrix[a, b]

    def state_nbytes(self) -> int:
        return int(self.matrix.nbytes)

    def mean_physical_link(self) -> float:
        return float(self.matrix[np.triu_indices(self.n, 1)].mean())


def random_connected_overlay(seed: int, n_min: int = 4, n_max: int = 20) -> Overlay:
    """Random connected overlay with a random latency space."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    oracle = FakeOracle(n, rng)
    ov = Overlay(oracle, rng.permutation(n))
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        ov.add_edge(a, b)
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b and not ov.has_edge(int(a), int(b)):
            ov.add_edge(int(a), int(b))
    return ov


def random_prop_o_step(ov: Overlay, rng: np.random.Generator, m_max: int = 4):
    """One legal PROP-O probe: walk, select, and (maybe) a trade.

    Returns ``(u, v, give_u, give_v, var, path)`` or ``None`` when the
    drawn walk yields no legal trade.
    """
    from repro.core.varcalc import select_prop_o
    from repro.core.walk import random_walk

    u = int(rng.integers(0, ov.n_slots))
    nbrs = ov.neighbor_list(u)
    if not nbrs:
        return None
    first = nbrs[int(rng.integers(0, len(nbrs)))]
    nhops = int(rng.integers(1, 4))
    v, path = random_walk(ov, u, first, nhops, rng)
    if v == u:
        return None
    m = int(rng.integers(1, m_max + 1))
    give_u, give_v, var = select_prop_o(ov, u, v, m, forbidden=set(path))
    if not give_u:
        return None
    return u, v, give_u, give_v, var, path


def fresh_sum(ov: Overlay, slot: int, emb: np.ndarray | None = None) -> float:
    """The uncached ``neighbor_latency_sum`` formula, over ``emb``."""
    emb = ov.embedding if emb is None else emb
    nbrs = ov._adj[slot]
    if not nbrs:
        return 0.0
    idx = np.array(sorted(nbrs), dtype=np.intp)
    return ov.oracle.sum_to(int(emb[slot]), emb[idx])


def stale_views(ov: Overlay) -> list[str]:
    """Where ``ov``'s adjacency or cached views differ from the uncached
    formula (DESIGN.md "Derived state"); empty when they all agree."""
    adj = ov._adj
    stale = [f"edge ({s}, {t}) is one-sided" for s, nbrs in enumerate(adj)
             for t in sorted(nbrs) if s not in adj[t]]
    if 2 * ov._n_edges != sum(map(len, adj)):
        stale.append(f"_n_edges {ov._n_edges} for {sum(map(len, adj))} endpoints")
    for s, nbrs in enumerate(adj):
        order = sorted(nbrs)
        if ov._nbr_sorted[s] not in (None, tuple(order)):
            stale.append(f"_nbr_sorted[{s}]")
        if ov._nbr_index[s] is not None and ov._nbr_index[s].tolist() != order:
            stale.append(f"_nbr_index[{s}]")
        if ov._nbr_sum[s] is not None and ov._nbr_sum[s] != fresh_sum(ov, s):
            stale.append(f"_nbr_sum[{s}] = {ov._nbr_sum[s]!r}, uncached {fresh_sum(ov, s)!r}")
    cache = ov._edge_cache
    if cache is not None and cache[0] == ov.topology_version:
        cached = set(zip(cache[1].tolist(), cache[2].tolist()))
        if cached != set(ov.iter_edges()) or len(cached) != cache[1].size:
            stale.append(f"_edge_cache at topology_version {cache[0]}")
    return stale
