"""Latency oracles over a physical network.

The overlay and the PROP protocol constantly ask "what is the IP-level
latency between hosts a and b?".  Every consumer goes through the
:class:`LatencyOracleBase` protocol — ``between`` / ``to_many`` /
``pairwise`` / ``rows`` / ``sum_to`` / ``mean_pairwise`` / ``n`` — so
the latency *source* is pluggable:

* :class:`LatencyOracle` (this module) — the exact backend: shortest
  paths among the member hosts, stored factored by anchor decomposition
  (see the class docstring) — one row of n floats per pendant domain
  plus per-member offsets and small same-domain blocks, 13.4 MB at
  n=5000 on ts-large where the n x n matrix was 200 MB.  Dijkstra runs
  from the distinct anchors only, not from every member.
* :class:`~repro.topology.vivaldi.VivaldiOracle` — d-dimensional
  synthetic coordinates fitted by spring relaxation over O(n*k) sampled
  pairs: O(n*dim) memory, approximate.
* :class:`~repro.topology.landmark.LandmarkOracle` — exact distances to
  m landmark hosts, triangulation for the rest: O(n*m) memory.

Hot-path note: an exact query is one ``take`` from a contiguous row
plus one offset add; the same-domain correction is found by a NaN the
gathered values carry, so only the calls that need the blocks pay for
them.
"""

from __future__ import annotations

import abc
import math
import sys

import numpy as np
import numpy.typing as npt
from scipy.sparse import csgraph

from repro.topology.transit_stub import PhysicalNetwork

__all__ = ["LatencyOracle", "LatencyOracleBase", "validate_hosts"]

FloatArray = npt.NDArray[np.float64]


def validate_hosts(network: PhysicalNetwork, hosts: np.ndarray) -> np.ndarray:
    """Canonicalize and validate a member-host array against ``network``.

    Shared by every oracle backend.
    """
    hosts = np.asarray(hosts, dtype=np.int64)
    if hosts.ndim != 1 or hosts.size == 0:
        raise ValueError("hosts must be a non-empty 1-D array of host ids")
    if np.unique(hosts).size != hosts.size:
        raise ValueError("hosts must be unique")
    if int(hosts.min()) < 0 or int(hosts.max()) >= network.n:
        raise ValueError("host id out of range")
    return hosts


def shortest_path_rows(network: PhysicalNetwork, sources: np.ndarray) -> FloatArray:
    """Shortest-path latency from each of ``sources`` to every host.

    Returns a ``(len(sources), network.n)`` array.  The shared Dijkstra
    entry point of all backends; callers chunk ``sources`` when memory
    matters.
    """
    adj = network.adjacency()
    full = csgraph.dijkstra(adj, directed=False, indices=sources)
    return np.asarray(full, dtype=np.float64)


class LatencyOracleBase(abc.ABC):
    """Pairwise latency between a chosen subset of physical hosts.

    Works in *member index* space: member ``i`` is physical host
    ``hosts[i]``.  Subclasses implement :meth:`pairwise` (element-wise
    distances) and may override the derived methods with faster
    vectorized forms; every estimate must be symmetric, non-negative,
    finite, and zero on the diagonal.
    """

    #: Registry name of the backend ("exact", "vivaldi", "landmark").
    backend: str = "abstract"

    network: PhysicalNetwork
    hosts: np.ndarray

    @property
    def n(self) -> int:
        """Number of member hosts."""
        return int(self.hosts.size)

    # -- core ------------------------------------------------------------

    @abc.abstractmethod
    def pairwise(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Element-wise latencies ``d(a[k], b[k])`` for member arrays."""

    @abc.abstractmethod
    def state_nbytes(self) -> int:
        """Resident bytes of the backend's latency state (the scaling
        story: O(domains*n) exact vs O(n*dim) coordinates vs O(n*m)
        landmark)."""

    # -- derived queries (override for speed) -----------------------------

    def between(self, i: int, j: int) -> float:
        """Latency (ms) between members ``i`` and ``j``."""
        a = np.asarray([i], dtype=np.intp)
        b = np.asarray([j], dtype=np.intp)
        return float(self.pairwise(a, b)[0])

    def to_many(self, i: int, others: np.ndarray | list[int]) -> FloatArray:
        """Vector of latencies from member ``i`` to each member in ``others``."""
        idx = np.asarray(others, dtype=np.intp)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        return self.pairwise(np.full(idx.shape, i, dtype=np.intp), idx)

    def rows(self, idx: np.ndarray | list[int]) -> FloatArray:
        """Latency rows (length ``n``) for members ``idx``."""
        sel = np.asarray(idx, dtype=np.intp)
        everyone = np.arange(self.n, dtype=np.intp)
        out = np.empty((sel.size, self.n), dtype=np.float64)
        for r, i in enumerate(sel):
            out[r] = self.to_many(int(i), everyone)
        return out

    def sum_to(self, i: int, others: np.ndarray | list[int]) -> float:
        """Sum of latencies from member ``i`` to each member in ``others``.

        This is the protocol's core quantity  ``sum_{x in N} d(i, x)``.
        """
        if len(others) == 0:
            return 0.0
        return float(self.to_many(i, others).sum())

    def mean_pairwise(self) -> float:
        """Mean latency over all member pairs, diagonal included.

        Matches the paper's Average Latency definition
        ``AL = (sum_{i,j} d(i,j)) / n^2`` with ``d(i,i) = 0``.
        Computed in row chunks so approximate backends never materialize
        an n x n matrix.
        """
        n = self.n
        total = 0.0
        chunk = max(1, min(n, 4_194_304 // max(n, 1)))
        sel = np.arange(n, dtype=np.intp)
        for lo in range(0, n, chunk):
            total += float(self.rows(sel[lo:lo + chunk]).sum())
        return total / float(n * n)

    def dense(self) -> FloatArray:
        """Full n x n estimate matrix.  O(n^2) memory — tests and parity
        checks only, never the simulation hot path."""
        return self.rows(np.arange(self.n, dtype=np.intp))

    def mean_physical_link(self) -> float:
        """Mean latency of *physical* links — the stretch denominator."""
        return self.network.mean_link_latency()


def _host_anchors(network: PhysicalNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Read the pendant-domain structure off ``domain`` and the edge arrays.

    Returns ``(dom, anchor)``: ``dom[x]`` is host ``x``'s domain as a
    compact index and ``anchor[x]`` the outside endpoint of the single
    edge leaving that domain, or ``x`` itself when the domain is not
    pendant.  Two domains whose only exits lead to each other are both
    demoted: an anchor has to lie outside the pendant domains it serves
    and they would anchor inside one another.
    """
    _, dom = np.unique(network.domain, return_inverse=True)
    u = network.edges_u.astype(np.intp)
    v = network.edges_v.astype(np.intp)
    cross = dom[u] != dom[v]
    inside = np.concatenate([u[cross], v[cross]])
    outside = np.concatenate([v[cross], u[cross]])
    n_domains = int(dom.max()) + 1
    exit_to = np.zeros(n_domains, dtype=np.intp)
    exit_to[dom[inside]] = outside
    pendant = np.bincount(dom[inside], minlength=n_domains) == 1
    pendant &= ~pendant[dom[exit_to]]
    return dom, np.where(pendant[dom], exit_to[dom], np.arange(network.n))


class LatencyOracle(LatencyOracleBase):
    """Exact shortest-path oracle, stored factored (no n x n matrix).

    The factoring is *anchor decomposition*.  A domain with exactly one
    edge ``(gw, t)`` leaving it is pendant: every path between a host
    ``x`` inside and a host ``y`` outside crosses that edge, so
    ``d(x, y) = d(t, x) + d(t, y)``, and two hosts inside are as far
    apart as within the domain's own subgraph (leaving and coming back
    crosses the exit edge twice).  Each member is therefore anchored at
    ``t`` (or at itself when its domain is not pendant), and Dijkstra
    runs over the whole graph from the *distinct* anchors only — 100
    transit routers on ts-large instead of n members.  The stored state
    is:

    * one row per pendant domain: its exit router's distance ``d(t, y)``
      to every member ``y``, with the domain's own members' columns set
      to NaN;
    * one row per self-anchored member: its own distance to every member;
    * a per-member offset ``d(t, x)`` (0 for a self-anchored member);
    * each pendant domain's same-domain block (Dijkstra on the domain's
      sub-block), flattened into one array.

    A query ``d(i, j)`` reads ``row(i)[j] + offset[i]``; only a NaN —
    ``j`` shares ``i``'s pendant domain, the diagonal included — reads
    the block instead.  On ts-large at n=5000 that is 300 rows (12 MB)
    where the matrix was 200 MB.  A flat or multi-homed substrate has no
    pendant domain: every member is its own anchor with its own row, the
    build is one Dijkstra per member, and the state is n x n as before.
    Every term is a shortest-path length of the same graph, so with
    integer-valued link latencies (the presets') all sums are exact in
    float64 and every query equals the per-member Dijkstra bit for bit.

    Parameters
    ----------
    network:
        The physical substrate.
    hosts:
        Physical host ids participating in the overlay.  The oracle works
        in *member index* space: member ``i`` is physical host
        ``hosts[i]``, and ``between(i, j)`` is the shortest-path latency
        in milliseconds between members ``i`` and ``j``.
    """

    backend = "exact"

    def __init__(self, network: PhysicalNetwork, hosts: np.ndarray) -> None:
        hosts = validate_hosts(network, hosts)
        self.network = network
        self.hosts = hosts
        n = hosts.size
        dom, host_anchor = _host_anchors(network)
        anchor = host_anchor[hosts]
        pendant = anchor != hosts
        distinct, src = np.unique(anchor, return_inverse=True)
        from_anchor = shortest_path_rows(network, distinct)
        # d(anchor_i, i): the exit edge plus the way in; 0 for a member
        # that is its own anchor.
        offset = from_anchor[src, hosts]
        # Narrow to the member columns before gathering one row per
        # domain (gathering over every host first is a transient larger
        # than the result), and with take() so that the rows the hot
        # path takes from stay C-contiguous.
        to_members = from_anchor.take(hosts, axis=1)
        del from_anchor
        # One stored row per pendant domain, one per self-anchored member.
        key = np.where(pendant, dom[hosts], -1 - np.arange(n))
        _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
        rows = to_members.take(src[first], axis=0)
        del to_members
        members = np.flatnonzero(pendant)
        rows[row_of[members], members] = np.nan
        # Members sharing a pendant domain never route through the
        # anchor: their distances are the domain subgraph's own.
        adj = network.adjacency()
        block_row = np.zeros(n, dtype=np.intp)
        block_col = np.zeros(n, dtype=np.intp)
        blocks = []
        size = 0
        by_row = members[np.argsort(row_of[members], kind="stable")]
        for idx in np.split(by_row, np.flatnonzero(np.diff(row_of[by_row])) + 1):
            if idx.size == 0:
                continue
            k = idx.size
            if k == 1:
                within = np.zeros((1, 1))
            else:
                nodes = np.flatnonzero(dom == dom[hosts[idx[0]]])
                local = np.searchsorted(nodes, hosts[idx])
                within = csgraph.dijkstra(
                    adj[nodes][:, nodes], directed=False, indices=local
                )[:, local]
            block_row[idx] = size + k * np.arange(k)
            block_col[idx] = np.arange(k)
            blocks.append(within.ravel())
            size += k * k
        block = np.concatenate(blocks) if blocks else np.zeros(0)
        # Every pair outside a block is row + offset: both terms must be
        # finite unless the block covers all members.
        alone = np.bincount(row_of, minlength=rows.shape[0])[row_of] == n
        if (np.isinf(rows).any() or not np.all(np.isfinite(block))
                or not np.all(np.isfinite(offset) | alone)):
            raise ValueError("physical network is disconnected across selected hosts")
        self._rows: FloatArray = rows
        self._row_of = row_of
        self._offset: FloatArray = offset
        self._block: FloatArray = block
        self._block_row = block_row
        self._block_col = block_col
        # Per-member views (a shared row, a 0-d offset): the hot paths
        # skip numpy's scalar indexing, and adding a 0-d array is cheaper
        # than adding a Python float.
        views = list(rows)
        self._row = [views[r] for r in row_of.tolist()]
        self._off = [offset[i, ...] for i in range(n)]

    def _block_of(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Same-domain latencies ``d(a, b)`` read from the flattened blocks."""
        return self._block[self._block_row[a] + self._block_col[b]]

    # -- protocol fast paths ----------------------------------------------
    #
    # Each query gathers row + offset; a NaN in the gathered values marks
    # the same-domain pairs, and only then are the blocks read.  The
    # per-peer ``to_many`` finds the NaN with one dot product (any NaN
    # poisons it, and on a short array it is cheaper than a ufunc
    # reduction).  Not for the array-wide queries: past 10 000 elements
    # OpenBLAS wakes its worker threads, which then spin for ~0.1 s of
    # CPU.

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Element-wise latencies ``d(a[k], b[k])`` (equal-length arrays)."""
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        out = self._rows.ravel().take(self._row_of.take(a) * self.n + b)
        out += self._offset.take(a)
        miss = np.isnan(out)
        if miss.any():
            out[miss] = self._block_of(a[miss], b[miss])
        return out

    def between(self, i: int, j: int) -> float:
        """Latency (ms) between members ``i`` and ``j``."""
        v: float = self._row[i].item(j)
        if v != v:
            v = self._block.item(self._block_row.item(i) + self._block_col.item(j))
            return v
        return v + self._offset.item(i)

    def to_many(self, i: int, others: np.ndarray | list[int]) -> FloatArray:
        """Vector of latencies from member ``i`` to each member in ``others``."""
        out = self._row[i].take(others)
        out += self._off[i]
        if math.isnan(out.dot(out)):
            # A neighbour set: a Python scan beats numpy's masking here.
            base = self._block_row.item(i)
            for k, v in enumerate(out.tolist()):
                if v != v:
                    out[k] = self._block.item(base + self._block_col.item(others[k]))
        return out

    def rows(self, idx: np.ndarray | list[int]) -> FloatArray:
        """Latency rows (length ``n``) for members ``idx``."""
        sel = np.asarray(idx, dtype=np.intp)
        out = self._rows.take(self._row_of.take(sel), axis=0)
        out += self._offset.take(sel)[:, None]
        r, c = np.nonzero(np.isnan(out))
        out[r, c] = self._block_of(sel[r], c)
        return out

    def sum_to(self, i: int, others: np.ndarray | list[int]) -> float:
        """Sum of latencies from member ``i`` to each member in ``others``."""
        if len(others) == 0:
            return 0.0
        total = float(np.add.reduce(self._row[i].take(others)))
        if total != total:  # a same-domain member: read its block
            return float(self.to_many(i, others).sum())
        return total + len(others) * self._offset.item(i)

    def state_nbytes(self) -> int:
        arrays = (self._rows, self._row_of, self._offset, self._block,
                  self._block_row, self._block_col)
        views = (sys.getsizeof(self._row) + sys.getsizeof(self._off)
                 + self.n * sys.getsizeof(self._off[0]))
        return sum(int(a.nbytes) for a in arrays) + views
