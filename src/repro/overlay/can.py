"""CAN (Content-Addressable Network) DHT overlay.

A from-scratch CAN (Ratnasamy et al., SIGCOMM'01) simulator: the key
space is the d-dimensional unit torus, each node owns a rectangular zone,
and joins split the zone containing a random point along its widest
dimension.  Neighbors are zones that abut along a (d-1)-dimensional face
(with wrap-around); routing greedily forwards toward the zone nearest the
target point under the torus metric.

Like every overlay here, CAN is a logical graph over slots plus an
embedding — PROP-G makes two hosts swap zones (their "positions"), the
logical zone adjacency staying fixed.  The paper singles CAN out as a
symmetric system ("there is even no increase [in routing state] in some
symmetrical systems like Gnutella or CAN"), which this adjacency is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.overlay.base import RoutedOverlay
from repro.topology.latency import LatencyOracle

__all__ = ["Zone", "CANOverlay"]


@dataclass
class Zone:
    """A half-open axis-aligned box ``[lo, hi)`` in the unit torus."""

    lo: np.ndarray
    hi: np.ndarray

    def contains(self, p: np.ndarray) -> bool:
        return bool(np.all(self.lo <= p) and np.all(p < self.hi))

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def split(self) -> tuple["Zone", "Zone"]:
        """Halve along the widest dimension; returns (lower, upper)."""
        widths = self.hi - self.lo
        dim = int(np.argmax(widths))
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lo2 = self.lo.copy()
        lo2[dim] = mid
        hi1 = self.hi.copy()
        hi1[dim] = mid
        return Zone(self.lo.copy(), hi1), Zone(lo2, self.hi.copy())


def _intervals_abut_torus(alo: float, ahi: float, blo: float, bhi: float) -> bool:
    """1-D abutment on the unit torus: a's end touches b's start or v.v."""
    return (
        ahi == blo
        or bhi == alo
        or (ahi == 1.0 and blo == 0.0)
        or (bhi == 1.0 and alo == 0.0)
    )


def _intervals_overlap(alo: float, ahi: float, blo: float, bhi: float) -> bool:
    """1-D open-interval overlap (positive-measure intersection)."""
    return ahi > blo and bhi > alo


def _torus_delta(a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, 1.0 - d)


class CANOverlay(RoutedOverlay):
    """CAN overlay: rectangular zones on the unit torus."""

    def __init__(self, oracle: LatencyOracle, embedding: np.ndarray,
                 zones: list[Zone], dims: int) -> None:
        super().__init__(oracle, embedding)
        if len(zones) != self.n_slots:
            raise ValueError("need exactly one zone per slot")
        self.zones = zones
        self.dims = int(dims)
        self._build_edges()

    @classmethod
    def build(
        cls,
        oracle: LatencyOracle,
        rng: np.random.Generator,
        *,
        dims: int = 2,
        embedding: np.ndarray | None = None,
    ) -> "CANOverlay":
        """Build a CAN by sequential point joins.

        Slot ``i`` is the ``i``-th joiner; slot 0 initially owns the whole
        torus.  Each join picks a uniform random point (the hash-based
        CAN the paper optimizes); the zone owner splits along its widest
        dimension and the new node takes the half containing the point
        (the original-CAN convention).
        """
        n = oracle.n if embedding is None else len(embedding)
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if embedding is None:
            embedding = rng.permutation(n).astype(np.intp)
        embedding = np.asarray(embedding, dtype=np.intp)
        zones: list[Zone] = [Zone(np.zeros(dims), np.ones(dims))]
        for i in range(1, n):
            p = rng.random(dims)
            owner = next(k for k, z in enumerate(zones) if z.contains(p))
            low, high = zones[owner].split()
            if high.contains(p):
                zones[owner] = low
                zones.append(high)
            else:
                zones[owner] = high
                zones.append(low)
        return cls(oracle, embedding, zones, dims)

    def _adjacent(self, a: int, b: int) -> bool:
        """Zones share a (d-1)-face: abut in one dim, overlap in the rest."""
        za, zb = self.zones[a], self.zones[b]
        abut_dim = -1
        for k in range(self.dims):
            abuts = _intervals_abut_torus(za.lo[k], za.hi[k], zb.lo[k], zb.hi[k])
            overlaps = _intervals_overlap(za.lo[k], za.hi[k], zb.lo[k], zb.hi[k])
            if overlaps:
                continue
            if abuts:
                if abut_dim >= 0:
                    return False  # touch only at a corner
                abut_dim = k
            else:
                return False
        if self.dims == 1:
            return abut_dim >= 0
        return abut_dim >= 0

    def _build_edges(self) -> None:
        n = self.n_slots
        for a in range(n):
            for b in range(a + 1, n):
                if self._adjacent(a, b):
                    self.add_edge(a, b)

    # -- routing ------------------------------------------------------------

    def point_distance_to_zone(self, p: np.ndarray, slot: int) -> float:
        """Torus L2 distance from point ``p`` to the box of ``slot``."""
        z = self.zones[slot]
        total = 0.0
        for k in range(self.dims):
            x = p[k]
            if z.lo[k] <= x < z.hi[k]:
                continue
            d = min(
                _torus_delta(x, z.lo[k]),
                # hi is excluded but measures the boundary distance
                _torus_delta(x, z.hi[k]),
            )
            total += d * d
        return float(np.sqrt(total))

    def owner(self, p: np.ndarray) -> int:
        p = np.asarray(p, dtype=np.float64) % 1.0
        for slot, z in enumerate(self.zones):
            if z.contains(p):
                return slot
        raise RuntimeError(f"no zone contains point {p} — zones do not tile the torus")

    def route(self, src: int, point: np.ndarray) -> list[int]:
        """Greedy route from ``src`` to the zone owning ``point``.

        Moves to the neighbor whose zone is nearest the target; a visited
        set plus best-unvisited fallback guarantees termination even in
        pathological corner configurations.
        """
        p = np.asarray(point, dtype=np.float64) % 1.0
        dest = self.owner(p)
        path = [src]
        cur = src
        visited = {src}
        while cur != dest:
            best = None
            best_d = np.inf
            # sorted: the strict `d < best_d` keeps the first of equally
            # near zones, so tie-breaks must not follow set-iteration order
            for nb in sorted(self._adj[cur]):
                if nb in visited:
                    continue
                d = self.point_distance_to_zone(p, nb)
                if d < best_d:
                    best_d = d
                    best = nb
            if best is None:
                raise RuntimeError("CAN routing trapped — adjacency is broken")
            path.append(best)
            visited.add(best)
            cur = best
        return path

    def total_zone_volume(self) -> float:
        """Sum of zone volumes — must equal 1 (zones tile the torus)."""
        return float(sum(z.volume() for z in self.zones))
