"""Two-tier (ultrapeer/leaf) Gnutella overlay — the deployed 0.6 design.

Modern unstructured networks are not flat: a minority of capable nodes
("ultrapeers") form the flooding mesh, while the majority ("leaves")
hang off a few ultrapeers and never forward queries.  The paper's flat
Gnutella is the 0.4 design; this extension checks that PROP's story
survives the architecture that actually shipped:

* **PROP-O** trades edges between position-compatible peers; roles are
  properties of the *position* here, so degree- and role-structure are
  preserved by construction.
* **PROP-G** swaps hosts across positions — including a slow host into
  an ultrapeer position, the structural version of the Fig. 7 capacity
  mismatch.

Flooding is restricted to the ultrapeer mesh: a query starts at any
node, but only ultrapeers forward.  The lookup model mirrors
:class:`~repro.overlay.gnutella.GnutellaOverlay` with that forwarding
restriction.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.overlay.gnutella import GnutellaOverlay
from repro.topology.latency import LatencyOracle

__all__ = ["UltrapeerGnutellaOverlay"]

ROLE_LEAF = 0
ROLE_ULTRAPEER = 1


class UltrapeerGnutellaOverlay(GnutellaOverlay):
    """Gnutella 0.6: ultrapeer mesh plus leaf attachments."""

    _shared_flood_graph = False  # a leaf's out-edges exist only for its own query

    def __init__(self, oracle: LatencyOracle, embedding: np.ndarray, roles: np.ndarray) -> None:
        super().__init__(oracle, embedding)
        roles = np.asarray(roles, dtype=np.int8)
        if roles.shape != (self.n_slots,):
            raise ValueError("need exactly one role per slot")
        if not np.all(np.isin(roles, (ROLE_LEAF, ROLE_ULTRAPEER))):
            raise ValueError("roles must be ROLE_LEAF or ROLE_ULTRAPEER")
        if int((roles == ROLE_ULTRAPEER).sum()) < 2:
            raise ValueError("need at least two ultrapeers")
        self.roles = roles

    @classmethod
    def build_two_tier(
        cls,
        oracle: LatencyOracle,
        rng: np.random.Generator,
        *,
        ultrapeer_fraction: float = 0.2,
        ultrapeer_min_degree: int = 4,
        ultrapeer_mean_extra: float = 3.0,
        leaf_degree: int = 2,
        capacity_weight: np.ndarray | None = None,
        embedding: np.ndarray | None = None,
    ) -> "UltrapeerGnutellaOverlay":
        """Build the two-tier overlay.

        Ultrapeer *positions* are chosen by capacity when
        ``capacity_weight`` (per slot) is given — the highest-capacity
        slots become ultrapeers, matching deployed election, the lowest
        slots first among equal capacities — otherwise uniformly at
        random.  Every leaf attaches to ``leaf_degree`` distinct
        ultrapeers.
        """
        n = oracle.n if embedding is None else len(embedding)
        if embedding is None:
            embedding = np.arange(n, dtype=np.intp)
        n_up = max(2, int(round(ultrapeer_fraction * n)))
        if not 0.0 < ultrapeer_fraction < 1.0:
            raise ValueError("ultrapeer_fraction must be in (0, 1)")
        if not 1 <= leaf_degree <= n_up:
            raise ValueError(f"leaf_degree must be in [1, {n_up}]")

        roles = np.full(n, ROLE_LEAF, dtype=np.int8)
        if capacity_weight is not None:
            w = np.asarray(capacity_weight, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("capacity_weight must have one entry per slot")
            # stable: the default sort's tie order varies with the CPU
            ups = np.argsort(-w, kind="stable")[:n_up]
        else:
            ups = rng.choice(n, size=n_up, replace=False)
        roles[ups] = ROLE_ULTRAPEER

        ov = cls(oracle, np.asarray(embedding, dtype=np.intp), roles)

        # ultrapeer mesh: random attachment tree + geometric surplus
        ups = np.flatnonzero(roles == ROLE_ULTRAPEER)
        order = rng.permutation(ups)
        for i in range(1, len(order)):
            ov.add_edge(int(order[i]), int(order[rng.integers(0, i)]))
        surplus = rng.geometric(1.0 / (1.0 + ultrapeer_mean_extra), size=len(ups)) - 1
        target = np.maximum(ultrapeer_min_degree, ultrapeer_min_degree + surplus)
        for idx, u in enumerate(ups):
            guard = 0
            while ov.degree(int(u)) < target[idx] and guard < 10 * len(ups):
                v = int(rng.choice(ups))
                if v != u and not ov.has_edge(int(u), v):
                    ov.add_edge(int(u), v)
                guard += 1

        # leaves attach to leaf_degree distinct ultrapeers
        for leaf in np.flatnonzero(roles == ROLE_LEAF):
            chosen = rng.choice(ups, size=leaf_degree, replace=False)
            for u in chosen:
                ov.add_edge(int(leaf), int(u))
        return ov

    # -- role views -------------------------------------------------------

    @property
    def ultrapeer_slots(self) -> np.ndarray:
        return np.flatnonzero(self.roles == ROLE_ULTRAPEER)

    @property
    def leaf_slots(self) -> np.ndarray:
        return np.flatnonzero(self.roles == ROLE_LEAF)

    def is_ultrapeer(self, slot: int) -> bool:
        return bool(self.roles[slot] == ROLE_ULTRAPEER)

    def exchange_compatible(self, u: int, v: int, policy: str) -> bool:
        """PROP-O trades must stay within one role.

        A same-role trade can only move edges whose role signature
        already exists (leaf-ultra or ultra-ultra); a cross-role trade
        could hand a leaf another leaf as neighbor.  PROP-G swaps
        positions wholesale and preserves every edge's role signature,
        so it is unrestricted.
        """
        if policy == "O":
            return bool(self.roles[u] == self.roles[v])
        return True

    # -- two-tier flooding --------------------------------------------------

    def lookup_latency_matrix(
        self,
        sources: np.ndarray | list[int],
        node_delay: np.ndarray | None = None,
        ttl: int | None = None,
    ) -> np.ndarray:
        """Min lookup latency with forwarding restricted to ultrapeers.

        Directed edges exist out of every ultrapeer; a leaf has outgoing
        edges only when it is the querier.  TTL bounds work as in the
        flat overlay (hop-limited Bellman-Ford).
        """
        sources = np.asarray(sources, dtype=np.intp)
        tails, heads, weights = self._directed_weights(node_delay)
        forwarder = self.roles[tails] == ROLE_ULTRAPEER

        out = np.empty((sources.size, self.n_slots))
        for row, src in enumerate(sources):
            keep = forwarder | (tails == src)
            t, h, w = tails[keep], heads[keep], weights[keep]
            if ttl is None:
                mat = sparse.coo_matrix(
                    (w, (t, h)), shape=(self.n_slots, self.n_slots)
                ).tocsr()
                out[row] = csgraph.dijkstra(mat, directed=True, indices=[int(src)])[0]
            else:
                dist = np.full(self.n_slots, np.inf)
                dist[src] = 0.0
                for _ in range(ttl):
                    cand = dist[t] + w
                    new = dist.copy()
                    np.minimum.at(new, h, cand)
                    if np.array_equal(new, dist):
                        break
                    dist = new
                out[row] = dist
        return out
