"""Transit-stub physical topology generator.

Reimplementation of the GT-ITM transit-stub model the paper uses as its
physical network:

* A top level of ``transit_domains`` domains, each containing
  ``transit_nodes_per_domain`` transit (backbone) routers.  Transit nodes
  inside a domain form a connected random graph; the domains themselves
  are stitched into a connected top-level graph via inter-domain
  transit-transit links.
* Every transit node sponsors ``stub_domains_per_transit`` stub domains
  of ``stub_nodes_per_domain`` edge hosts each.  Each stub domain is a
  connected random graph attached to its sponsor transit node by a
  stub-transit link.

Link latencies follow the tier of the link: stub-stub, stub-transit, and
transit-transit (the paper's three constants; 5/20/100 ms in our presets,
the values used by the LTM baseline paper and the journal version — the
OCR of the conference text dropped the numerals).

Connected random intra-domain graphs are built as a ring plus random
chords.  GT-ITM itself uses flat random (Waxman) graphs re-sampled until
connected; the ring-plus-chords construction has the same qualitative
redundancy at the domain scale used here (3-100 nodes per domain) while
being deterministic in the number of edges, which keeps generation O(E).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "LinkLatencies",
    "TransitStubParams",
    "PhysicalNetwork",
    "generate_transit_stub",
]

# Node tier codes stored in PhysicalNetwork.tier
TIER_TRANSIT = 0
TIER_STUB = 1


@dataclass(frozen=True)
class LinkLatencies:
    """Per-tier one-way link latencies in milliseconds."""

    stub_stub: float = 5.0
    stub_transit: float = 20.0
    transit_transit: float = 100.0

    def __post_init__(self) -> None:
        for name in ("stub_stub", "stub_transit", "transit_transit"):
            v = getattr(self, name)
            if v <= 0.0:
                raise ValueError(f"{name} latency must be positive, got {v}")


@dataclass(frozen=True)
class TransitStubParams:
    """Shape parameters of a transit-stub topology.

    ``extra_chords_frac`` controls intra-domain redundancy: each domain
    ring of k nodes receives ``floor(extra_chords_frac * k)`` extra
    random chord edges (k >= 4 only).  ``extra_interdomain_links`` adds
    that many random transit-transit links between distinct domains on
    top of the connecting ring of domains.
    """

    transit_domains: int
    transit_nodes_per_domain: int
    stub_domains_per_transit: int
    stub_nodes_per_domain: int
    latencies: LinkLatencies = field(default_factory=LinkLatencies)
    extra_chords_frac: float = 0.3
    extra_interdomain_links: int = 2

    def __post_init__(self) -> None:
        if self.transit_domains < 1:
            raise ValueError("need at least one transit domain")
        if self.transit_nodes_per_domain < 1:
            raise ValueError("need at least one transit node per domain")
        if self.stub_domains_per_transit < 0:
            raise ValueError("stub_domains_per_transit must be >= 0")
        if self.stub_nodes_per_domain < 1 and self.stub_domains_per_transit > 0:
            raise ValueError("stub domains must contain at least one node")
        if not 0.0 <= self.extra_chords_frac <= 2.0:
            raise ValueError("extra_chords_frac out of sane range [0, 2]")
        if self.extra_interdomain_links < 0:
            raise ValueError("extra_interdomain_links must be >= 0")

    @property
    def n_transit(self) -> int:
        return self.transit_domains * self.transit_nodes_per_domain

    @property
    def n_stub(self) -> int:
        return self.n_transit * self.stub_domains_per_transit * self.stub_nodes_per_domain

    @property
    def n_hosts(self) -> int:
        return self.n_transit + self.n_stub


@dataclass
class PhysicalNetwork:
    """An undirected weighted physical graph.

    Attributes
    ----------
    n:
        Number of hosts (transit + stub).
    edges_u, edges_v, edges_w:
        Parallel arrays describing the undirected edges and their
        latencies in milliseconds.
    tier:
        ``tier[i]`` is ``TIER_TRANSIT`` (0) or ``TIER_STUB`` (1).
    domain:
        Domain label per node.  Transit nodes carry their transit domain
        index; stub nodes carry ``transit_domains + stub_domain_index``
        so that labels are unique across tiers.
    params:
        The generating parameters (None for hand-built networks).
    """

    n: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    edges_w: np.ndarray
    tier: np.ndarray
    domain: np.ndarray
    params: TransitStubParams | None = None

    @property
    def n_edges(self) -> int:
        return int(self.edges_u.shape[0])

    @property
    def stub_hosts(self) -> np.ndarray:
        """Indices of stub-tier hosts (the overlay joins from these)."""
        return np.flatnonzero(self.tier == TIER_STUB)

    def mean_link_latency(self) -> float:
        """Mean latency over physical links — the stretch denominator."""
        return float(np.mean(self.edges_w))

    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric CSR adjacency matrix weighted by latency."""
        u, v, w = self.edges_u, self.edges_v, self.edges_w
        data = np.concatenate([w, w])
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        mat = sparse.coo_matrix((data, (rows, cols)), shape=(self.n, self.n))
        # COO->CSR conversion *adds* the weights of a repeated edge, in
        # either orientation, which would corrupt its latency: generation
        # guarantees uniqueness and validate() rejects repeats in
        # hand-built networks.
        mat.sum_duplicates()
        return mat.tocsr()

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if self.edges_u.shape != self.edges_v.shape or self.edges_u.shape != self.edges_w.shape:
            raise ValueError("edge arrays must have identical shapes")
        if self.n_edges and (min(self.edges_u.min(), self.edges_v.min()) < 0
                             or max(self.edges_u.max(), self.edges_v.max()) >= self.n):
            raise ValueError("edge endpoint out of range")
        if np.any(self.edges_u == self.edges_v):
            raise ValueError("self-loop in physical network")
        lo = np.minimum(self.edges_u, self.edges_v).astype(np.int64)
        hi = np.maximum(self.edges_u, self.edges_v).astype(np.int64)
        if np.unique(lo * self.n + hi).size != self.n_edges:
            raise ValueError("repeated undirected edge in physical network")
        if np.any(self.edges_w <= 0):
            raise ValueError("non-positive link latency")
        if self.tier.shape != (self.n,) or self.domain.shape != (self.n,):
            raise ValueError("tier/domain arrays must have one entry per host")


class _EdgeAccumulator:
    """Collects unique undirected edges during generation."""

    def __init__(self) -> None:
        self._seen: set[tuple[int, int]] = set()
        self.u: list[int] = []
        self.v: list[int] = []
        self.w: list[float] = []

    def add(self, a: int, b: int, w: float) -> bool:
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.u.append(key[0])
        self.v.append(key[1])
        self.w.append(w)
        return True


def _connect_domain(acc: _EdgeAccumulator, nodes: np.ndarray, latency: float,
                    chords_frac: float, rng: np.random.Generator) -> None:
    """Wire ``nodes`` into a connected ring plus random chords."""
    k = len(nodes)
    if k == 1:
        return
    if k == 2:
        acc.add(int(nodes[0]), int(nodes[1]), latency)
        return
    order = rng.permutation(nodes)
    for i in range(k):
        acc.add(int(order[i]), int(order[(i + 1) % k]), latency)
    n_chords = int(chords_frac * k) if k >= 4 else 0
    attempts = 0
    added = 0
    # Rejection-sample chords; cap attempts so degenerate tiny domains
    # cannot loop forever.
    while added < n_chords and attempts < 20 * n_chords + 20:
        a, b = rng.choice(nodes, size=2, replace=False)
        if acc.add(int(a), int(b), latency):
            added += 1
        attempts += 1


def generate_transit_stub(params: TransitStubParams, rng: np.random.Generator) -> PhysicalNetwork:
    """Generate a connected transit-stub physical network.

    The construction is connected by design: each domain is internally
    connected (ring), each stub domain hangs off its sponsor transit node,
    and transit domains are stitched by a ring of inter-domain links.
    """
    n_transit = params.n_transit
    n = params.n_hosts
    tier = np.empty(n, dtype=np.int8)
    domain = np.empty(n, dtype=np.int32)
    tier[:n_transit] = TIER_TRANSIT
    tier[n_transit:] = TIER_STUB

    acc = _EdgeAccumulator()
    lat = params.latencies

    # --- transit tier -------------------------------------------------
    transit_domain_nodes: list[np.ndarray] = []
    for d in range(params.transit_domains):
        lo = d * params.transit_nodes_per_domain
        hi = lo + params.transit_nodes_per_domain
        nodes = np.arange(lo, hi)
        domain[lo:hi] = d
        transit_domain_nodes.append(nodes)
        _connect_domain(acc, nodes, lat.transit_transit, params.extra_chords_frac, rng)

    # Stitch transit domains into a ring (connected top level), then add
    # extra random inter-domain links for path diversity.
    nd = params.transit_domains
    if nd > 1:
        for d in range(nd):
            a = int(rng.choice(transit_domain_nodes[d]))
            b = int(rng.choice(transit_domain_nodes[(d + 1) % nd]))
            acc.add(a, b, lat.transit_transit)
        extra = 0
        attempts = 0
        while extra < params.extra_interdomain_links and attempts < 100:
            d1, d2 = rng.choice(nd, size=2, replace=False)
            a = int(rng.choice(transit_domain_nodes[d1]))
            b = int(rng.choice(transit_domain_nodes[d2]))
            if acc.add(a, b, lat.transit_transit):
                extra += 1
            attempts += 1

    # --- stub tier ------------------------------------------------------
    next_node = n_transit
    stub_domain_id = params.transit_domains
    for t in range(n_transit):
        for _ in range(params.stub_domains_per_transit):
            nodes = np.arange(next_node, next_node + params.stub_nodes_per_domain)
            domain[nodes] = stub_domain_id
            _connect_domain(acc, nodes, lat.stub_stub, params.extra_chords_frac, rng)
            gateway = int(rng.choice(nodes))
            acc.add(gateway, t, lat.stub_transit)
            next_node += params.stub_nodes_per_domain
            stub_domain_id += 1

    net = PhysicalNetwork(
        n=n,
        edges_u=np.asarray(acc.u, dtype=np.int32),
        edges_v=np.asarray(acc.v, dtype=np.int32),
        edges_w=np.asarray(acc.w, dtype=np.float64),
        tier=tier,
        domain=domain,
        params=params,
    )
    net.validate()
    return net
