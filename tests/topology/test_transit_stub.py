"""Transit-stub generator: structure, tiers, latencies, connectivity."""

import networkx as nx
import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.topology.transit_stub import (
    TIER_STUB,
    TIER_TRANSIT,
    LinkLatencies,
    PhysicalNetwork,
    TransitStubParams,
    generate_transit_stub,
)


def _rng(seed=0):
    return RngRegistry(seed).stream("topo")


def _net(params=None, seed=0):
    if params is None:
        params = TransitStubParams(
            transit_domains=3,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=5,
        )
    return generate_transit_stub(params, _rng(seed))


def _to_nx(net: PhysicalNetwork) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    for u, v, w in zip(net.edges_u, net.edges_v, net.edges_w):
        g.add_edge(int(u), int(v), weight=float(w))
    return g


class TestParams:
    def test_counts(self):
        p = TransitStubParams(4, 5, 3, 10)
        assert p.n_transit == 20
        assert p.n_stub == 20 * 3 * 10
        assert p.n_hosts == 20 + 600

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(transit_domains=0, transit_nodes_per_domain=1,
                 stub_domains_per_transit=1, stub_nodes_per_domain=1),
            dict(transit_domains=1, transit_nodes_per_domain=0,
                 stub_domains_per_transit=1, stub_nodes_per_domain=1),
            dict(transit_domains=1, transit_nodes_per_domain=1,
                 stub_domains_per_transit=-1, stub_nodes_per_domain=1),
            dict(transit_domains=1, transit_nodes_per_domain=1,
                 stub_domains_per_transit=1, stub_nodes_per_domain=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransitStubParams(**kwargs)

    def test_invalid_latencies_rejected(self):
        with pytest.raises(ValueError):
            LinkLatencies(stub_stub=0.0)


class TestGeneration:
    def test_host_count(self):
        net = _net()
        assert net.n == 3 * 3 + 9 * 2 * 5

    def test_connected(self):
        net = _net()
        assert nx.is_connected(_to_nx(net))

    def test_tiers(self):
        net = _net()
        assert int((net.tier == TIER_TRANSIT).sum()) == 9
        assert int((net.tier == TIER_STUB).sum()) == 90
        assert np.array_equal(net.stub_hosts, np.flatnonzero(net.tier == TIER_STUB))

    def test_link_latencies_follow_tiers(self):
        net = _net()
        lat = net.params.latencies
        for u, v, w in zip(net.edges_u, net.edges_v, net.edges_w):
            tu, tv = net.tier[u], net.tier[v]
            if tu == TIER_TRANSIT and tv == TIER_TRANSIT:
                assert w == lat.transit_transit
            elif tu == TIER_STUB and tv == TIER_STUB:
                assert w == lat.stub_stub
            else:
                assert w == lat.stub_transit

    def test_no_duplicate_edges(self):
        net = _net()
        seen = set(zip(net.edges_u.tolist(), net.edges_v.tolist()))
        assert len(seen) == net.n_edges

    def test_stub_stub_links_stay_within_domain(self):
        net = _net()
        for u, v in zip(net.edges_u, net.edges_v):
            if net.tier[u] == TIER_STUB and net.tier[v] == TIER_STUB:
                assert net.domain[u] == net.domain[v]

    def test_each_stub_domain_has_one_gateway(self):
        net = _net()
        gateways: dict[int, int] = {}
        for u, v in zip(net.edges_u, net.edges_v):
            tu, tv = net.tier[u], net.tier[v]
            if tu != tv:  # stub-transit link
                stub = int(u if tu == TIER_STUB else v)
                dom = int(net.domain[stub])
                gateways[dom] = gateways.get(dom, 0) + 1
        n_stub_domains = 9 * 2
        assert len(gateways) == n_stub_domains
        assert all(c == 1 for c in gateways.values())

    def test_deterministic_in_seed(self):
        a, b = _net(seed=5), _net(seed=5)
        assert np.array_equal(a.edges_u, b.edges_u)
        assert np.array_equal(a.edges_v, b.edges_v)

    def test_different_seeds_differ(self):
        a, b = _net(seed=5), _net(seed=6)
        same = a.n_edges == b.n_edges and np.array_equal(a.edges_u, b.edges_u) and np.array_equal(
            a.edges_v, b.edges_v
        )
        assert not same

    def test_single_domain_single_node(self):
        p = TransitStubParams(1, 1, 1, 4)
        net = generate_transit_stub(p, _rng())
        assert net.n == 5
        assert nx.is_connected(_to_nx(net))

    def test_no_stub_domains(self):
        p = TransitStubParams(2, 3, 0, 1)
        net = generate_transit_stub(p, _rng())
        assert net.n == 6
        assert len(net.stub_hosts) == 0
        assert nx.is_connected(_to_nx(net))

    def test_mean_link_latency(self):
        net = _net()
        assert net.mean_link_latency() == pytest.approx(float(np.mean(net.edges_w)))

    def test_adjacency_symmetric(self):
        net = _net()
        adj = net.adjacency()
        assert (adj != adj.T).nnz == 0

    def test_validate_passes_on_generated(self):
        _net().validate()  # must not raise

    def test_validate_catches_self_loop(self):
        net = _net()
        bad = PhysicalNetwork(
            n=net.n,
            edges_u=np.array([0]),
            edges_v=np.array([0]),
            edges_w=np.array([1.0]),
            tier=net.tier,
            domain=net.domain,
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_catches_bad_latency(self):
        net = _net()
        bad = PhysicalNetwork(
            n=net.n,
            edges_u=np.array([0]),
            edges_v=np.array([1]),
            edges_w=np.array([-5.0]),
            tier=net.tier,
            domain=net.domain,
        )
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize(
        "u, v", [([0, 0], [1, 1]), ([0, 1], [1, 0])], ids=["same-orientation", "reversed"]
    )
    def test_validate_catches_repeated_edge(self, u, v):
        """adjacency() would add the two weights (10 / 14 ms for a 5 ms link)."""
        net = _net()
        bad = PhysicalNetwork(
            n=net.n,
            edges_u=np.array(u),
            edges_v=np.array(v),
            edges_w=np.array([5.0, 9.0]),
            tier=net.tier,
            domain=net.domain,
        )
        assert bad.adjacency()[0, 1] == 14.0  # the corruption validate() guards
        with pytest.raises(ValueError, match="repeated"):
            bad.validate()

    def test_validate_catches_negative_v_endpoint(self):
        net = _net()
        bad = PhysicalNetwork(
            n=net.n,
            edges_u=np.array([0]),
            edges_v=np.array([-1]),
            edges_w=np.array([5.0]),
            tier=net.tier,
            domain=net.domain,
        )
        with pytest.raises(ValueError, match="out of range"):
            bad.validate()
