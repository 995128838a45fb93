"""Waxman flat random topology."""

import networkx as nx
import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.topology.latency import LatencyOracle
from repro.topology.waxman import WaxmanParams, generate_waxman


def _net(n=100, seed=0, **kw):
    return generate_waxman(WaxmanParams(n=n, **kw), RngRegistry(seed).stream("wax"))


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=1), dict(n=10, alpha=0.0), dict(n=10, beta=0.0), dict(n=10, ms_per_unit=0.0)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WaxmanParams(**kwargs)


class TestGeneration:
    def test_connected(self):
        net = _net()
        g = nx.Graph()
        g.add_nodes_from(range(net.n))
        g.add_edges_from(zip(net.edges_u.tolist(), net.edges_v.tolist()))
        assert nx.is_connected(g)

    def test_connected_even_when_sparse(self):
        net = _net(n=60, alpha=0.05, beta=0.05)
        g = nx.Graph()
        g.add_nodes_from(range(net.n))
        g.add_edges_from(zip(net.edges_u.tolist(), net.edges_v.tolist()))
        assert nx.is_connected(g)

    def test_all_nodes_are_stub_tier(self):
        net = _net()
        assert len(net.stub_hosts) == net.n

    def test_latencies_positive_and_bounded(self):
        net = _net()
        assert np.all(net.edges_w >= 1.0)
        assert np.all(net.edges_w <= 100.0 * np.sqrt(2.0) + 1e-9)

    def test_short_links_dominate(self):
        """Waxman's point: edge probability decays with distance."""
        net = _net(n=200)
        median_latency = np.median(net.edges_w)
        assert median_latency < 0.5 * 100.0  # mostly short links

    def test_deterministic(self):
        a, b = _net(seed=3), _net(seed=3)
        assert np.array_equal(a.edges_u, b.edges_u)
        assert np.array_equal(a.edges_w, b.edges_w)

    def test_oracle_over_waxman(self):
        net = _net()
        hosts = RngRegistry(1).stream("m").choice(net.n, size=30, replace=False)
        oracle = LatencyOracle(net, hosts)
        assert np.all(np.isfinite(oracle.dense()))

    def test_prop_g_improves_on_waxman(self):
        """PROP's benefit is not a transit-stub artifact."""
        from repro.core.config import PROPConfig
        from repro.core.protocol import PROPEngine
        from repro.netsim.engine import Simulator
        from repro.overlay.gnutella import GnutellaOverlay

        net = _net(n=200)
        rngs = RngRegistry(2)
        hosts = rngs.stream("m").choice(net.n, size=80, replace=False)
        oracle = LatencyOracle(net, hosts)
        ov = GnutellaOverlay.build(oracle, rngs.stream("g"), min_degree=3)
        before = ov.mean_logical_edge_latency()
        sim = Simulator()
        PROPEngine(ov, PROPConfig(policy="G"), sim, rngs).start()
        sim.run_until(1800.0)
        assert ov.mean_logical_edge_latency() < 0.9 * before
