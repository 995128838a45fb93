"""Latency oracle: Dijkstra correctness, symmetry, member indexing."""

import networkx as nx
import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.topology.latency import LatencyOracle
from repro.topology.transit_stub import PhysicalNetwork, TransitStubParams, generate_transit_stub


def _line_network(weights):
    """Path graph 0-1-2-... with given edge weights."""
    n = len(weights) + 1
    return PhysicalNetwork(
        n=n,
        edges_u=np.arange(n - 1, dtype=np.int32),
        edges_v=np.arange(1, n, dtype=np.int32),
        edges_w=np.asarray(weights, dtype=np.float64),
        tier=np.ones(n, dtype=np.int8),
        domain=np.zeros(n, dtype=np.int32),
    )


class TestOnLine:
    def test_distances_sum_along_path(self):
        net = _line_network([1.0, 2.0, 4.0])
        oracle = LatencyOracle(net, np.array([0, 3]))
        assert oracle.between(0, 1) == pytest.approx(7.0)

    def test_diagonal_zero(self):
        net = _line_network([1.0, 2.0])
        oracle = LatencyOracle(net, np.array([0, 1, 2]))
        assert np.all(np.diag(oracle.dense()) == 0.0)

    def test_symmetric(self):
        net = _line_network([1.0, 5.0, 2.0])
        oracle = LatencyOracle(net, np.array([0, 2, 3]))
        assert np.allclose(oracle.dense(), oracle.dense().T)

    def test_member_index_space(self):
        net = _line_network([1.0, 2.0, 4.0])
        oracle = LatencyOracle(net, np.array([3, 0]))  # order defines index
        assert oracle.between(0, 1) == pytest.approx(7.0)
        assert oracle.n == 2

    def test_sum_to(self):
        net = _line_network([1.0, 2.0])
        oracle = LatencyOracle(net, np.array([0, 1, 2]))
        assert oracle.sum_to(0, [1, 2]) == pytest.approx(1.0 + 3.0)
        assert oracle.sum_to(0, []) == 0.0

    def test_mean_pairwise(self):
        net = _line_network([2.0])
        oracle = LatencyOracle(net, np.array([0, 1]))
        # matrix [[0,2],[2,0]] -> mean 1.0
        assert oracle.mean_pairwise() == pytest.approx(1.0)


class TestValidation:
    def test_duplicate_hosts_rejected(self):
        net = _line_network([1.0])
        with pytest.raises(ValueError):
            LatencyOracle(net, np.array([0, 0]))

    def test_out_of_range_rejected(self):
        net = _line_network([1.0])
        with pytest.raises(ValueError):
            LatencyOracle(net, np.array([0, 5]))

    def test_empty_rejected(self):
        net = _line_network([1.0])
        with pytest.raises(ValueError):
            LatencyOracle(net, np.array([], dtype=np.int64))

    def test_disconnected_rejected(self):
        net = PhysicalNetwork(
            n=4,
            edges_u=np.array([0], dtype=np.int32),
            edges_v=np.array([1], dtype=np.int32),
            edges_w=np.array([1.0]),
            tier=np.ones(4, dtype=np.int8),
            domain=np.zeros(4, dtype=np.int32),
        )
        with pytest.raises(ValueError):
            LatencyOracle(net, np.array([0, 3]))


class TestAgainstNetworkx:
    def test_matches_networkx_dijkstra(self):
        params = TransitStubParams(2, 2, 2, 4)
        net = generate_transit_stub(params, RngRegistry(3).stream("t"))
        hosts = RngRegistry(3).stream("m").choice(net.n, size=10, replace=False)
        oracle = LatencyOracle(net, hosts)

        g = nx.Graph()
        for u, v, w in zip(net.edges_u, net.edges_v, net.edges_w):
            g.add_edge(int(u), int(v), weight=float(w))
        for i, hi in enumerate(hosts):
            lengths = nx.single_source_dijkstra_path_length(g, int(hi))
            for j, hj in enumerate(hosts):
                assert oracle.between(i, j) == pytest.approx(lengths[int(hj)])

    def test_rows_view(self):
        params = TransitStubParams(2, 2, 1, 4)
        net = generate_transit_stub(params, RngRegistry(3).stream("t"))
        oracle = LatencyOracle(net, np.arange(6))
        rows = oracle.rows([1, 3])
        assert rows.shape == (2, 6)
        assert np.array_equal(rows[0], oracle.dense()[1])
