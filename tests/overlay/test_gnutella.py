"""Gnutella overlay: construction guarantees and the flooding lookup model."""

import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.overlay.gnutella import GnutellaOverlay


class TestBuild:
    def test_connected(self, gnutella):
        assert gnutella.is_connected()

    def test_min_degree_enforced(self, gnutella):
        assert gnutella.min_degree() >= 3

    def test_too_few_nodes_rejected(self, small_oracle, rngs):
        with pytest.raises(ValueError):
            GnutellaOverlay.build(
                small_oracle, rngs.stream("x"), min_degree=4, embedding=np.arange(4)
            )

    def test_deterministic(self, small_oracle):
        a = GnutellaOverlay.build(small_oracle, RngRegistry(5).stream("g"))
        b = GnutellaOverlay.build(small_oracle, RngRegistry(5).stream("g"))
        assert set(a.iter_edges()) == set(b.iter_edges())

    def test_capacity_weight_biases_degree(self, small_oracle):
        n = small_oracle.n
        w = np.ones(n)
        heavy = np.arange(0, n, 2)
        w[heavy] = 10.0
        ov = GnutellaOverlay.build(
            small_oracle,
            RngRegistry(5).stream("g"),
            min_degree=3,
            mean_extra_degree=3.0,
            capacity_weight=w,
        )
        deg = ov.degree_sequence()
        light = np.setdiff1d(np.arange(n), heavy)
        assert deg[heavy].mean() > deg[light].mean()

    def test_capacity_weight_validated(self, small_oracle, rngs):
        with pytest.raises(ValueError):
            GnutellaOverlay.build(
                small_oracle, rngs.stream("g"), capacity_weight=np.zeros(small_oracle.n)
            )

    def test_sub_embedding(self, small_oracle, rngs):
        emb = np.arange(20)
        ov = GnutellaOverlay.build(small_oracle, rngs.stream("g"), embedding=emb, min_degree=3)
        assert ov.n_slots == 20


class TestLookupModel:
    def test_neighbor_lookup_is_edge_latency(self, gnutella):
        a = 0
        b = next(iter(gnutella.neighbors(a)))
        assert gnutella.lookup_latency(a, b) == pytest.approx(gnutella.latency(a, b))

    def test_self_lookup_zero(self, gnutella):
        assert gnutella.lookup_latency(3, 3) == 0.0

    def test_lookup_is_min_path(self, gnutella):
        """Unbounded lookup latency equals networkx weighted shortest path."""
        import networkx as nx

        g = nx.Graph()
        for a, b in gnutella.iter_edges():
            g.add_edge(a, b, weight=gnutella.latency(a, b))
        src = 0
        lengths = nx.single_source_dijkstra_path_length(g, src)
        mat = gnutella.lookup_latency_matrix([src])
        for dst in (1, 5, 17, 33):
            assert mat[0, dst] == pytest.approx(lengths[dst])

    def test_ttl_bounds_scope(self, gnutella):
        mat1 = gnutella.lookup_latency_matrix([0], ttl=1)
        reachable_1 = np.isfinite(mat1[0])
        expected = np.zeros(gnutella.n_slots, dtype=bool)
        expected[0] = True
        expected[list(gnutella.neighbors(0))] = True
        assert np.array_equal(reachable_1, expected)

    def test_ttl_monotone(self, gnutella):
        m2 = gnutella.lookup_latency_matrix([0], ttl=2)[0]
        m4 = gnutella.lookup_latency_matrix([0], ttl=4)[0]
        assert np.all(m4 <= m2 + 1e-9)

    def test_large_ttl_matches_unbounded(self, gnutella):
        bounded = gnutella.lookup_latency_matrix([0], ttl=gnutella.n_slots)[0]
        exact = gnutella.lookup_latency_matrix([0])[0]
        assert np.allclose(bounded, exact)

    def test_ttl_can_force_longer_hops_not_shorter_latency(self, gnutella):
        """A small TTL can only increase latency (fewer paths allowed)."""
        exact = gnutella.lookup_latency_matrix([0])[0]
        m3 = gnutella.lookup_latency_matrix([0], ttl=3)[0]
        finite = np.isfinite(m3)
        assert np.all(m3[finite] >= exact[finite] - 1e-9)

    def test_node_delay_charged_at_intermediates(self, gnutella):
        nd = np.zeros(gnutella.n_slots)
        nd[:] = 7.0
        # destination processing excluded by default
        a = 0
        b = next(iter(gnutella.neighbors(a)))
        lat = gnutella.lookup_latency(a, b, node_delay=nd)
        assert lat == pytest.approx(gnutella.latency(a, b))
        lat_charged = gnutella.lookup_latency(a, b, node_delay=nd, charge_destination=True)
        assert lat_charged == pytest.approx(gnutella.latency(a, b) + 7.0)

    def test_node_delay_shape_validated(self, gnutella):
        with pytest.raises(ValueError):
            gnutella.lookup_latency_matrix([0], node_delay=np.zeros(3))

    def test_mean_lookup_latency(self, gnutella):
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        vals = [gnutella.lookup_latency(a, b) for a, b in pairs]
        assert gnutella.mean_lookup_latency(pairs) == pytest.approx(np.mean(vals))

    def test_mean_lookup_bad_shape_rejected(self, gnutella):
        with pytest.raises(ValueError):
            gnutella.mean_lookup_latency(np.array([0, 1, 2]))

    def test_retry_timeout_penalizes_failures(self, gnutella):
        # build a pair set that includes unreachable-at-ttl-1 targets
        mat1 = gnutella.lookup_latency_matrix([0], ttl=1)[0]
        far = int(np.flatnonzero(~np.isfinite(mat1))[0])
        pairs = np.array([[0, far]])
        with_retry = gnutella.mean_lookup_latency(pairs, ttl=1, retry_timeout=1000.0)
        exact = gnutella.lookup_latency(0, far)
        assert with_retry == pytest.approx(1000.0 + exact)

    def test_invalid_ttl_rejected(self, gnutella):
        with pytest.raises(ValueError):
            gnutella.lookup_latency_matrix([0], ttl=-1)

    def test_copy_preserves_type_and_graph(self, gnutella):
        clone = gnutella.copy()
        assert isinstance(clone, GnutellaOverlay)
        assert set(clone.iter_edges()) == set(gnutella.iter_edges())
        clone.swap_embedding(0, 1)
        assert gnutella.host_at(0) == 0
