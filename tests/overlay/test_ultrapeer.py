"""Two-tier ultrapeer Gnutella: structure, restricted flooding, PROP."""

import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.overlay.ultrapeer import ROLE_LEAF, ROLE_ULTRAPEER, UltrapeerGnutellaOverlay


@pytest.fixture()
def two_tier(small_oracle, rngs):
    return UltrapeerGnutellaOverlay.build_two_tier(
        small_oracle, rngs.stream("up"), ultrapeer_fraction=0.25, leaf_degree=2
    )


class TestStructure:
    def test_role_counts(self, two_tier):
        n_up = len(two_tier.ultrapeer_slots)
        assert n_up == round(0.25 * two_tier.n_slots)
        assert n_up + len(two_tier.leaf_slots) == two_tier.n_slots

    def test_leaves_only_touch_ultrapeers(self, two_tier):
        for leaf in two_tier.leaf_slots:
            for nbr in two_tier.neighbor_list(int(leaf)):
                assert two_tier.is_ultrapeer(nbr)

    def test_leaf_degree(self, two_tier):
        for leaf in two_tier.leaf_slots:
            assert two_tier.degree(int(leaf)) == 2

    def test_ultrapeer_mesh_connected(self, two_tier):
        ups = set(two_tier.ultrapeer_slots.tolist())
        start = next(iter(ups))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in two_tier.neighbor_list(x):
                if y in ups and y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == ups

    def test_whole_overlay_connected(self, two_tier):
        assert two_tier.is_connected()

    def test_capacity_elects_ultrapeers(self, small_oracle, rngs):
        w = np.ones(small_oracle.n)
        strong = np.arange(0, 16)
        w[strong] = 100.0
        ov = UltrapeerGnutellaOverlay.build_two_tier(
            small_oracle, rngs.stream("up2"),
            ultrapeer_fraction=0.25, capacity_weight=w,
        )
        assert set(ov.ultrapeer_slots.tolist()) == set(strong.tolist())

    def test_capacity_ties_elect_the_lowest_slots(self, small_oracle, rngs):
        """Two-valued capacities tie: the election must not depend on
        how this machine's sort orders equal keys."""
        w = np.ones(small_oracle.n)
        strong = np.arange(small_oracle.n)[::5]  # 13 strong slots
        w[strong] = 10.0
        ov = UltrapeerGnutellaOverlay.build_two_tier(
            small_oracle, rngs.stream("up3"),
            ultrapeer_fraction=0.25, capacity_weight=w,
        )
        weak = np.setdiff1d(np.arange(small_oracle.n), strong)
        n_up = len(ov.ultrapeer_slots)
        expected = np.concatenate([strong, weak[: n_up - len(strong)]])
        assert ov.ultrapeer_slots.tolist() == sorted(expected.tolist())

    def test_validation(self, small_oracle, rngs):
        with pytest.raises(ValueError):
            UltrapeerGnutellaOverlay.build_two_tier(
                small_oracle, rngs.stream("x"), ultrapeer_fraction=1.5
            )
        with pytest.raises(ValueError):
            UltrapeerGnutellaOverlay.build_two_tier(
                small_oracle, rngs.stream("x"), leaf_degree=0
            )


class TestTwoTierFlooding:
    def test_all_nodes_reachable(self, two_tier):
        mat = two_tier.lookup_latency_matrix([int(two_tier.leaf_slots[0])])
        assert np.all(np.isfinite(mat))

    def test_leaves_do_not_forward(self, two_tier):
        """A leaf that is neither source nor destination never shortens a
        path: removing all other leaves leaves distances unchanged."""
        src = int(two_tier.leaf_slots[0])
        dst = int(two_tier.leaf_slots[1])
        full = two_tier.lookup_latency_matrix([src])[0]

        # hand-computed reference: graph of ultrapeer-outgoing edges
        # plus the source's own edges; other leaves are sinks
        from scipy import sparse
        from scipy.sparse import csgraph

        tails, heads, weights = two_tier._directed_weights(None)
        keep = (two_tier.roles[tails] == ROLE_ULTRAPEER) | (tails == src)
        mat = sparse.coo_matrix(
            (weights[keep], (tails[keep], heads[keep])),
            shape=(two_tier.n_slots, two_tier.n_slots),
        ).tocsr()
        ref = csgraph.dijkstra(mat, directed=True, indices=[src])[0]
        assert np.allclose(full, ref)
        # and strictly: the unrestricted flat flood can be faster
        flat = super(UltrapeerGnutellaOverlay, two_tier).lookup_latency_matrix([src])[0]
        assert np.all(flat <= full + 1e-9)

    def test_ttl_bounded(self, two_tier):
        src = int(two_tier.leaf_slots[0])
        m1 = two_tier.lookup_latency_matrix([src], ttl=1)[0]
        reachable = np.isfinite(m1)
        expected = np.zeros(two_tier.n_slots, dtype=bool)
        expected[src] = True
        expected[list(two_tier.neighbors(src))] = True
        assert np.array_equal(reachable, expected)

    def test_mean_lookup_latency_works(self, two_tier):
        from repro.workloads.lookups import uniform_pairs

        pairs = uniform_pairs(two_tier.n_slots, 60, np.random.default_rng(0))
        val = two_tier.mean_lookup_latency(pairs)
        assert np.isfinite(val) and val > 0

    def test_batched_lookups_keep_the_two_tier_scope(self):
        """Leaf 3 hangs off ultrapeers 0 and 2, one ms from each; the
        mesh joins them through ultrapeer 1 in 200 ms.  A leaf forwards
        only its own query, so 0 -> 2 costs 200 ms, never the 2 ms a
        flat flood through the leaf would take."""
        from tests.properties.util import FakeOracle

        oracle = FakeOracle(4, np.random.default_rng(0))
        oracle.matrix = np.full((4, 4), 500.0)
        roles = np.array([ROLE_ULTRAPEER, ROLE_ULTRAPEER, ROLE_ULTRAPEER, ROLE_LEAF])
        ov = UltrapeerGnutellaOverlay(oracle, np.arange(4), roles)
        for u, v, d in ((0, 1, 100.0), (1, 2, 100.0), (0, 3, 1.0), (2, 3, 1.0)):
            oracle.matrix[u, v] = oracle.matrix[v, u] = d
            ov.add_edge(u, v)
        pairs = np.array([[0, 2], [2, 0], [3, 2], [0, 3]])
        assert ov.lookup_latencies(pairs).tolist() == [200.0, 200.0, 1.0, 1.0]
        assert ov.mean_lookup_latency(pairs) == 100.5


class TestPROPCompatibility:
    def test_prop_o_preserves_roles_and_degrees(self, two_tier):
        from repro.core.config import PROPConfig
        from repro.core.protocol import PROPEngine
        from repro.netsim.engine import Simulator

        deg = two_tier.degree_sequence().copy()
        roles = two_tier.roles.copy()
        before = two_tier.total_neighbor_latency()
        sim = Simulator()
        eng = PROPEngine(two_tier, PROPConfig(policy="O", m=1), sim, RngRegistry(7))
        eng.start()
        sim.run_until(1800.0)
        assert np.array_equal(two_tier.degree_sequence(), deg)
        assert np.array_equal(two_tier.roles, roles)
        assert two_tier.total_neighbor_latency() < before
        assert two_tier.is_connected()

    def test_prop_o_never_creates_leaf_leaf_edges(self, two_tier):
        """The two-tier invariant survives arbitrary engine runs because
        incompatible (cross-role) probes are rejected."""
        from repro.core.config import PROPConfig
        from repro.core.protocol import PROPEngine
        from repro.netsim.engine import Simulator

        sim = Simulator()
        eng = PROPEngine(two_tier, PROPConfig(policy="O", m=2), sim, RngRegistry(9))
        eng.start()
        sim.run_until(3600.0)
        assert eng.counters.exchanges > 0
        for leaf in two_tier.leaf_slots:
            for nbr in two_tier.neighbor_list(int(leaf)):
                assert two_tier.is_ultrapeer(nbr)

    def test_cross_role_exchange_incompatible(self, two_tier):
        leaf = int(two_tier.leaf_slots[0])
        up = int(two_tier.ultrapeer_slots[0])
        assert not two_tier.exchange_compatible(leaf, up, "O")
        assert two_tier.exchange_compatible(leaf, up, "G")
        assert two_tier.exchange_compatible(leaf, int(two_tier.leaf_slots[1]), "O")

    def test_prop_g_optimizes_two_tier(self, two_tier):
        from repro.core.config import PROPConfig
        from repro.core.protocol import PROPEngine
        from repro.netsim.engine import Simulator

        before = two_tier.total_neighbor_latency()
        edges = set(two_tier.iter_edges())
        sim = Simulator()
        eng = PROPEngine(two_tier, PROPConfig(policy="G"), sim, RngRegistry(8))
        eng.start()
        sim.run_until(1800.0)
        assert two_tier.total_neighbor_latency() < before
        assert set(two_tier.iter_edges()) == edges  # structure untouched

    def test_copy_preserves_roles(self, two_tier):
        clone = two_tier.copy()
        assert np.array_equal(clone.roles, two_tier.roles)
        clone.swap_embedding(0, 1)
        assert two_tier.host_at(0) != clone.host_at(0)
