"""Overlay base class: graph ops, embedding, latency views, swap/rewire."""

import numpy as np
import pytest

from repro.baselines.pns import PNSChordOverlay
from repro.overlay.base import Overlay, RoutedOverlay
from repro.overlay.can import CANOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.ultrapeer import UltrapeerGnutellaOverlay


@pytest.fixture()
def square(small_oracle):
    """4-cycle 0-1-2-3-0 over the first four oracle members."""
    ov = Overlay(small_oracle, np.arange(4))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        ov.add_edge(a, b)
    return ov


class TestConstruction:
    def test_embedding_must_be_injective(self, small_oracle):
        with pytest.raises(ValueError):
            Overlay(small_oracle, [0, 1, 1])

    def test_embedding_range_checked(self, small_oracle):
        with pytest.raises(ValueError):
            Overlay(small_oracle, [0, small_oracle.n])

    def test_empty_embedding_rejected(self, small_oracle):
        with pytest.raises(ValueError):
            Overlay(small_oracle, [])

    def test_subset_embedding_allowed(self, small_oracle):
        ov = Overlay(small_oracle, [5, 9, 2])
        assert ov.n_slots == 3
        assert ov.host_at(1) == 9


class TestEdges:
    def test_add_and_query(self, square):
        assert square.has_edge(0, 1)
        assert square.has_edge(1, 0)
        assert not square.has_edge(0, 2)
        assert square.n_edges == 4

    def test_self_loop_rejected(self, square):
        with pytest.raises(ValueError):
            square.add_edge(1, 1)

    def test_duplicate_rejected(self, square):
        with pytest.raises(ValueError):
            square.add_edge(0, 1)

    def test_remove(self, square):
        square.remove_edge(0, 1)
        assert not square.has_edge(0, 1)
        assert square.n_edges == 3

    def test_remove_missing_rejected(self, square):
        with pytest.raises(ValueError):
            square.remove_edge(0, 2)

    def test_neighbors(self, square):
        assert square.neighbors(0) == {1, 3}
        assert sorted(square.neighbor_list(2)) == [1, 3]

    def test_degrees(self, square):
        assert square.degree(0) == 2
        assert square.min_degree() == 2
        assert np.array_equal(square.degree_sequence(), [2, 2, 2, 2])

    def test_iter_edges_each_once(self, square):
        edges = list(square.iter_edges())
        assert len(edges) == 4
        assert all(a < b for a, b in edges)

    def test_edge_arrays_cached_and_invalidated(self, square):
        u1, v1 = square.edge_arrays()
        u2, v2 = square.edge_arrays()
        assert u1 is u2  # cached
        square.remove_edge(0, 1)
        u3, _ = square.edge_arrays()
        assert len(u3) == 3

    def test_out_of_range_slot(self, square):
        with pytest.raises(IndexError):
            square.add_edge(0, 99)


class TestLatency:
    def test_latency_matches_oracle(self, square, small_oracle):
        assert square.latency(0, 1) == small_oracle.between(0, 1)

    def test_latencies_from(self, square, small_oracle):
        vec = square.latencies_from(0, [1, 3])
        assert vec[0] == small_oracle.between(0, 1)
        assert vec[1] == small_oracle.between(0, 3)

    def test_neighbor_latency_sum(self, square, small_oracle):
        expected = small_oracle.between(0, 1) + small_oracle.between(0, 3)
        assert square.neighbor_latency_sum(0) == pytest.approx(expected)

    def test_neighbor_latency_sum_isolated(self, small_oracle):
        ov = Overlay(small_oracle, [0, 1])
        assert ov.neighbor_latency_sum(0) == 0.0

    def test_total_neighbor_latency_counts_each_edge_twice(self, square):
        total = sum(square.latency(a, b) for a, b in square.iter_edges())
        assert square.total_neighbor_latency() == pytest.approx(2 * total)

    def test_mean_logical_edge_latency(self, square):
        mean = np.mean([square.latency(a, b) for a, b in square.iter_edges()])
        assert square.mean_logical_edge_latency() == pytest.approx(mean)

    def test_mean_logical_edge_latency_empty(self, small_oracle):
        ov = Overlay(small_oracle, [0, 1])
        assert ov.mean_logical_edge_latency() == 0.0


class TestSwapAndRewire:
    def test_swap_embedding_swaps_hosts(self, square):
        h0, h2 = square.host_at(0), square.host_at(2)
        square.swap_embedding(0, 2)
        assert square.host_at(0) == h2
        assert square.host_at(2) == h0

    def test_swap_preserves_topology(self, square):
        edges_before = set(square.iter_edges())
        square.swap_embedding(1, 3)
        assert set(square.iter_edges()) == edges_before

    def test_swap_changes_latencies_not_structure(self, square):
        before = square.latency(0, 1)
        square.swap_embedding(1, 2)
        after = square.latency(0, 1)
        # host at slot 1 changed, so (generically) the latency changed
        assert square.has_edge(0, 1)
        assert after == square.oracle.between(square.host_at(0), square.host_at(1))
        assert before == square.oracle.between(square.host_at(0), square.host_at(2))

    def test_rewire_moves_edge(self, square):
        square.rewire(0, 1, 2, 0)
        assert not square.has_edge(0, 1)
        assert square.has_edge(0, 2)
        assert square.n_edges == 4

    def test_versions_bump(self, square):
        t0, e0 = square.topology_version, square.embedding_version
        square.swap_embedding(0, 1)
        assert square.embedding_version == e0 + 1
        assert square.topology_version == t0
        square.remove_edge(0, 1)
        assert square.topology_version > t0


class TestViewsAndCopy:
    def test_is_connected(self, square):
        assert square.is_connected()
        square.remove_edge(0, 1)
        assert square.is_connected()  # still a path
        square.remove_edge(0, 3)
        assert not square.is_connected()  # slot 0 isolated

    def test_copy_is_independent(self, square):
        clone = square.copy()
        clone.remove_edge(0, 1)
        clone.swap_embedding(0, 2)
        assert square.has_edge(0, 1)
        assert square.host_at(0) == 0


FAMILIES = {
    "gnutella": lambda oracle, rng: GnutellaOverlay.build(oracle, rng, min_degree=3),
    "two-tier": lambda oracle, rng: UltrapeerGnutellaOverlay.build_two_tier(
        oracle, rng, ultrapeer_fraction=0.25, leaf_degree=2),
    "chord": ChordOverlay.build,
    "pns-chord": PNSChordOverlay.build,
    "can": CANOverlay.build,
    "pastry": PastryOverlay.build,
    "kademlia": KademliaOverlay.build,
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_copy_is_the_same_type_and_shares_no_mutable_state(family, small_oracle, rngs):
    """One ``copy()`` serves every family: the clone is of the caller's
    type (a PNS ring stays a PNS ring) and owns its graph and embedding."""
    ov = FAMILIES[family](small_oracle, rngs.stream(family))
    sums = [ov.neighbor_latency_sum(s) for s in range(ov.n_slots)]
    routed = isinstance(ov, RoutedOverlay)
    if routed:
        targets = [ov.zones[d].center() if family == "can" else int(ov.ids[d]) + 1
                   for d in range(0, ov.n_slots, 7)]
        costs = [ov.lookup_latency(3, t) for t in targets]

    clone = ov.copy()
    assert type(clone) is type(ov)
    assert clone.oracle is ov.oracle
    assert not np.shares_memory(clone.embedding, ov.embedding)
    assert all(mine is not theirs for mine, theirs in zip(clone._adj, ov._adj))
    assert set(clone.iter_edges()) == set(ov.iter_edges())
    assert np.array_equal(clone.embedding, ov.embedding)

    a, b = 3, ov.n_slots - 2
    clone.swap_embedding(a, b)
    assert clone.host_at(a) == ov.host_at(b)
    assert [ov.neighbor_latency_sum(s) for s in range(ov.n_slots)] == sums
    if routed:
        assert [ov.lookup_latency(3, t) for t in targets] == costs
    if family == "pns-chord":
        edges, fingers = set(ov.iter_edges()), [list(f) for f in ov.fingers]
        clone.refresh()  # a ChordOverlay clone would have no refresh at all
        assert clone.is_connected()
        assert set(ov.iter_edges()) == edges and ov.fingers == fingers
