"""Exact oracle build: anchor decomposition == one Dijkstra per member.

The reference is the build the decomposition replaced:
``shortest_path_rows(net, hosts)[:, hosts]`` with the diagonal zeroed.
All link latencies here are integer-valued unless a test says
otherwise, so equality is bit for bit (``np.array_equal``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RngRegistry
from repro.topology import latency
from repro.topology.latency import LatencyOracle, shortest_path_rows
from repro.topology.presets import build_preset
from repro.topology.transit_stub import (
    TIER_TRANSIT,
    LinkLatencies,
    PhysicalNetwork,
    TransitStubParams,
    generate_transit_stub,
)
from repro.topology.waxman import WaxmanParams, generate_waxman


def _reference(net, hosts):
    hosts = np.asarray(hosts, dtype=np.int64)
    matrix = shortest_path_rows(net, hosts)[:, hosts]
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _network(domain, edges):
    """Hand-built network from a per-host domain list and (u, v, w) edges."""
    u, v, w = zip(*edges)
    net = PhysicalNetwork(
        n=len(domain),
        edges_u=np.asarray(u, dtype=np.int32),
        edges_v=np.asarray(v, dtype=np.int32),
        edges_w=np.asarray(w, dtype=np.float64),
        tier=np.ones(len(domain), dtype=np.int8),
        domain=np.asarray(domain, dtype=np.int32),
    )
    net.validate()
    return net


def _pendant_labels(net):
    """Original domain labels the build treats as pendant."""
    _, anchor = latency._host_anchors(net)
    return sorted(set(net.domain[anchor != np.arange(net.n)].tolist()))


def _preset_world(preset, seed, n):
    rngs = RngRegistry(seed)
    net = build_preset(preset, rngs.stream("topology"))
    hosts = rngs.stream("membership").choice(net.stub_hosts, size=n, replace=False)
    return net, hosts


class TestPresets:
    @pytest.mark.parametrize("preset", ["ts-large", "ts-small"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_per_member_dijkstra(self, preset, seed):
        net, hosts = _preset_world(preset, seed, 300)
        matrix = LatencyOracle(net, hosts).dense()
        assert np.array_equal(matrix, _reference(net, hosts))
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous

    def test_dijkstra_runs_from_anchors_only(self, monkeypatch):
        """Stub members anchor at their transit router: <= 100 sources on ts-large."""
        net, hosts = _preset_world("ts-large", 0, 300)
        sources = []

        def spy(network, srcs):
            sources.append(np.asarray(srcs))
            return shortest_path_rows(network, srcs)

        monkeypatch.setattr(latency, "shortest_path_rows", spy)
        LatencyOracle(net, hosts)
        assert len(sources) == 1
        transit = np.flatnonzero(net.tier == TIER_TRANSIT)
        assert sources[0].size <= transit.size
        assert np.isin(sources[0], transit).all()

    def test_n5000_build_and_state_stay_far_below_n_squared(self):
        """ts-large at n=5000 (the scale_n5000 world): no n x n array
        exists at any point.  The dense matrix alone was 200 MB; the
        stored state is ~300 domain rows of n floats (~12 MB) and the
        build peak adds the <= 100 anchor rows over all 6100 hosts."""
        net, hosts = _preset_world("ts-large", 0, 5000)
        tracemalloc.start()
        try:
            oracle = LatencyOracle(net, hosts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000
        assert oracle.state_nbytes() < 16_000_000


class TestGeneratedSweep:
    def test_random_small_transit_stub(self):
        """1- and 2-node domains, no stub domains, zero chords, members
        drawn from every tier."""
        rng = np.random.default_rng(20070910)
        for case in range(60):
            params = TransitStubParams(
                transit_domains=int(rng.integers(1, 4)),
                transit_nodes_per_domain=int(rng.integers(1, 4)),
                stub_domains_per_transit=int(rng.integers(0, 3)),
                stub_nodes_per_domain=int(rng.integers(1, 6)),
                extra_chords_frac=float(rng.choice([0.0, 0.3, 1.0])),
                extra_interdomain_links=int(rng.integers(0, 3)),
            )
            net = generate_transit_stub(params, rng)
            size = int(rng.integers(1, net.n + 1))
            hosts = rng.choice(net.n, size=size, replace=False)
            assert np.array_equal(
                LatencyOracle(net, hosts).dense(), _reference(net, hosts)
            ), f"case {case}: {params}"

    def test_non_integer_latencies_agree_to_rounding(self):
        """The identities hold for any positive weights; only the bit-for-bit
        claim needs sums that are exact in float64."""
        rng = np.random.default_rng(7)
        params = TransitStubParams(
            2, 3, 2, 6, latencies=LinkLatencies(0.1, 0.7, 3.3)
        )
        net = generate_transit_stub(params, rng)
        hosts = rng.permutation(net.n)
        np.testing.assert_allclose(
            LatencyOracle(net, hosts).dense(), _reference(net, hosts), rtol=1e-12, atol=0
        )

    def test_waxman_degenerates_to_per_member_dijkstra(self):
        """One domain, no cross edges: every member is its own anchor."""
        rng = np.random.default_rng(3)
        net = generate_waxman(WaxmanParams(n=80), rng)
        hosts = rng.choice(net.n, size=30, replace=False)
        assert _pendant_labels(net) == []
        assert np.array_equal(LatencyOracle(net, hosts).dense(), _reference(net, hosts))


# Domain 0 is a triangle "core" (hosts 0-2) in most hand-built graphs; it
# needs two exits to stay non-pendant, hence the one-host domain 2 below.
_CORE = [(0, 1, 100.0), (1, 2, 100.0), (0, 2, 10.0)]

# Domain 1 = hosts 3-6 behind gateway 3, but 5-6 has no link to 3-4.
_CUT_OFF = _network(
    [0, 0, 0, 1, 1, 1, 1, 2],
    _CORE + [(3, 4, 5.0), (5, 6, 5.0), (3, 0, 20.0), (7, 1, 20.0)],
)


class TestHandBuilt:
    def _check(self, net, hosts):
        matrix = LatencyOracle(net, np.asarray(hosts)).dense()
        assert np.array_equal(matrix, _reference(net, hosts))
        return matrix

    def test_multi_homed_stub_domain_is_not_pendant(self):
        # 3 -> 5 is 100 inside the domain but 50 through its two exits.
        net = _network(
            [0, 0, 0, 1, 1, 1],
            _CORE + [(3, 4, 50.0), (4, 5, 50.0), (3, 0, 20.0), (5, 2, 20.0)],
        )
        assert _pendant_labels(net) == []
        matrix = self._check(net, [3, 4, 5, 1])
        assert matrix[0, 2] == 50.0

    def test_two_domains_whose_only_exits_lead_to_each_other(self):
        net = _network(
            [0, 0, 0, 1, 1, 1],
            [(0, 1, 5.0), (1, 2, 5.0), (2, 3, 20.0), (3, 4, 5.0), (4, 5, 5.0)],
        )
        assert _pendant_labels(net) == []  # both demoted
        matrix = self._check(net, [0, 5, 1, 4])
        assert matrix[0, 1] == 40.0

    def test_pendant_domain_hanging_off_a_non_pendant_stub_domain(self):
        # core(0) - stub(1) - leaf(2): the stub has two exits, the leaf and
        # the core one each, and both anchor inside the stub.
        net = _network(
            [0, 0, 0, 1, 1, 1, 2, 2, 2],
            _CORE
            + [(3, 4, 5.0), (4, 5, 5.0), (3, 5, 5.0), (3, 0, 20.0)]
            + [(6, 7, 5.0), (7, 8, 5.0), (6, 5, 20.0)],
        )
        assert _pendant_labels(net) == [0, 2]
        matrix = self._check(net, [8, 1, 4, 6, 2, 0])
        assert matrix[0, 1] == 5 + 5 + 20 + 5 + 20 + 100

    def test_all_members_in_one_pendant_domain(self):
        net = _network(
            [0, 0, 0, 1, 1, 1, 1, 2],
            _CORE
            + [(3, 4, 5.0), (4, 5, 5.0), (5, 6, 5.0), (3, 6, 5.0), (3, 0, 20.0)]
            + [(7, 1, 20.0)],
        )
        assert _pendant_labels(net) == [1, 2]
        self._check(net, [6, 4, 3, 5])

    def test_single_member(self):
        net = _network(
            [0, 0, 0, 1, 1, 2], _CORE + [(3, 4, 5.0), (3, 0, 20.0), (5, 1, 20.0)]
        )
        assert _pendant_labels(net) == [1, 2]
        assert np.array_equal(self._check(net, [4]), np.zeros((1, 1)))

    @pytest.mark.parametrize("hosts", [[1, 5], [4, 5], [3, 6, 1]])
    def test_component_cut_off_from_its_gateway_raises(self, hosts):
        assert _pendant_labels(_CUT_OFF) == [1, 2]
        with pytest.raises(ValueError, match="disconnected"):
            LatencyOracle(_CUT_OFF, np.asarray(hosts))

    def test_members_inside_the_cut_off_component_still_build(self):
        assert self._check(_CUT_OFF, [6, 5])[0, 1] == 5.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_query_equals_per_member_dijkstra(seed, data):
    """Small transit-stub worlds whose members include a lone member of a
    pendant domain, several members of another, and self-anchored
    transit routers: every query reads the per-member Dijkstra bit for
    bit, diagonal included."""
    rng = np.random.default_rng(seed)
    params = TransitStubParams(
        transit_domains=data.draw(st.integers(1, 3)),
        transit_nodes_per_domain=data.draw(st.integers(1, 3)),
        stub_domains_per_transit=data.draw(st.integers(2, 3)),
        stub_nodes_per_domain=data.draw(st.integers(2, 5)),
        extra_chords_frac=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    net = generate_transit_stub(params, rng)
    _, anchor = latency._host_anchors(net)
    selfish = np.flatnonzero(anchor == np.arange(net.n))
    lone, several = rng.choice(_pendant_labels(net), size=2, replace=False)
    in_several = np.flatnonzero(net.domain == several)
    hosts = np.concatenate([
        rng.choice(np.flatnonzero(net.domain == lone), size=1),
        rng.choice(in_several, size=int(rng.integers(2, in_several.size + 1)), replace=False),
        rng.choice(selfish, size=int(rng.integers(1, selfish.size + 1)), replace=False),
    ])
    rest = np.setdiff1d(np.flatnonzero(net.domain != lone), hosts)
    extra = data.draw(st.integers(0, rest.size))
    hosts = rng.permutation(np.concatenate([hosts, rng.choice(rest, size=extra, replace=False)]))

    oracle = LatencyOracle(net, hosts)
    ref = _reference(net, hosts)
    n = hosts.size
    everyone = np.arange(n)
    a, b = np.meshgrid(everyone, everyone, indexing="ij")
    assert np.array_equal(oracle.pairwise(a.ravel(), b.ravel()), ref.ravel())
    assert np.array_equal(oracle.rows(everyone), ref)
    sel = rng.choice(n, size=int(rng.integers(1, n + 1)))
    assert np.array_equal(oracle.rows(sel), ref[sel])
    for i in range(n):
        others = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        assert np.array_equal(oracle.to_many(i, everyone), ref[i])
        assert np.array_equal(oracle.to_many(i, others), ref[i, others])
        assert oracle.sum_to(i, others) == float(ref[i, others].sum())
        assert [oracle.between(i, j) for j in range(n)] == ref[i].tolist()
