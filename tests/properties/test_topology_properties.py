"""Transit-stub generator properties over random shapes (hypothesis)."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.transit_stub import TIER_TRANSIT, TransitStubParams, generate_transit_stub

shape = st.tuples(
    st.integers(1, 4),  # transit domains
    st.integers(1, 4),  # transit nodes per domain
    st.integers(0, 3),  # stub domains per transit
    st.integers(1, 8),  # stub nodes per domain
)


def _build(shape_tuple, seed):
    td, tn, sd, sn = shape_tuple
    params = TransitStubParams(td, tn, sd, sn)
    net = generate_transit_stub(params, np.random.default_rng(seed))
    return params, net


@settings(max_examples=40, deadline=None)
@given(shape=shape, seed=st.integers(0, 2**32 - 1))
def test_always_connected(shape, seed):
    _, net = _build(shape, seed)
    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(zip(net.edges_u.tolist(), net.edges_v.tolist()))
    assert nx.is_connected(g)


@settings(max_examples=40, deadline=None)
@given(shape=shape, seed=st.integers(0, 2**32 - 1))
def test_host_counts_match_params(shape, seed):
    params, net = _build(shape, seed)
    assert net.n == params.n_hosts
    assert int((net.tier == TIER_TRANSIT).sum()) == params.n_transit
    assert len(net.stub_hosts) == params.n_stub


@settings(max_examples=40, deadline=None)
@given(shape=shape, seed=st.integers(0, 2**32 - 1))
def test_validate_always_passes(shape, seed):
    _, net = _build(shape, seed)
    net.validate()


@settings(max_examples=40, deadline=None)
@given(shape=shape, seed=st.integers(0, 2**32 - 1))
def test_latencies_drawn_from_three_tiers(shape, seed):
    params, net = _build(shape, seed)
    lat = params.latencies
    allowed = {lat.stub_stub, lat.stub_transit, lat.transit_transit}
    assert set(np.unique(net.edges_w).tolist()) <= allowed
