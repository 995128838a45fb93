"""The latency oracle is a true metric (hypothesis).

Shortest-path distances over a positively weighted connected graph form
a metric space: symmetric, zero exactly on the diagonal, and satisfying
the triangle inequality.  The overlays and the Var analysis implicitly
rely on all three; the suite fuzzes generated transit-stub worlds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RngRegistry
from repro.topology.latency import LatencyOracle
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub


def _oracle(seed: int, n_members: int):
    params = TransitStubParams(2, 2, 2, 6)
    net = generate_transit_stub(params, np.random.default_rng(seed))
    members = RngRegistry(seed).stream("m").choice(
        net.n, size=min(n_members, net.n), replace=False
    )
    return LatencyOracle(net, members)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20))
def test_symmetry_and_zero_diagonal(seed, n):
    oracle = _oracle(seed, n)
    d = oracle.dense()
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    off = d[~np.eye(oracle.n, dtype=bool)]
    assert np.all(off > 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 15))
def test_triangle_inequality(seed, n):
    oracle = _oracle(seed, n)
    d = oracle.dense()
    k = oracle.n
    # d[i,j] <= d[i,l] + d[l,j] for all i, j, l (vectorized check)
    via = d[:, :, None] + d[None, :, :]   # via[i, l, j]
    best_via = via.min(axis=1)
    assert np.all(d <= best_via + 1e-9)
