"""The batched flood sampler against its per-source reference.

``GnutellaOverlay._lookup_values`` meets two limited balls around the
endpoints of an unbounded flood and falls back to shortest-path trees
rooted at whichever endpoint occurs in more pairs of the batch; both
rely on the symmetry of a flood up to the endpoints' own processing
delays.  The reference below is the one-tree-per-distinct-source form
they replaced: equal bit for bit wherever latencies are integers (both
transit-stub presets and the integer small worlds, with or without
node delays), to 1e-12 on Vivaldi.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, build_world, run_experiment
from repro.overlay import gnutella as gnutella_module
from repro.overlay.gnutella import GnutellaOverlay
from repro.workloads.lookups import uniform_pairs
from tests.properties.util import FakeOracle


def reference(ov, pairs, node_delay, ttl, charge_destination):
    """One shortest-path tree per distinct source, then a gather."""
    pairs = np.asarray(pairs, dtype=np.intp)
    srcs, inverse = np.unique(pairs[:, 0], return_inverse=True)
    vals = ov.lookup_latency_matrix(srcs, node_delay, ttl)[inverse, pairs[:, 1]]
    if node_delay is not None and not charge_destination:
        vals = vals - np.asarray(node_delay, dtype=np.float64)[pairs[:, 1]]
    vals[pairs[:, 0] == pairs[:, 1]] = 0.0
    return vals


def _world(preset: str, n: int, **kw):
    return build_world(ExperimentConfig(
        seed=3, preset=preset, n_overlay=n, heterogeneous=True,
        duration=1.0, sample_interval=1.0, **kw))


@pytest.fixture(scope="module", params=[("ts-large", 300), ("ts-small", 120)],
                ids=["ts-large", "ts-small"])
def integer_world(request):
    return _world(*request.param)


@pytest.fixture(scope="module")
def vivaldi_world():
    return _world("ts-small", 120, oracle="vivaldi")


def _delays(world, bimodal: bool):
    return world.het.slot_delays(world.overlay.embedding) if bimodal else None


GRID = [(bimodal, ttl, charge)
        for bimodal in (False, True) for ttl in (None, 2, 4) for charge in (False, True)]


@pytest.mark.parametrize("bimodal,ttl,charge", GRID)
def test_equals_per_source_reference(integer_world, bimodal, ttl, charge):
    ov = integer_world.overlay
    nd = _delays(integer_world, bimodal)
    pairs = uniform_pairs(ov.n_slots, 400, np.random.default_rng(5))
    got = ov._lookup_values(pairs, nd, ttl, charge)
    assert np.array_equal(got, reference(ov, pairs, nd, ttl, charge))
    if ttl == 2:
        assert np.isinf(got).any() and np.isfinite(got).any()  # the scope really bites


@pytest.mark.parametrize("bimodal,ttl,charge", GRID)
def test_vivaldi_agrees_to_rounding(vivaldi_world, bimodal, ttl, charge):
    ov = vivaldi_world.overlay
    nd = _delays(vivaldi_world, bimodal)
    pairs = uniform_pairs(ov.n_slots, 400, np.random.default_rng(6))
    got = ov._lookup_values(pairs, nd, ttl, charge)
    want = reference(ov, pairs, nd, ttl, charge)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    reached = np.isfinite(want)
    np.testing.assert_allclose(got[reached], want[reached], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bimodal", [False, True])
def test_retry_path_equals_reference(integer_world, bimodal):
    ov = integer_world.overlay
    nd = _delays(integer_world, bimodal)
    pairs = uniform_pairs(ov.n_slots, 400, np.random.default_rng(7))
    want = reference(ov, pairs, nd, 3, False)
    failed = ~np.isfinite(want)
    assert failed.any() and not failed.all()
    want[failed] = 750.0 + reference(ov, pairs[failed], nd, None, False)
    got = ov.mean_lookup_latency(pairs, node_delay=nd, ttl=3, retry_timeout=750.0)
    assert got == float(np.mean(want))


BATCHES = ("duplicates", "pair-and-reverse", "same-source", "same-target",
           "self-pairs", "single", "empty")


def _batches(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(8)
    others = rng.permutation(np.arange(1, n))[:40]
    zeros = np.zeros_like(others)
    base = uniform_pairs(n, 60, rng)
    return {
        "duplicates": np.concatenate([base, base[:20], base[:5]]),
        "pair-and-reverse": np.concatenate([base, base[:30, ::-1]]),
        "same-source": np.stack([zeros, others], axis=1),
        "same-target": np.stack([others, zeros], axis=1),
        "self-pairs": np.array([[3, 3], [3, 5], [5, 3], [7, 7], [3, 3]]),
        "single": np.array([[2, 9]]),
        "empty": np.empty((0, 2), dtype=np.intp),
    }


@pytest.mark.parametrize("name", BATCHES)
@pytest.mark.parametrize("bimodal,ttl,charge", GRID)
def test_special_batches(integer_world, name, bimodal, ttl, charge):
    ov = integer_world.overlay
    nd = _delays(integer_world, bimodal)
    pairs = _batches(ov.n_slots)[name]
    got = ov._lookup_values(pairs, nd, ttl, charge)
    assert got.shape == (len(pairs),)
    assert np.array_equal(got, reference(ov, pairs, nd, ttl, charge))


@pytest.mark.parametrize("charge", [False, True])
def test_self_pair_costs_nothing_under_heterogeneity(integer_world, charge):
    """Regression: the batch form returned ``-node_delay[dst]`` for a
    self-pair while the scalar form returned 0."""
    ov = integer_world.overlay
    nd = _delays(integer_world, True)
    assert nd[3] > 0
    assert ov.lookup_latency(3, 3, node_delay=nd, charge_destination=charge) == 0.0
    vals = ov.lookup_latencies([[3, 3]], node_delay=nd, charge_destination=charge)
    assert vals.tolist() == [0.0]
    assert ov.mean_lookup_latency(np.array([[3, 3]]), node_delay=nd,
                                  charge_destination=charge) == 0.0
    mixed = ov.lookup_latencies([[3, 3], [3, 8]], node_delay=nd, charge_destination=charge)
    assert mixed[0] == 0.0
    assert mixed[1] == ov.lookup_latency(3, 8, node_delay=nd, charge_destination=charge)


def test_a_sample_settles_under_half_the_trees_work(monkeypatch):
    """1000 uniform pairs at n = 1000: the endpoint cover that came before
    the meet settled ~420 full trees (420 000 slots); summed over every
    Dijkstra call, the balls, the scale trees and the fallback trees
    settle at most half of that."""
    world = build_world(ExperimentConfig(seed=0, n_overlay=1000, duration=1.0,
                                         sample_interval=1.0))
    ov = world.overlay
    pairs = uniform_pairs(ov.n_slots, 1000, np.random.default_rng(0))
    settled: list[int] = []
    real = gnutella_module.csgraph.dijkstra

    def spy(graph, directed=True, indices=None, **kw):
        rows = real(graph, directed=directed, indices=indices, **kw)
        settled.append(int(np.isfinite(rows).sum()))
        return rows

    monkeypatch.setattr(gnutella_module.csgraph, "dijkstra", spy)
    got = ov._lookup_values(pairs, None, None, False)
    assert sum(settled) <= 420 * 1000 // 2
    monkeypatch.undo()
    assert np.array_equal(got, reference(ov, pairs, None, None, False))


def test_one_long_arc_crossing_the_middle_needs_the_arc_meet():
    """s -1- a -100- b -1- t is the fastest path (102); s -52- c -52- t
    is the only other one (104).  Balls of radius 52 share just c, so a
    meet over shared vertices returns 104 -- within its own ``2 L``
    bound, and wrong.  The arc meet relaxes a -> b and returns 102."""
    s, a, b, t, c = range(5)
    oracle = FakeOracle(5, np.random.default_rng(0))
    oracle.matrix = np.full((5, 5), 1000.0)
    ov = GnutellaOverlay(oracle, np.arange(5))
    for u, v, d in ((s, a, 1.0), (a, b, 100.0), (b, t, 1.0), (s, c, 52.0), (c, t, 52.0)):
        oracle.matrix[u, v] = oracle.matrix[v, u] = d
        ov.add_edge(u, v)
    graph, link = ov._flood_graph(None)
    radius = 52.0
    balls = csgraph.dijkstra(graph, directed=True, indices=[s, t], limit=radius)
    vertex_meet = float(np.min(balls[0] + balls[1]))
    assert vertex_meet == 104.0 <= 2 * radius
    exact = reference(ov, [[s, t]], None, None, False)
    assert exact.tolist() == [102.0]
    met = gnutella_module._meet(graph, link, np.array([[s, t]]), radius, 0.0)
    assert met.tolist() == [102.0]
    assert ov._lookup_values(np.array([[s, t]]), None, None, False).tolist() == [102.0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 200),
       k=st.integers(1, 400), bimodal=st.booleans(), charge=st.booleans())
def test_small_worlds_equal_the_reference(seed, n, k, bimodal, charge):
    """Random small overlays over integer latencies: the meet (and its
    fallback) equals the per-source trees bit for bit, node delays or
    not, destination charged or not."""
    rng = np.random.default_rng(seed)
    oracle = FakeOracle(n, rng)
    oracle.matrix = np.rint(oracle.matrix * rng.uniform(1.0, 20.0))
    ov = GnutellaOverlay.build(oracle, rng)
    nd = rng.choice([2.0, float(rng.integers(50, 400))], size=n) if bimodal else None
    pairs = rng.integers(0, n, size=(k, 2))  # self-pairs and repeats included
    got = ov._lookup_values(pairs, nd, None, charge)
    assert np.array_equal(got, reference(ov, pairs, nd, None, charge))


def test_fig5a_lookup_series_is_the_parents():
    """The fig5a configuration at seed 0, shortened to three samples:
    the series pinned from the commit before the sampler changed."""
    result = run_experiment(ExperimentConfig(
        seed=0, preset="ts-large", n_overlay=1000, prop=PROPConfig(nhops=2),
        duration=720.0, sample_interval=360.0, lookups_per_sample=1000))
    assert [float(x).hex() for x in result.lookup_latency] == [
        "0x1.4e7b851eb851fp+11", "0x1.b3551eb851eb8p+10", "0x1.92d3d70a3d70ap+10",
    ]
