"""The batched flood sampler against its per-source reference.

``GnutellaOverlay._lookup_values`` solves each (src, dst) pair from
whichever endpoint occurs in more pairs of the batch, relying on the
symmetry of a flood up to the endpoints' own processing delays.  The
reference below is the one-tree-per-distinct-source form it replaced:
equal bit for bit wherever latencies are integers (both transit-stub
presets, with or without the bimodal delays), to 1e-12 on Vivaldi.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, build_world, run_experiment
from repro.overlay import gnutella as gnutella_module
from repro.workloads.lookups import uniform_pairs


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


def test_a_sample_needs_a_third_fewer_trees(monkeypatch):
    """1000 uniform pairs at n = 1000 name ~630 distinct sources; the
    endpoint cover needs <= 450 shortest-path roots."""
    world = build_world(ExperimentConfig(seed=0, n_overlay=1000, duration=1.0,
                                         sample_interval=1.0))
    ov = world.overlay
    pairs = uniform_pairs(ov.n_slots, 1000, np.random.default_rng(0))
    roots: list[int] = []
    real = gnutella_module.csgraph.dijkstra

    def spy(graph, directed=True, indices=None, **kw):
        roots.append(len(indices))
        return real(graph, directed=directed, indices=indices, **kw)

    monkeypatch.setattr(gnutella_module.csgraph, "dijkstra", spy)
    got = ov._lookup_values(pairs, None, None, False)
    assert len(roots) == 1 and roots[0] <= 450
    assert np.unique(pairs[:, 0]).size > 600
    monkeypatch.undo()
    assert np.array_equal(got, reference(ov, pairs, None, None, False))


def test_fig5a_lookup_series_is_the_parents():
    """The fig5a configuration at seed 0, shortened to three samples:
    the series pinned from the commit before the sampler changed."""
    result = run_experiment(ExperimentConfig(
        seed=0, preset="ts-large", n_overlay=1000, prop=PROPConfig(nhops=2),
        duration=720.0, sample_interval=360.0, lookups_per_sample=1000))
    assert [float(x).hex() for x in result.lookup_latency] == [
        "0x1.4e7b851eb851fp+11", "0x1.b3551eb851eb8p+10", "0x1.92d3d70a3d70ap+10",
    ]
