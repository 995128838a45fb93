"""The routed-overlay lookup samplers against pinned values.

``SAMPLES`` and ``SINGLES`` were captured on the commit before the four
structured families got one shared base (``RoutedOverlay``) and one
place that draws and prices their lookups
(:func:`repro.workloads.lookups.sample_lookups`): ts-small, n = 64,
seed 0, 50 lookups per sample.  Three successive samples per world, so
the persistent ``lookup-workload`` stream is pinned too, not only the
first draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.experiment import ExperimentConfig, build_world, sample_lookup_latency
from repro.live.traffic import single_lookup
from repro.topology.factory import ORACLE_BACKENDS
from repro.workloads.lookups import uniform_keys, uniform_pairs

FAMILIES = {
    "chord": dict(overlay_kind="chord"),
    "pns-chord": dict(overlay_kind="chord", pns=True),
    "can": dict(overlay_kind="can"),
    "pastry": dict(overlay_kind="pastry"),
    "kademlia": dict(overlay_kind="kademlia"),
}

SAMPLES = {
    ("chord", False): [
        ("0x1.fc66666666666p+9", "0x1.159999999999ap+8"),
        ("0x1.ec00000000000p+9", "0x1.08b3333333333p+8"),
        ("0x1.026cccccccccdp+10", "0x1.ebccccccccccdp+7"),
    ],
    ("chord", True): [
        ("0x1.2d31eb851eb85p+10", "0x1.159999999999ap+8"),
        ("0x1.266e147ae147bp+10", "0x1.08b3333333333p+8"),
        ("0x1.366147ae147aep+10", "0x1.ebccccccccccdp+7"),
    ],
    ("pns-chord", False): [
        ("0x1.6780000000000p+9", "0x1.159999999999ap+8"),
        ("0x1.7c8cccccccccdp+9", "0x1.08b3333333333p+8"),
        ("0x1.70f3333333333p+9", "0x1.ebccccccccccdp+7"),
    ],
    ("pns-chord", True): [
        ("0x1.bc75c28f5c28fp+9", "0x1.159999999999ap+8"),
        ("0x1.d56e147ae147bp+9", "0x1.08b3333333333p+8"),
        ("0x1.d7d999999999ap+9", "0x1.ebccccccccccdp+7"),
    ],
    ("can", False): [
        ("0x1.bdb3333333333p+9", "0x1.0980000000000p+8"),
        ("0x1.d2ccccccccccdp+9", "0x1.07b3333333333p+8"),
        ("0x1.8accccccccccdp+9", "0x1.0400000000000p+8"),
    ],
    ("can", True): [
        ("0x1.feccccccccccdp+9", "0x1.0980000000000p+8"),
        ("0x1.116f5c28f5c29p+10", "0x1.07b3333333333p+8"),
        ("0x1.bfe3d70a3d70ap+9", "0x1.0400000000000p+8"),
    ],
    ("pastry", False): [
        ("0x1.b500000000000p+8", "0x1.de33333333333p+7"),
        ("0x1.ddccccccccccdp+8", "0x1.ed33333333333p+7"),
        ("0x1.a74cccccccccdp+8", "0x1.0c4cccccccccdp+8"),
    ],
    ("pastry", True): [
        ("0x1.07d999999999ap+9", "0x1.de33333333333p+7"),
        ("0x1.21428f5c28f5cp+9", "0x1.ed33333333333p+7"),
        ("0x1.fa147ae147ae1p+8", "0x1.0c4cccccccccdp+8"),
    ],
    ("kademlia", False): [
        ("0x1.c61999999999ap+8", "0x1.26e6666666666p+8"),
        ("0x1.9e4cccccccccdp+8", "0x1.e39999999999ap+7"),
        ("0x1.9fccccccccccdp+8", "0x1.fc00000000000p+7"),
    ],
    ("kademlia", True): [
        ("0x1.145999999999ap+9", "0x1.26e6666666666p+8"),
        ("0x1.ef23d70a3d70ap+8", "0x1.e39999999999ap+7"),
        ("0x1.f0b3333333333p+8", "0x1.fc00000000000p+7"),
    ],
}

SINGLES = {
    ("chord", False): [
        "0x1.1080000000000p+9", "0x1.8240000000000p+10", "0x1.1f80000000000p+10",
        "0x1.3ec0000000000p+10", "0x1.3d80000000000p+9",
    ],
    ("chord", True): [
        "0x1.7480000000000p+9", "0x1.b540000000000p+10", "0x1.5200000000000p+10",
        "0x1.8a40000000000p+10", "0x1.d400000000000p+9",
    ],
    ("pns-chord", False): [
        "0x1.1080000000000p+9", "0x1.e280000000000p+9", "0x1.5e00000000000p+9",
        "0x1.8880000000000p+9", "0x1.3d80000000000p+9",
    ],
    ("pns-chord", True): [
        "0x1.7480000000000p+9", "0x1.2400000000000p+10", "0x1.9100000000000p+9",
        "0x1.0f80000000000p+10", "0x1.d480000000000p+9",
    ],
    ("can", False): [
        "0x1.1d00000000000p+8", "0x1.a680000000000p+9", "0x1.e280000000000p+9",
        "0x1.3100000000000p+10", "0x1.4640000000000p+10",
    ],
    ("can", True): [
        "0x1.8100000000000p+8", "0x1.a800000000000p+9", "0x1.0b40000000000p+10",
        "0x1.4b00000000000p+10", "0x1.aac0000000000p+10",
    ],
    ("pastry", False): [
        "0x1.0900000000000p+9", "0x1.4500000000000p+9", "0x1.a400000000000p+8",
        "0x1.2c00000000000p+8", "0x1.5e00000000000p+9",
    ],
    ("pastry", True): [
        "0x1.3b80000000000p+9", "0x1.7780000000000p+9", "0x1.3600000000000p+9",
        "0x1.2d00000000000p+8", "0x1.5f00000000000p+9",
    ],
    ("kademlia", False): [
        "0x1.2c00000000000p+8", "0x1.cc00000000000p+6", "0x1.3600000000000p+8",
        "0x1.c200000000000p+7", "0x1.9000000000000p+8",
    ],
    ("kademlia", True): [
        "0x1.2d00000000000p+8", "0x1.ae00000000000p+7", "0x1.9a00000000000p+8",
        "0x1.4500000000000p+8", "0x1.f400000000000p+8",
    ],
}


def _world(family: str, het: bool, oracle: str = "exact"):
    return build_world(ExperimentConfig(
        seed=0, preset="ts-small", n_overlay=64, heterogeneous=het, oracle=oracle,
        duration=1.0, sample_interval=1.0, lookups_per_sample=50, **FAMILIES[family]))


def _delays(world):
    return world.het.slot_delays(world.overlay.embedding) if world.het is not None else None


@pytest.mark.parametrize("family,het", list(SAMPLES))
def test_sample_lookup_latency_is_the_parents(family, het):
    world = _world(family, het)
    got = [sample_lookup_latency(world) for _ in range(3)]
    assert [(float(a).hex(), float(b).hex()) for a, b in got] == SAMPLES[family, het]


@pytest.mark.parametrize("family,het", list(SINGLES))
def test_single_lookup_is_the_parents(family, het):
    world = _world(family, het)
    rng = world.rngs.stream("live:traffic")
    got = [single_lookup(world.overlay, rng, node_delay=_delays(world)) for _ in range(5)]
    assert [float(x).hex() for x in got] == SINGLES[family, het]


@pytest.mark.parametrize("het", [False, True])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_batch_is_route_then_path_latency(family, het):
    """The one batch form prices each query as its own route, exactly,
    over every oracle backend (its one gather against per-hop reads)."""
    for oracle in ORACLE_BACKENDS:
        world = _world(family, het, oracle)
        ov, nd = world.overlay, _delays(world)
        rng = np.random.default_rng(4)
        if family == "can":
            pairs = uniform_pairs(ov.n_slots, 40, rng).tolist()
            queries = [(s, ov.zones[d].center()) for s, d in pairs]
        else:
            queries = uniform_keys(ov.n_slots, ov.space, 40, rng).tolist()
            queries[0][1] = int(ov.ids[queries[0][0]])  # a zero-hop lookup
        got = ov.lookup_latencies(queries, nd)
        assert got.shape == (40,)
        for i, (src, target) in enumerate(queries):
            assert got[i] == ov.path_latency(ov.route(src, target), nd), oracle
            assert got[i] == ov.lookup_latency(src, target, nd), oracle
        assert ov.lookup_latencies(queries[:0], nd).shape == (0,)
