"""Presets: paper-scale shapes and the ts-large vs ts-small contrast."""

import numpy as np
import pytest

from repro.topology.presets import (
    TS_LARGE, TS_SMALL, build_preset, preset_params, ts_large,
)
from repro.netsim.rng import RngRegistry


def test_preset_lookup():
    assert preset_params("ts-large") is TS_LARGE
    assert preset_params("ts-small") is TS_SMALL


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset_params("ts-medium")


def test_paper_latency_constants():
    for p in (TS_LARGE, TS_SMALL):
        assert p.latencies.stub_stub == 5.0
        assert p.latencies.stub_transit == 20.0
        assert p.latencies.transit_transit == 100.0


def test_similar_total_host_count():
    # both presets target ~6000 stub hosts (the paper: "both of which
    # contain about [6000] nodes")
    assert TS_LARGE.n_stub == 6000
    assert TS_SMALL.n_stub == 6000


def test_backbone_contrast():
    # ts-large: big backbone; ts-small: tiny backbone, dense edge networks
    assert TS_LARGE.n_transit == 100
    assert TS_SMALL.n_transit == 10
    assert TS_LARGE.stub_nodes_per_domain < TS_SMALL.stub_nodes_per_domain


def test_ts_large_builds():
    net = ts_large(seed=0)
    assert net.n == TS_LARGE.n_hosts
    assert len(net.stub_hosts) == 6000


def test_ts_small_builds():
    net = build_preset("ts-small", RngRegistry(0).stream("topology:ts-small"))
    assert net.n == TS_SMALL.n_hosts
    assert len(net.stub_hosts) == 6000


def test_build_preset_deterministic():
    a = build_preset("ts-small", RngRegistry(1).stream("x"))
    b = build_preset("ts-small", RngRegistry(1).stream("x"))
    assert np.array_equal(a.edges_u, b.edges_u)


def test_cross_domain_probability_contrast():
    """In ts-large two random stub hosts almost never share a stub domain;
    in ts-small they collide far more often — the property behind the
    Fig 5(c)/6(c) contrast."""
    rng = np.random.default_rng(0)
    results = {}
    for name in ("large", "small"):
        net = build_preset(f"ts-{name}", RngRegistry(2).stream(f"topology:ts-{name}"))
        hosts = rng.choice(net.stub_hosts, size=400, replace=False)
        dom = net.domain[hosts]
        same = np.mean(dom[:200] == dom[200:])
        results[name] = same
    assert results["small"] > results["large"]


def test_waxman_preset_builds():
    net = build_preset("waxman", RngRegistry(0).stream("w"))
    assert net.n == 6000
    assert len(net.stub_hosts) == 6000  # all hosts may join overlays


def test_waxman_preset_deterministic():
    a = build_preset("waxman", RngRegistry(1).stream("w"))
    b = build_preset("waxman", RngRegistry(1).stream("w"))
    assert np.array_equal(a.edges_u, b.edges_u)
