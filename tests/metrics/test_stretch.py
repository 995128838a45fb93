"""Stretch metric: the link form."""

import pytest

from repro.metrics.stretch import stretch


def test_link_stretch_definition(gnutella):
    expected = gnutella.mean_logical_edge_latency() / gnutella.oracle.mean_physical_link()
    assert stretch(gnutella) == pytest.approx(expected)


def test_link_stretch_drops_after_beneficial_swap(gnutella):
    from repro.core.varcalc import evaluate_prop_g

    # find a positive-Var pair and swap it
    for u in range(gnutella.n_slots):
        done = False
        for v in range(u + 1, gnutella.n_slots):
            if evaluate_prop_g(gnutella, u, v) > 0:
                before = stretch(gnutella)
                gnutella.swap_embedding(u, v)
                assert stretch(gnutella) < before
                done = True
                break
        if done:
            break
    else:
        raise AssertionError("no beneficial swap found")
