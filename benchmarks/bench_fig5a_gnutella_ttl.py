"""Figure 5(a): PROP-G in Gnutella — average lookup latency vs time,
varying the probe TTL.

Paper series: n = 1000 with nhops ∈ {1, 2, 4} and the random-probing
scenario.  Expected shape: nhops = 1 (neighbors exchange) barely helps;
nhops ∈ {2, 4} and random probing overlap and reduce latency
substantially; curves dip non-monotonically but trend down.
"""

import numpy as np

from benchmarks.common import run_once
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_series
from repro.harness.sweep import run_sweep


def test_fig5a_gnutella_vary_ttl(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig5a"), workers=workers))

    times = next(iter(results.values())).times
    series = {label: r.lookup_latency for label, r in results.items()}
    emit(
        format_series(
            "Fig 5(a)  PROP-G / Gnutella: avg lookup latency (ms) vs time, varying TTL",
            times,
            series,
        )
    )

    # Shape assertions (the figure's qualitative content):
    ratios = {
        label: r.final_lookup_latency / r.initial_lookup_latency
        for label, r in results.items()
    }
    assert ratios["n=1000, nhops=1"] > ratios["n=1000, nhops=2"]
    assert ratios["n=1000, nhops=2"] < 0.85
    assert abs(ratios["n=1000, nhops=2"] - ratios["n=1000, random"]) < 0.2
    assert abs(ratios["n=1000, nhops=2"] - ratios["n=1000, nhops=4"]) < 0.2
    for label, r in results.items():
        assert np.all(np.isfinite(r.lookup_latency))
