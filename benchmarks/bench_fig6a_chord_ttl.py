"""Figure 6(a): PROP-G in Chord — stretch vs time, varying the probe TTL.

Same four scenarios as Fig 5(a), on the structured overlay, with the
routing-stretch metric (overlay route latency / direct latency — the
~2.5-5.5 range of the paper's axes).  Expected shape: nhops = 1
ineffective; nhops ∈ {2, 4} ≈ random probing; non-monotone dips.
"""

import numpy as np

from benchmarks.common import run_once
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_series
from repro.harness.sweep import run_sweep


def test_fig6a_chord_vary_ttl(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig6a"), workers=workers))

    times = next(iter(results.values())).times
    emit(
        format_series(
            "Fig 6(a)  PROP-G / Chord: stretch vs time, varying TTL",
            times,
            {label: r.stretch for label, r in results.items()},
        )
    )

    ratios = {label: r.final_stretch / r.initial_stretch for label, r in results.items()}
    assert ratios["n=1000, nhops=1"] > ratios["n=1000, nhops=2"]
    assert ratios["n=1000, nhops=2"] < 0.95
    assert abs(ratios["n=1000, nhops=2"] - ratios["n=1000, random"]) < 0.2
    # stretch magnitude in the paper's plotted range
    for r in results.values():
        assert 1.5 < r.initial_stretch < 10.0
        assert np.all(np.isfinite(r.stretch))
