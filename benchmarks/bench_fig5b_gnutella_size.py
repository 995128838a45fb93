"""Figure 5(b): PROP-G in Gnutella — average lookup latency vs time,
varying the system size.

Paper series: nhops = 2 with n ∈ {300, 500, 1000, 5000} (the top size is
"almost all physical nodes" of the ~6000-stub ts-large world).  Expected
shape: improvement at every size; relative effectiveness shrinks mildly
as n grows but persists at n = 5000.
"""

from benchmarks.common import run_once
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import run_sweep


def test_fig5b_gnutella_vary_size(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig5b"), workers=workers))

    times = next(iter(results.values())).times
    emit(
        format_series(
            "Fig 5(b)  PROP-G / Gnutella: avg lookup latency (ms) vs time, varying size",
            times,
            {label: r.lookup_latency for label, r in results.items()},
        )
        + "\n\n"
        + format_table(
            ["size", "initial(ms)", "final(ms)", "final/initial"],
            [
                [label, r.initial_lookup_latency, r.final_lookup_latency, r.improvement_ratio()]
                for label, r in results.items()
            ],
        )
    )

    for r in results.values():
        assert r.final_lookup_latency < r.initial_lookup_latency
    # effectiveness persists at the largest size
    assert results["n=5000, nhops=2"].improvement_ratio() < 0.9
