"""Figure 5(c): PROP-G in Gnutella — average lookup latency vs time on
the two physical topologies.

Paper series: ts-large vs ts-small (~6000 hosts each; big sparse
backbone vs small backbone with dense edge networks).  Expected shape:
ts-large improves markedly more — "two far nodes can execute the
exchange operation with a high probability, and this kind of exchange
will greatly improve the performance".
"""

from benchmarks.common import run_once
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import run_sweep


def test_fig5c_gnutella_vary_topology(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig5c"), workers=workers))

    times = next(iter(results.values())).times
    rows = [
        [
            label,
            r.initial_lookup_latency,
            r.final_lookup_latency,
            r.initial_lookup_latency - r.final_lookup_latency,
            r.link_stretch[-1] / r.link_stretch[0],
        ]
        for label, r in results.items()
    ]
    emit(
        format_series(
            "Fig 5(c)  PROP-G / Gnutella: avg lookup latency (ms) vs time, two topologies",
            times,
            {label: r.lookup_latency for label, r in results.items()},
        )
        + "\n\n"
        + format_table(
            ["topology", "initial(ms)", "final(ms)", "abs drop(ms)", "stretch ratio"],
            rows,
        )
    )

    large, small = results["ts-large"], results["ts-small"]
    drop_large = large.initial_lookup_latency - large.final_lookup_latency
    drop_small = small.initial_lookup_latency - small.final_lookup_latency
    assert drop_large > drop_small
    assert (large.link_stretch[-1] / large.link_stretch[0]
            < small.link_stretch[-1] / small.link_stretch[0])
