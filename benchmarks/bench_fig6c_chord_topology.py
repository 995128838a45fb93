"""Figure 6(c): PROP-G in Chord — stretch vs time on the two topologies.

Expected shape: ts-large's stretch falls further (relatively) than
ts-small's, mirroring Fig 5(c) on the structured overlay.
"""

from benchmarks.common import run_once
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import run_sweep


def test_fig6c_chord_vary_topology(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig6c"), workers=workers))

    times = next(iter(results.values())).times
    emit(
        format_series(
            "Fig 6(c)  PROP-G / Chord: stretch vs time, two topologies",
            times,
            {label: r.stretch for label, r in results.items()},
        )
        + "\n\n"
        + format_table(
            ["topology", "initial", "final", "link-stretch ratio"],
            [
                [label, r.initial_stretch, r.final_stretch, r.link_stretch[-1] / r.link_stretch[0]]
                for label, r in results.items()
            ],
        )
    )

    large, small = results["ts-large"], results["ts-small"]
    assert large.final_stretch < large.initial_stretch
    assert small.final_stretch < small.initial_stretch
    assert (
        large.link_stretch[-1] / large.link_stretch[0]
        < small.link_stretch[-1] / small.link_stretch[0]
    )
