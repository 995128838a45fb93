"""Figure 6(b): PROP-G in Chord — stretch vs time, varying system size.

Paper series: nhops = 2 with n ∈ {300, 500, 1000, 5000}.  Expected
shape: stretch reduced at every size; effectiveness shrinks mildly with
n but persists when almost all physical nodes join.
"""

from benchmarks.common import run_once
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import run_sweep


def test_fig6b_chord_vary_size(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig6b"), workers=workers))

    times = next(iter(results.values())).times
    emit(
        format_series(
            "Fig 6(b)  PROP-G / Chord: stretch vs time, varying size",
            times,
            {label: r.stretch for label, r in results.items()},
        )
        + "\n\n"
        + format_table(
            ["size", "initial stretch", "final stretch", "final/initial"],
            [
                [label, r.initial_stretch, r.final_stretch, r.final_stretch / r.initial_stretch]
                for label, r in results.items()
            ],
        )
    )

    for r in results.values():
        assert r.final_stretch < r.initial_stretch
    assert (results["n=5000, nhops=2"].final_stretch
            / results["n=5000, nhops=2"].initial_stretch < 0.95)
