"""Figure 7: average lookup delay under bimodal processing delays, when
varying the fraction of lookups that target fast nodes.

Paper series: PROP-O (m ∈ {1, 2, 4}), PROP-G and LTM in a Gnutella-like
environment; fast nodes 1 ms processing, slow nodes 100 ms, 50 % fast;
delays reported as a normalized ratio.  Paper shape: LTM best when all
queries target slow nodes; PROP-G's (and, in the paper, LTM's) delay
rises as more queries target fast nodes; PROP-O's falls because it alone
preserves the capacity-degree correlation — fast nodes keep their hub
connectivity.

Our reproduction (EXPERIMENTS.md): PROP-G rising and PROP-O falling
reproduce; LTM stays flat-best rather than rising — our LTM's add rule
densifies the overlay enough to mask the effect.  The degree-correlation
mechanism itself is asserted directly.
"""

import numpy as np

from benchmarks.common import fig7_config, run_once
from repro.baselines.ltm import LTMConfig
from repro.core.config import PROPConfig
from repro.harness.experiment import build_world
from repro.harness.figures import figure_configs
from repro.harness.reporting import format_table
from repro.harness.sweep import run_sweep


def test_fig7_bimodal_delay_vs_fast_fraction(benchmark, emit, workers):
    results = run_once(benchmark, lambda: run_sweep(figure_configs("fig7"), workers=workers))

    # labels are "<protocol> phi=<fraction>"; regroup into one row per
    # protocol, normalized by the unoptimized delay at phi = 0
    base = results["none phi=0.0"].initial_lookup_latency
    final: dict[str, list[float]] = {}
    for label, r in results.items():
        protocol, _ = label.rsplit(" phi=", 1)
        final.setdefault(protocol, []).append(r.final_lookup_latency)
    phis = [label.rsplit(" phi=", 1)[1] for label in results if label.startswith("none ")]
    rows = [[label] + [v / base for v in vals] for label, vals in final.items()]
    emit(
        "Fig 7  Normalized avg lookup delay vs fraction of fast-targeted lookups\n"
        f"(normalized by the unoptimized delay at phi=0 = {base:.0f} ms)\n\n"
        + format_table(["protocol"] + [f"phi={p}" for p in phis], rows)
    )

    # Shape assertions:
    # 1. PROP-G's delay trends UP (or stays flat) as lookups concentrate
    #    on fast nodes — it never improves with phi.
    g = final["PROP-G"]
    assert g[-1] >= g[0] - 0.05 * g[0]
    # 2. every PROP-O variant trends DOWN with phi...
    for m_label in ("PROP-O (m=1)", "PROP-O (m=2)", "PROP-O (m=4)"):
        o = final[m_label]
        assert o[-1] <= o[0] + 0.02 * o[0]
    # ...and the PROP-O family beats PROP-G at phi = 1 (the paper's
    # heterogeneity headline; individual m draws sit within noise of
    # each other, so compare the family's best).
    best_o = min(final[m][-1] for m in ("PROP-O (m=1)", "PROP-O (m=2)", "PROP-O (m=4)"))
    assert best_o < g[-1]
    # 3. every optimizer beats no optimization everywhere
    for label, vals in final.items():
        if label != "none":
            assert all(v < n for v, n in zip(vals, final["none"]))


def test_fig7_degree_correlation_mechanism(benchmark, emit):
    """The mechanism behind Fig 7: PROP-O preserves the fast-host degree
    advantage, PROP-G and LTM dissolve it."""

    def run_three():
        gaps = {}
        for label, kw in (
            ("none", {}),
            ("PROP-O (m=3)", dict(prop=PROPConfig(policy="O", m=3))),
            ("PROP-G", dict(prop=PROPConfig(policy="G"))),
            ("LTM", dict(ltm=LTMConfig(max_cuts_per_round=4))),
        ):
            w = build_world(fig7_config(overlay_kind="gnutella", **kw))
            w.sim.run_until(w.config.duration)
            deg = w.overlay.degree_sequence()
            fast = w.het.fast_slots(w.overlay.embedding)
            slow = w.het.slow_slots(w.overlay.embedding)
            gaps[label] = float(deg[fast].mean() - deg[slow].mean())
        return gaps

    gaps = run_once(benchmark, run_three)
    emit(
        "Fig 7 mechanism  fast-host mean degree minus slow-host mean degree\n\n"
        + format_table(["protocol", "degree gap"], [[k, v] for k, v in gaps.items()])
    )
    assert gaps["PROP-O (m=3)"] == gaps["none"]  # degrees untouched
    assert gaps["PROP-G"] < 0.4 * gaps["none"]  # correlation dissolved
    assert np.isfinite(gaps["LTM"])
