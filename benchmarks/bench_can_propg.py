"""Protocol independence (Theorem 2's payoff): PROP-G on CAN, Pastry and Kademlia.

"Therefore, as an auxiliary method, it is suitable for different
topologies: ring, hypercube, tree, and so on."  The Chord/Gnutella
figures cover ring and random graphs; this bench deploys the *same*
engine, untouched, on the CAN torus, the Pastry prefix graph and the
Kademlia XOR-bucket graph.
"""

from benchmarks.common import paper_config, run_once
from repro.core.config import PROPConfig
from repro.harness.reporting import format_table
from repro.harness.sweep import run_sweep


def test_prop_g_on_can_and_pastry(benchmark, emit, workers):
    base = dict(duration=2400.0, lookups_per_sample=300)
    configs = {
        "CAN d=2": paper_config(overlay_kind="can", n_overlay=512, **base),
        "CAN d=2 +PROP-G": paper_config(
            overlay_kind="can", n_overlay=512, prop=PROPConfig(policy="G"), **base
        ),
        "Pastry": paper_config(overlay_kind="pastry", n_overlay=512, **base),
        "Pastry +PROP-G": paper_config(
            overlay_kind="pastry", n_overlay=512, prop=PROPConfig(policy="G"), **base
        ),
        "Kademlia": paper_config(overlay_kind="kademlia", n_overlay=512, **base),
        "Kademlia +PROP-G": paper_config(
            overlay_kind="kademlia", n_overlay=512, prop=PROPConfig(policy="G"), **base
        ),
    }
    results = run_once(benchmark, lambda: run_sweep(configs, workers=workers))

    rows = [
        [label, r.initial_stretch, r.final_stretch, r.link_stretch[0], r.link_stretch[-1]]
        for label, r in results.items()
    ]
    emit(
        "Protocol independence  PROP-G on CAN, Pastry and Kademlia (n = 512)\n\n"
        + format_table(
            ["deployment", "initial stretch", "final stretch",
             "link stretch t0", "link stretch t1"],
            rows,
        )
    )

    assert results["CAN d=2 +PROP-G"].final_stretch < results["CAN d=2"].final_stretch
    assert results["Pastry +PROP-G"].final_stretch < results["Pastry"].final_stretch
    assert results["Kademlia +PROP-G"].final_stretch < results["Kademlia"].final_stretch
    # and the optimized overlays' logical structure is untouched: the
    # engine only swapped embeddings (checked structurally in the tests;
    # here the deployments simply complete with exchanges > 0)
    assert results["CAN d=2 +PROP-G"].final_counters.exchanges > 0
    assert results["Pastry +PROP-G"].final_counters.exchanges > 0
    assert results["Kademlia +PROP-G"].final_counters.exchanges > 0
