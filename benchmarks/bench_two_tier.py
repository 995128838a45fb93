"""Two-tier (ultrapeer) Gnutella under PROP (extension).

The deployed Gnutella 0.6 architecture: capable nodes form the flooding
mesh, leaves never forward.  Checks that the paper's story carries over
to the real topology: both policies cut lookup latency, PROP-O preserves
the role/degree structure exactly, and PROP-G — which may move a slow
host into an ultrapeer position — underperforms PROP-O once processing
delays matter.
"""

import numpy as np

from benchmarks.common import run_once
from repro.core.config import PROPConfig
from repro.core.protocol import PROPEngine
from repro.harness.experiment import RETRY_TIMEOUT_MS
from repro.harness.reporting import format_table
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.overlay.ultrapeer import UltrapeerGnutellaOverlay
from repro.topology.latency import LatencyOracle
from repro.topology.presets import build_preset
from repro.workloads.heterogeneity import bimodal_processing_delay
from repro.workloads.lookups import uniform_pairs

N = 600
DURATION = 2400.0


def _world(seed=13):
    rngs = RngRegistry(seed)
    net = build_preset("ts-large", rngs.stream("topology"))
    hosts = rngs.stream("members").choice(net.stub_hosts, size=N, replace=False)
    oracle = LatencyOracle(net, hosts)
    het = bimodal_processing_delay(N, rngs.stream("het"), slow_ms=100.0)
    # capable (fast) hosts get elected ultrapeer
    capacity = np.where(het.is_fast, 10.0, 1.0)
    overlay = UltrapeerGnutellaOverlay.build_two_tier(
        oracle, rngs.stream("overlay"),
        ultrapeer_fraction=0.25, leaf_degree=2, capacity_weight=capacity,
    )
    return rngs, overlay, het


def _measure(overlay, het, seed=99):
    pairs = uniform_pairs(overlay.n_slots, 500, np.random.default_rng(seed))
    nd = het.slot_delays(overlay.embedding)
    return overlay.mean_lookup_latency(pairs, node_delay=nd, ttl=7, retry_timeout=RETRY_TIMEOUT_MS)


def test_two_tier_gnutella_under_prop(benchmark, emit):
    def run():
        out = {}
        for label, policy in (("none", None), ("PROP-G", "G"), ("PROP-O m=2", "O")):
            rngs, overlay, het = _world()
            if policy is not None:
                sim = Simulator()
                cfg = PROPConfig(policy=policy, m=2 if policy == "O" else None)
                eng = PROPEngine(overlay, cfg, sim, rngs)
                eng.start()
                sim.run_until(DURATION)
                exchanges = eng.counters.exchanges
            else:
                exchanges = 0
            fast_up = float(np.mean(het.is_fast[overlay.embedding[overlay.ultrapeer_slots]]))
            out[label] = (_measure(overlay, het), exchanges, fast_up)
        return out

    data = run_once(benchmark, run)
    rows = [[label, lat, ex, frac] for label, (lat, ex, frac) in data.items()]
    emit(
        "Two-tier Gnutella (0.6)  lookup latency under PROP "
        f"(n = {N}, 25% ultrapeers elected by capacity)\n\n"
        + format_table(
            ["protocol", "mean lookup (ms)", "exchanges", "fast fraction among ultrapeers"],
            rows,
        )
    )

    none, g, o = data["none"], data["PROP-G"], data["PROP-O m=2"]
    # both policies improve on the unoptimized two-tier overlay
    assert g[0] < none[0]
    assert o[0] < none[0]
    # PROP-O keeps the capacity-elected mesh: all ultrapeers stay fast
    assert o[2] == none[2] == 1.0
    # PROP-G dilutes it (slow hosts drift into mesh positions)
    assert g[2] < 1.0
