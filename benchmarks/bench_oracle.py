"""Latency-oracle backends: cost and convergence parity.

The exact oracle keeps shortest paths factored by stub domain — precise,
one row of n floats per domain resident (O(domains*n): 2.5 MB at
n = 1000 on ts-large).  The coordinate backends trade accuracy for memory:
Vivaldi fits d-dimensional spring coordinates over O(n*k) sampled pairs
(O(n*dim) state), the landmark backend keeps exact distances to m
transit-domain landmarks (O(n*m) state).  Two questions decide whether
they are usable stand-ins:

* **cost** — setup wall time and resident state bytes per backend at
  the paper's scale (ts-large, n = 1000); the ledger tracks the same
  builds as ``topology.oracle_*_build_s.n1000`` /
  ``topology.oracle_state_mb``;
* **fidelity** — does PROP-G *driven by* an approximate oracle still
  converge?  Both runs are scored by a fresh exact oracle (the estimate
  being optimized must not grade its own homework); acceptance is the
  Vivaldi-driven final improvement landing within 15% of the
  exact-driven one.
"""

from __future__ import annotations

import time

from benchmarks.common import PAPER, paper_config, run_once
from repro.core.config import PROPConfig
from repro.harness.experiment import build_world
from repro.harness.reporting import format_table
from repro.netsim.rng import RngRegistry
from repro.topology.factory import ORACLE_BACKENDS, build_oracle
from repro.topology.latency import LatencyOracle
from repro.topology.presets import build_preset
from repro.topology.vivaldi import VivaldiOracle

N = PAPER["n_overlay"]  # 1000: the paper-scale member count
SEED = 0

#: Relative tolerance on the final improvement ratio (acceptance bound).
PARITY_TOLERANCE = 0.15


def _substrate(seed: int = SEED):
    rngs = RngRegistry(seed)
    net = build_preset("ts-large", rngs.stream("topology"))
    hosts = rngs.stream("membership").choice(net.stub_hosts, size=N, replace=False)
    return net, hosts


def test_oracle_setup_cost(benchmark, emit):
    """Setup time + resident state for every backend at ts-large n=1000."""

    def run():
        net, hosts = _substrate()
        out = {}
        for backend in ORACLE_BACKENDS:
            started = time.perf_counter()
            oracle = build_oracle(backend, net, hosts, seed=SEED)
            seconds = time.perf_counter() - started
            entry = {
                "setup_seconds": round(seconds, 4),
                "state_bytes": oracle.state_nbytes(),
            }
            if isinstance(oracle, VivaldiOracle):
                err = oracle.error_summary()
                entry["median_rel_error"] = round(err["median_rel_error"], 4)
            out[backend] = entry
        return out

    data = run_once(benchmark, run)

    rows = [
        [b, e["setup_seconds"], e["state_bytes"], e.get("median_rel_error", "-")]
        for b, e in data.items()
    ]
    emit(
        f"Latency-oracle backends  setup cost (ts-large, n = {N})\n\n"
        + format_table(
            ["backend", "setup seconds", "state bytes", "median rel error"], rows
        )
    )

    # the scaling story: both estimates stay below the factored exact
    # state (domains*n floats vs n*dim / n*m floats) -- Vivaldi by ~60x,
    # landmark by ~8x at n = 1000 (the dense n^2 matrix made that 25x)
    exact_bytes = data["exact"]["state_bytes"]
    assert data["vivaldi"]["state_bytes"] < exact_bytes / 50
    assert data["landmark"]["state_bytes"] < exact_bytes / 5
    assert data["vivaldi"]["median_rel_error"] < 0.30


def _scored_run(backend: str):
    """One PROP-G deployment driven by ``backend``, scored exactly.

    Returns (initial, final, improvement, state_bytes) where initial and
    final are the mean logical-edge latencies measured by a *fresh exact
    oracle* — the approximation drives the protocol's decisions but
    never the grading.
    """
    config = paper_config(
        overlay_kind="gnutella",
        prop=PROPConfig(policy="G", nhops=2),
        oracle=backend,
        seed=SEED,
    )
    world = build_world(config)
    grader = (
        world.oracle
        if backend == "exact"
        else LatencyOracle(world.oracle.network, world.oracle.hosts)
    )

    def measure() -> float:
        driving = world.overlay.oracle
        world.overlay.oracle = grader
        try:
            return world.overlay.mean_logical_edge_latency()
        finally:
            world.overlay.oracle = driving

    initial = measure()
    world.sim.run_until(config.duration)
    final = measure()
    return initial, final, initial / final, world.oracle.state_nbytes()


def test_propg_convergence_parity(benchmark, emit):
    """PROP-G under each backend converges; Vivaldi within 15% of exact."""

    def run():
        return {backend: _scored_run(backend) for backend in ORACLE_BACKENDS}

    data = run_once(benchmark, run)

    rows = [
        [b, round(i, 1), round(f, 1), round(imp, 3), s]
        for b, (i, f, imp, s) in data.items()
    ]
    emit(
        "PROP-G / Gnutella convergence by oracle backend "
        f"(ts-large, n = {N}, scored by the exact oracle)\n\n"
        + format_table(
            ["backend", "initial edge ms", "final edge ms",
             "improvement (init/final)", "oracle state bytes"],
            rows,
        )
    )

    exact_imp = data["exact"][2]
    for backend, (initial, final, improvement, _) in data.items():
        # every backend must actually improve the topology
        assert final < initial, f"{backend}: no improvement"
    # acceptance: Vivaldi-driven final improvement within 15% of exact
    viv_imp = data["vivaldi"][2]
    assert abs(viv_imp - exact_imp) / exact_imp <= PARITY_TOLERANCE, (
        f"vivaldi improvement {viv_imp:.3f} vs exact {exact_imp:.3f}"
    )
    # O(n*dim) resident state while driving the protocol
    assert data["vivaldi"][3] < data["exact"][3] / 50
