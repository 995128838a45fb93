"""Resilience under node failures (extension).

The paper leans on related work (Chun, Zhao & Kubiatowicz, IPTPS'05 —
its reference for the heterogeneity setting) for the concern that
location-aware neighbor selection can hurt *resilience*.  PROP-G cannot:
it only permutes the embedding, so the set of slot paths available under
any failure pattern is untouched, while the *latency* of the surviving
paths still improves.  This bench kills increasing fractions of a Chord
ring and reports lookup success and surviving-lookup latency with and
without a converged PROP-G deployment.
"""

import numpy as np

from benchmarks.common import paper_config, run_once
from repro.core.config import PROPConfig
from repro.harness.experiment import build_world
from repro.harness.reporting import format_table
from repro.obs.registry import bucket_counts, percentile_from_buckets

FAIL_FRACTIONS = [0.0, 0.1, 0.2, 0.3]

#: Fixed lookup-latency buckets (ms): Chord-500 paths top out well under
#: 16 s, and identical edges keep the measured distributions comparable
#: column for column across failure fractions.
LATENCY_BUCKETS = tuple(float(e) for e in range(250, 16001, 250))


def _measure(world, frac, n_lookups=400):
    ov = world.overlay
    rng = np.random.default_rng(1234)
    alive = np.ones(ov.n_slots, dtype=bool)
    if frac > 0:
        dead = rng.choice(ov.n_slots, size=int(frac * ov.n_slots), replace=False)
        alive[dead] = False
    alive_slots = np.flatnonzero(alive)
    latencies = []
    failures = 0
    for _ in range(n_lookups):
        src = int(rng.choice(alive_slots))
        key = int(rng.integers(0, ov.space))
        try:
            path = ov.route_with_failures(src, key, alive)
            latencies.append(float(ov.path_latency(path)))
        except RuntimeError:
            failures += 1
    success = 1.0 - failures / n_lookups
    return success, latencies


def _mean(latencies):
    return sum(latencies) / len(latencies) if latencies else 0.0


def _p99(latencies):
    """p99 interpolated within :data:`LATENCY_BUCKETS` (fixed edges, so
    the column compares across failure fractions)."""
    return percentile_from_buckets(
        LATENCY_BUCKETS, bucket_counts(LATENCY_BUCKETS, latencies), 99.0)


def test_resilience_under_failures(benchmark, emit):
    def run():
        plain = build_world(paper_config(overlay_kind="chord", n_overlay=500))
        optimized = build_world(
            paper_config(overlay_kind="chord", n_overlay=500, prop=PROPConfig(policy="G"))
        )
        optimized.sim.run_until(3600.0)
        out = {}
        for frac in FAIL_FRACTIONS:
            out[frac] = (_measure(plain, frac), _measure(optimized, frac))
        return out

    data = run_once(benchmark, run)

    rows = []
    for frac, ((s0, d0), (s1, d1)) in data.items():
        rows.append([f"{frac:.0%}", s0, _mean(d0), _p99(d0),
                     s1, _mean(d1), _p99(d1)])
    emit(
        "Resilience  Chord lookups under random node failures "
        "(left: plain, right: after 1 h of PROP-G)\n\n"
        + format_table(
            ["failed", "success", "mean(ms)", "p99(ms)",
             "success+PROP-G", "mean(ms)+PROP-G", "p99(ms)+PROP-G"],
            rows,
        )
    )

    for frac, ((s0, d0), (s1, d1)) in data.items():
        # PROP-G never reduces success probability (identical slot paths)
        assert s1 == s0
        # and the surviving lookups are faster after optimization
        if d0 and d1:
            assert _mean(d1) < _mean(d0)
    # lookups overwhelmingly survive moderate churn-scale failures
    assert data[0.2][0][0] > 0.95
