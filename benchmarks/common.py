"""Shared configuration for the figure-regeneration benchmarks.

The paper's default world (Section 5.1): GT-ITM ``ts-large``, 1000
overlay nodes, metrics sampled as the protocol runs.  ``PAPER`` mirrors
those defaults; the heterogeneity constants live in ``FIG7``.

Every benchmark runs its deployment exactly once (pedantic mode): the
meaningful output is the regenerated series, the wall-clock time is
reported for scale context only.
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentConfig

__all__ = [
    "PAPER",
    "FIG7",
    "add_workers_option",
    "run_once",
    "workers_from_config",
]

# Section 5.1 defaults: ts-large, n = 1000, probe timer 60 s.  One
# simulated hour with 6-minute samples covers warm-up (10 probes) and
# the converged tail.
PAPER = dict(
    preset="ts-large",
    n_overlay=1000,
    duration=3600.0,
    sample_interval=360.0,
    lookups_per_sample=1000,
)

# Section 5.3 heterogeneous environment: bimodal processing delay
# (fast 1 ms / slow 100 ms, 50 % fast — the Dabek-style setting), fast
# hosts attract more connections, floods are TTL-7 scoped with requery.
FIG7 = dict(
    preset="ts-large",
    n_overlay=1000,
    duration=1800.0,
    sample_interval=900.0,
    lookups_per_sample=600,
    heterogeneous=True,
    fast_fraction=0.5,
    fast_ms=1.0,
    slow_ms=100.0,
    fast_degree_weight=8.0,
    flood_ttl=7,
    overlay_options={"min_degree": 3, "mean_extra_degree": 3.0},
)


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def add_workers_option(parser) -> None:
    """Register the suite-wide ``--workers`` flag (called from conftest).

    Sweep- and replication-driven benches fan their independent worlds
    out over this many processes via ``repro.harness.parallel``;
    results are identical for every value (determinism guarantee), only
    wall-clock changes.
    """
    parser.addoption(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep/replication benches "
             "(default: 1 = serial; 0 = one per core)",
    )


def workers_from_config(config) -> int:
    """The ``--workers`` value, defaulting to serial when unregistered."""
    try:
        return int(config.getoption("--workers"))
    except (ValueError, KeyError):
        return 1


def paper_config(**overrides) -> ExperimentConfig:
    merged = {**PAPER, **overrides}
    return ExperimentConfig(**merged)


def fig7_config(**overrides) -> ExperimentConfig:
    merged = {**FIG7, **overrides}
    return ExperimentConfig(**merged)
