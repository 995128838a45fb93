"""Shared configuration for the figure-regeneration benchmarks.

The paper's default world (Section 5.1): GT-ITM ``ts-large``, 1000
overlay nodes, metrics sampled as the protocol runs.  ``PAPER`` and the
heterogeneous ``FIG7`` world are :mod:`repro.harness.figures`' constants,
which also defines every Fig 5–7 sweep (``figure_configs``).

Every benchmark runs its deployment exactly once (pedantic mode): the
meaningful output is the regenerated series, the wall-clock time is
reported for scale context only.
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import FIG7, PAPER

__all__ = [
    "PAPER",
    "FIG7",
    "add_workers_option",
    "run_once",
    "workers_from_config",
]


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def add_workers_option(parser) -> None:
    """Register the suite-wide ``--workers`` flag (called from conftest).

    Sweep- and replication-driven benches fan their independent worlds
    out over this many processes via ``repro.harness.sweep.run_sweep``;
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
    return ExperimentConfig(**{**PAPER, **overrides})


def fig7_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**FIG7, **overrides})
