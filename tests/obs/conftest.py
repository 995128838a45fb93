"""Shared fixture: one traced, lossy message-plane run.

Session-scoped because the acceptance analysis, the registry tests and
the CLI-free trace tests all read the same run; the result is never
mutated.
"""

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment

LOSSY_TRACED = ExperimentConfig(
    seed=0,
    preset="ts-small",
    n_overlay=60,
    prop=PROPConfig(policy="G"),
    transport="sim",
    loss=0.3,
    trace=True,
    duration=600.0,
    sample_interval=300.0,
    lookups_per_sample=20,
)


@pytest.fixture(scope="session")
def lossy_traced_result():
    """A PROP-G run over a 30%-loss FaultyTransport with tracing on."""
    return run_experiment(LOSSY_TRACED)
