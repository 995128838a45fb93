"""Experiment harness: configs, time-series runner, sweeps, run records."""

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    World,
    build_world,
    run_experiment,
)
from repro.harness.persistence import RunRecord, load_record, save_record
from repro.harness.replicate import ReplicatedSeries, ReplicationSummary, replicate
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import TaskEvent, run_sweep

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ReplicatedSeries",
    "ReplicationSummary",
    "RunRecord",
    "TaskEvent",
    "World",
    "build_world",
    "format_series",
    "format_table",
    "load_record",
    "replicate",
    "run_experiment",
    "run_sweep",
    "save_record",
]
