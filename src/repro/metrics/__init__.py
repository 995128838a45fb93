"""Evaluation metrics: stretch, overhead, convergence."""

from repro.metrics.convergence import convergence_epoch, first_stable_index
from repro.metrics.overhead import (
    prop_g_step_messages,
    prop_o_step_messages,
    worst_case_probe_frequency,
)
from repro.metrics.stretch import stretch

__all__ = [
    "convergence_epoch",
    "first_stable_index",
    "prop_g_step_messages",
    "prop_o_step_messages",
    "stretch",
    "worst_case_probe_frequency",
]
