"""Evaluation metrics: stretch, overhead, convergence, graph statistics."""

from repro.metrics.convergence import convergence_epoch, first_stable_index
from repro.metrics.overhead import (
    prop_g_step_messages,
    prop_o_step_messages,
    worst_case_probe_frequency,
)
from repro.metrics.stretch import average_latency, routing_stretch, stretch

__all__ = [
    "average_latency",
    "convergence_epoch",
    "first_stable_index",
    "prop_g_step_messages",
    "prop_o_step_messages",
    "routing_stretch",
    "stretch",
    "worst_case_probe_frequency",
]
