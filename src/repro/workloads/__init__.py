"""Workload generators: lookup streams, churn, node heterogeneity."""

from repro.workloads.churn import ChurnConfig, ChurnProcess
from repro.workloads.heterogeneity import (
    BimodalDelay,
    bimodal_processing_delay,
    capacity_weights_from_delay,
)
from repro.workloads.lookups import (
    biased_target_pairs,
    uniform_keys,
    uniform_pairs,
)

__all__ = [
    "BimodalDelay",
    "ChurnConfig",
    "ChurnProcess",
    "biased_target_pairs",
    "bimodal_processing_delay",
    "capacity_weights_from_delay",
    "uniform_keys",
    "uniform_pairs",
]
