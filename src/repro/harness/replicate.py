"""Multi-seed replication.

A single simulated world is one draw from the topology/overlay/workload
distribution; the paper reports single curves, but a credible
reproduction should know the spread.  ``replicate`` runs the same
experiment under several master seeds and aggregates each series into
mean / standard deviation / min / max envelopes, plus scalar summaries
(improvement ratios) with their spread.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.sweep import ProgressCallback, run_sweep

__all__ = ["ReplicatedSeries", "ReplicationSummary", "replicate"]


@dataclass
class ReplicatedSeries:
    """Per-sample aggregate of one metric across replicas."""

    mean: np.ndarray
    std: np.ndarray
    low: np.ndarray
    high: np.ndarray

    @classmethod
    def from_stack(cls, stack: np.ndarray) -> "ReplicatedSeries":
        return cls(
            mean=stack.mean(axis=0),
            std=stack.std(axis=0, ddof=1) if stack.shape[0] > 1 else np.zeros(stack.shape[1]),
            low=stack.min(axis=0),
            high=stack.max(axis=0),
        )


@dataclass
class ReplicationSummary:
    """Aggregated outcome of ``len(seeds)`` replicas of one config."""

    config: ExperimentConfig
    seeds: tuple[int, ...]
    times: np.ndarray
    stretch: ReplicatedSeries
    link_stretch: ReplicatedSeries
    lookup_latency: ReplicatedSeries
    improvement_ratios: np.ndarray  # final/initial lookup latency per replica
    results: tuple[ExperimentResult, ...]

    @property
    def n_replicas(self) -> int:
        return len(self.seeds)

    def mean_improvement(self) -> float:
        """Mean final/initial lookup ratio over replicas with a valid ratio.

        Replicas whose initial sample was zero or NaN carry a NaN ratio
        (flagged with a warning at :func:`replicate` time) and are
        excluded rather than silently poisoning the mean.
        """
        valid = self.improvement_ratios[np.isfinite(self.improvement_ratios)]
        return float(valid.mean()) if valid.size else float("nan")

    def std_improvement(self) -> float:
        valid = self.improvement_ratios[np.isfinite(self.improvement_ratios)]
        if valid.size < 2:
            return 0.0
        return float(valid.std(ddof=1))

    def all_replicas_improve(self, metric: str = "lookup_latency") -> bool:
        """True iff the final value beats the initial one in *every* world."""
        return all(
            float(getattr(r, metric)[-1]) < float(getattr(r, metric)[0])
            for r in self.results
        )


def replicate(
    config: ExperimentConfig,
    seeds: Sequence[int],
    *,
    measure_lookups: bool = True,
    workers: int = 1,
    progress: ProgressCallback | None = None,
) -> ReplicationSummary:
    """Run ``config`` once per seed and aggregate the series.

    Every replica gets an entirely fresh world (topology, overlay,
    heterogeneity, workload) derived from its seed; all other config
    fields are shared.  Replicas are independent, so ``workers=N`` runs
    them across N processes with per-seed series identical to the
    serial path.
    """
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    by_label = run_sweep(
        {f"seed={int(s)}": config.but(seed=int(s)) for s in seeds},
        measure_lookups=measure_lookups,
        workers=workers,
        progress=progress,
    )
    results = tuple(by_label.values())
    times = results[0].times

    def stack(name: str) -> np.ndarray:
        return np.stack([np.asarray(getattr(r, name), dtype=np.float64) for r in results])

    lookup_stack = stack("lookup_latency")
    initial = lookup_stack[:, 0]
    final = lookup_stack[:, -1]
    valid = np.isfinite(initial) & np.isfinite(final) & (initial > 0)
    ratios = np.full(len(results), np.nan)
    np.divide(final, initial, out=ratios, where=valid)
    if not np.all(valid):
        bad = [int(s) for s, ok in zip(seeds, valid) if not ok]
        warnings.warn(
            f"replicate: seeds {bad} produced a zero or non-finite initial "
            "lookup sample; their improvement ratios are NaN and excluded "
            "from mean_improvement()/std_improvement()",
            RuntimeWarning,
            stacklevel=2,
        )
    return ReplicationSummary(
        config=config,
        seeds=tuple(int(s) for s in seeds),
        times=times,
        stretch=ReplicatedSeries.from_stack(stack("stretch")),
        link_stretch=ReplicatedSeries.from_stack(stack("link_stretch")),
        lookup_latency=ReplicatedSeries.from_stack(lookup_stack),
        improvement_ratios=ratios,
        results=results,
    )
