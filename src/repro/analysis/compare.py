"""Summaries and A/B comparisons of experiment results.

Works uniformly on live :class:`~repro.harness.experiment.ExperimentResult`
objects and reloaded :class:`~repro.harness.persistence.StoredResult`
records (anything exposing the series attributes).  The comparison is
deliberately plain: final values, deltas, ratios, and a one-line verdict
per metric — the numbers a reviewer asks for first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.reporting import format_table

__all__ = ["ComparisonReport", "compare_results", "summarize_result"]

_METRICS = ("lookup_latency", "stretch", "link_stretch")


def _final(result, metric: str) -> float:
    series = np.asarray(getattr(result, metric), dtype=np.float64)
    finite = series[np.isfinite(series)]
    return float(finite[-1]) if finite.size else float("nan")


def _initial(result, metric: str) -> float:
    series = np.asarray(getattr(result, metric), dtype=np.float64)
    finite = series[np.isfinite(series)]
    return float(finite[0]) if finite.size else float("nan")


@dataclass(frozen=True)
class MetricComparison:
    """A vs B on one metric (final sample)."""

    metric: str
    a_final: float
    b_final: float

    @property
    def delta(self) -> float:
        return self.b_final - self.a_final

    @property
    def ratio(self) -> float:
        return self.b_final / self.a_final if self.a_final else float("nan")

    @property
    def verdict(self) -> str:
        if not np.isfinite(self.ratio):
            return "incomparable"
        if self.ratio < 0.98:
            return "B better"
        if self.ratio > 1.02:
            return "A better"
        return "tie"


@dataclass(frozen=True)
class ComparisonReport:
    """Full A/B comparison across the standard metrics."""

    label_a: str
    label_b: str
    metrics: tuple[MetricComparison, ...]

    def to_text(self) -> str:
        rows = [
            [m.metric, m.a_final, m.b_final, m.delta, m.ratio, m.verdict]
            for m in self.metrics
        ]
        return (
            f"A = {self.label_a}\nB = {self.label_b}\n\n"
            + format_table(
                ["metric", "A final", "B final", "B-A", "B/A", "verdict"], rows
            )
        )


def compare_results(a, b, *, label_a: str = "A", label_b: str = "B") -> ComparisonReport:
    """Compare two results metric by metric (final samples)."""
    comparisons = tuple(
        MetricComparison(metric=m, a_final=_final(a, m), b_final=_final(b, m))
        for m in _METRICS
    )
    return ComparisonReport(label_a=label_a, label_b=label_b, metrics=comparisons)


def summarize_result(result, *, label: str = "experiment") -> str:
    """One-screen text summary of a result."""
    rows = []
    for m in _METRICS:
        init, fin = _initial(result, m), _final(result, m)
        ratio = fin / init if init and np.isfinite(init) else float("nan")
        rows.append([m, init, fin, ratio])
    times = np.asarray(result.times)
    header = (
        f"== {label} ==\n"
        f"samples: {times.size} over {times[-1]:.0f} s "
        f"(every {times[1] - times[0]:.0f} s)\n"
    )
    return header + format_table(["metric", "initial", "final", "final/initial"], rows)
