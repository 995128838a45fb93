"""Directory-level reports over saved experiment results.

A study directory full of ``run --save`` / :func:`save_result` JSON
records becomes one table: per-record deployment description, initial
and final metric values, and improvement ratio — the shape EXPERIMENTS.md
tables use, generated from the artifacts themselves.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.harness.persistence import StoredResult, load_result
from repro.harness.reporting import format_table

__all__ = ["describe_config", "summarize_directory"]


def describe_config(config: dict) -> str:
    """One-phrase description of a stored config dict."""
    parts = [str(config.get("overlay_kind", "?")), f"n={config.get('n_overlay', '?')}"]
    prop = config.get("prop")
    ltm = config.get("ltm")
    if prop:
        label = f"PROP-{prop.get('policy', '?')}"
        if prop.get("policy") == "O" and prop.get("m") is not None:
            label += f" m={prop['m']}"
        parts.append(label)
    elif ltm:
        parts.append("LTM")
    else:
        parts.append("none")
    if config.get("heterogeneous"):
        parts.append("het")
    if config.get("churn"):
        parts.append("churn")
    parts.append(str(config.get("preset", "?")))
    return " ".join(parts)


def _row(name: str, stored: StoredResult, metric: str) -> list:
    series = np.asarray(getattr(stored, metric), dtype=np.float64)
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        return [name, describe_config(stored.config), float("nan"), float("nan"), float("nan")]
    return [
        name,
        describe_config(stored.config),
        float(finite[0]),
        float(finite[-1]),
        float(finite[-1] / finite[0]) if finite[0] else float("nan"),
    ]


def summarize_directory(
    path: str | pathlib.Path,
    *,
    metric: str = "lookup_latency",
    pattern: str = "*.json",
) -> str:
    """Tabulate every stored result under ``path`` (sorted by filename).

    Unreadable or non-result JSON files are listed as skipped rather
    than aborting the report.
    """
    path = pathlib.Path(path)
    if not path.is_dir():
        raise ValueError(f"{path} is not a directory")
    rows = []
    skipped = []
    for p in sorted(path.glob(pattern)):
        try:
            stored = load_result(p)
        except (ValueError, OSError):
            skipped.append(p.name)
            continue
        rows.append(_row(p.name, stored, metric))
    if not rows:
        raise ValueError(f"no stored results matching {pattern!r} under {path}")
    out = format_table(
        ["file", "deployment", f"initial {metric}", f"final {metric}", "final/initial"],
        rows,
    )
    if skipped:
        out += "\n\nskipped (not result records): " + ", ".join(skipped)
    return out
