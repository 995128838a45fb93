"""Saving and loading experiment results.

Long sweeps (the n = 5000 panels take ~30 s each) deserve to be run once
and analyzed many times.  ``save_result`` serializes an
:class:`~repro.harness.experiment.ExperimentResult` — series, counters,
and enough of the config to reproduce it — to a JSON file;
``load_result`` restores it as a :class:`StoredResult` exposing the same
series API (``times``, ``stretch``, ``improvement_ratio()``, …).

The protocol/overlay objects themselves are intentionally not pickled:
a stored result is a *measurement record*, reproducible from its
embedded config via :func:`~repro.harness.experiment.run_experiment`.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.harness.experiment import ExperimentResult

__all__ = ["save_result", "load_result", "StoredResult", "result_to_dict"]

_SERIES_FIELDS = ("times", "stretch", "link_stretch", "lookup_latency",
                  "probes", "messages", "exchanges")


def _config_to_jsonable(config: Any) -> Any:
    """Recursively convert nested (frozen) dataclass configs to dicts."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            "__dataclass__": type(config).__name__,
            **{
                f.name: _config_to_jsonable(getattr(config, f.name))
                for f in dataclasses.fields(config)
            },
        }
    if isinstance(config, dict):
        return {k: _config_to_jsonable(v) for k, v in config.items()}
    if isinstance(config, (list, tuple)):
        return [_config_to_jsonable(v) for v in config]
    if isinstance(config, (np.integer,)):
        return int(config)
    if isinstance(config, (np.floating,)):
        return float(config)
    return config


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-ready dict of a result (series + counters + config echo)."""
    out: dict[str, Any] = {
        "schema": "repro.experiment-result/1",
        "config": _config_to_jsonable(result.config),
        "series": {
            name: np.asarray(getattr(result, name)).tolist()
            for name in _SERIES_FIELDS
        },
    }
    counters = result.final_counters
    if counters is not None:
        out["final_counters"] = {
            f.name: int(getattr(counters, f.name))
            for f in dataclasses.fields(counters)
            if isinstance(getattr(counters, f.name), (int, np.integer))
        }
    return out


def save_result(result: ExperimentResult, path: str | pathlib.Path) -> pathlib.Path:
    """Write the result to ``path`` as JSON.  Returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=1))
    return path


@dataclass
class StoredResult:
    """A deserialized measurement record with the series API."""

    config: dict
    times: np.ndarray
    stretch: np.ndarray
    link_stretch: np.ndarray
    lookup_latency: np.ndarray
    probes: np.ndarray
    messages: np.ndarray
    exchanges: np.ndarray
    final_counters: dict | None

    @property
    def initial_lookup_latency(self) -> float:
        return float(self.lookup_latency[0])

    @property
    def final_lookup_latency(self) -> float:
        return float(self.lookup_latency[-1])

    @property
    def initial_stretch(self) -> float:
        return float(self.stretch[0])

    @property
    def final_stretch(self) -> float:
        return float(self.stretch[-1])

    def improvement_ratio(self, metric: str = "lookup_latency") -> float:
        series = getattr(self, metric)
        return float(series[-1] / series[0])


def load_result(path: str | pathlib.Path) -> StoredResult:
    """Read a result previously written by :func:`save_result`.

    Raises ``ValueError`` naming ``path`` when the file is not JSON, not
    a JSON object, not this schema, or its series keys are not exactly
    the stored series fields.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON ({exc})") from None
    if (not isinstance(data, dict) or data.get("schema") != "repro.experiment-result/1"
            or not isinstance(data.get("config"), dict)
            or not isinstance(data.get("series"), dict)):
        raise ValueError(f"{path} is not a stored experiment result")
    series = data["series"]
    missing = set(_SERIES_FIELDS) - set(series)
    unknown = set(series) - set(_SERIES_FIELDS)
    if missing or unknown:
        raise ValueError(
            f"{path}: series keys missing {sorted(missing)}, unknown {sorted(unknown)}")
    return StoredResult(
        config=data["config"],
        final_counters=data.get("final_counters"),
        **{name: np.asarray(vals) for name, vals in series.items()},
    )
