"""Sweep runner: ordering, labels, progress events, worker determinism."""

import numpy as np
import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.sweep import run_sweep

FAST = dict(
    preset="ts-small",
    n_overlay=60,
    duration=150.0,
    sample_interval=150.0,
    lookups_per_sample=30,
)


def test_sweep_preserves_order_and_labels():
    configs = {
        "n=60": ExperimentConfig(**FAST),
        "n=80": ExperimentConfig(**{**FAST, "n_overlay": 80}),
    }
    results = run_sweep(configs)
    assert list(results) == ["n=60", "n=80"]
    assert results["n=80"].config.n_overlay == 80


def test_progress_events():
    events = []
    run_sweep({"only": ExperimentConfig(**FAST)}, progress=events.append)
    assert [(e.label, e.status) for e in events] == [("only", "start"), ("only", "done")]
    assert events[-1].elapsed >= 0.0


def test_measure_lookups_forwarded():
    results = run_sweep({"x": ExperimentConfig(**FAST)}, measure_lookups=False)
    assert np.all(np.isnan(results["x"].lookup_latency))


def test_worker_error_matches_serial_error():
    """A config that raises inside a worker surfaces exactly as it does
    in-process: same exception type, same message."""
    too_many = {
        "ok": ExperimentConfig(**FAST),
        "bad": ExperimentConfig(**{**FAST, "n_overlay": 7000}),  # > ts-small's stubs
    }
    errors = []
    for workers in (1, 2):
        with pytest.raises(ValueError) as excinfo:
            run_sweep(too_many, workers=workers)
        errors.append((type(excinfo.value), str(excinfo.value)))
    assert errors[0] == errors[1]
    assert "stub hosts" in errors[0][1]


def test_workers_do_not_change_results():
    """Determinism guarantee: the same seeds produce byte-identical
    series regardless of worker count or completion order."""
    configs = {
        "a": ExperimentConfig(**FAST, seed=1),
        "b": ExperimentConfig(**FAST, seed=2),
        "c": ExperimentConfig(**{**FAST, "n_overlay": 70}, seed=3),
        "d": ExperimentConfig(**FAST, seed=4),
    }
    serial = run_sweep(configs, workers=1)
    pooled = run_sweep(configs, workers=4)
    assert list(serial) == list(pooled) == list(configs)
    for label in configs:
        for field in ("times", "stretch", "link_stretch", "lookup_latency",
                      "probes", "messages", "exchanges"):
            a = getattr(serial[label], field)
            b = getattr(pooled[label], field)
            assert np.array_equal(a, b, equal_nan=True), (label, field)
