"""Checks of the ledger itself.  Not part of tier-1 (``testpaths`` is
``tests``); run with ``PYTHONPATH=src python -m pytest benchmarks/ledger``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import defs  # noqa: E402
import reps  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro.core.config import PROPConfig  # noqa: E402
from repro.harness.experiment import ExperimentConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_counts_fit_the_contract():
    groups = (defs.WORKLOADS, defs.END_TO_END, defs.PER_LAYER)
    for group, (low, high) in zip(groups, ((2, 8), (1, 16), (1, 128))):
        names = [item.name for item in group]
        assert low <= len(names) <= high
        assert len(set(names)) == len(names)
        assert all(NAME.fullmatch(n) for n in names)
    for w in defs.WORKLOADS:
        assert "\n" not in w.why and len(w.why) <= 200
    for m in defs.END_TO_END + defs.PER_LAYER:
        assert UNIT.fullmatch(m.unit) and m.better in ("lower", "higher")
    bounds = {m.name: m.bound for m in defs.END_TO_END}
    assert all(b is not None and 0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_manifest_is_generated_from_defs():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == defs.manifest()
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


@pytest.mark.parametrize("trace,declared", [(0, defs.END_TO_END), (1, defs.PER_LAYER)])
def test_smoke_run_emits_exactly_the_declared_metrics(trace, declared):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig6_chord",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in declared}


def _tiny(seed: int, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed, preset="ts-small", n_overlay=60, prop=PROPConfig(nhops=2),
        duration=600.0, sample_interval=300.0, lookups_per_sample=20, **kw)


OFF = SpanRecorder("test", enabled=False)


def test_sim_digest_repeats_per_seed_and_differs_across_seeds():
    a, b, other = (reps.run_rep(_tiny(s, transport="sim"), OFF) for s in (0, 0, 1))
    assert not a["problems"] and not other["problems"]
    assert a["sim_digest"] == b["sim_digest"] != other["sim_digest"]


def test_gate_and_ok_share_trip_on_a_failing_rep():
    good = reps.run_rep(_tiny(0), OFF)
    assert good["problems"] == []
    assert reps.end_to_end([good, good], 1.0)["ok_share"]["value"] == 1.0

    # a repetition that raises fails whole
    crashed = reps.run_rep(_tiny(0).but(preset="no-such-preset"), OFF)
    assert reps.failed(crashed) and "exception" in crashed["problems"][0]
    table = reps.end_to_end([good, good, crashed], 1.0)
    assert table["ok_share"]["value"] == pytest.approx(2 / 3)
    assert table["setup_s"]["n"] == 2  # timings come from completed reps only

    # the gate itself: a stretch that did not improve, a broken degree
    # sequence, a disconnected overlay
    from repro.harness.experiment import build_world

    world = build_world(_tiny(0))
    degrees = world.overlay.degree_sequence().copy()
    row = dict(good, link_stretch_final=good["link_stretch_initial"])
    assert reps.gate(row, world.overlay, degrees, "G") == ["link stretch did not improve"]
    for neighbor in world.overlay.neighbor_list(0):
        world.overlay.remove_edge(0, neighbor)
    problems = reps.gate(good, world.overlay, degrees, "G")
    assert any("disconnected" in p for p in problems)
    assert any("degree" in p for p in problems)


def test_compare_flags_a_regression(tmp_path, capsys):
    import run

    def summary(setup: float) -> dict:
        cell = lambda v: {"value": v, "q1": v, "q3": v, "min": v, "max": v, "n": 3}  # noqa: E731
        return {"env": {"calibration_s": 0.1}, "workloads": {"fig6_chord": {
            "status": "ok", "sim_digest": "x",
            "end_to_end": {m.name: cell(setup if m.name == "setup_s" else 1.0)
                           for m in defs.END_TO_END}}}}

    paths = []
    for i, setup in enumerate((1.0, 1.05, 1.5)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(summary(setup)))
    assert run.compare(str(paths[0]), str(paths[1])) == 0  # within the 10% bound
    assert run.compare(str(paths[0]), str(paths[2])) == 1
    assert "regressed" in capsys.readouterr().out
