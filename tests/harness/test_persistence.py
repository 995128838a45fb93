"""Result persistence: JSON round-trip fidelity."""

import json

import numpy as np
import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.persistence import load_result, save_result

FAST = dict(
    preset="ts-small",
    n_overlay=60,
    duration=300.0,
    sample_interval=150.0,
    lookups_per_sample=40,
)


@pytest.fixture(scope="module")
def result():
    return run_experiment(ExperimentConfig(prop=PROPConfig(policy="G"), **FAST))


def test_round_trip_series(result, tmp_path):
    path = save_result(result, tmp_path / "r.json")
    stored = load_result(path)
    assert np.allclose(stored.times, result.times)
    assert np.allclose(stored.stretch, result.stretch)
    assert np.allclose(stored.lookup_latency, result.lookup_latency)
    assert np.array_equal(stored.probes, result.probes)


def test_round_trip_summary_api(result, tmp_path):
    stored = load_result(save_result(result, tmp_path / "r.json"))
    assert stored.final_stretch == pytest.approx(result.final_stretch)
    assert stored.improvement_ratio() == pytest.approx(result.improvement_ratio())


def test_counters_preserved(result, tmp_path):
    stored = load_result(save_result(result, tmp_path / "r.json"))
    assert stored.final_counters["probes"] == result.final_counters.probes
    assert stored.final_counters["exchanges"] == result.final_counters.exchanges
    assert "var_history" not in stored.final_counters


def test_config_echoed(result, tmp_path):
    stored = load_result(save_result(result, tmp_path / "r.json"))
    assert stored.config["n_overlay"] == 60
    assert stored.config["prop"]["policy"] == "G"
    assert stored.config["prop"]["__dataclass__"] == "PROPConfig"


def test_file_is_plain_json(result, tmp_path):
    path = save_result(result, tmp_path / "r.json")
    data = json.loads(path.read_text())
    assert data["schema"] == "repro.experiment-result/1"


def test_wrong_schema_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "other"}))
    with pytest.raises(ValueError):
        load_result(p)


def test_unoptimized_result_round_trips(tmp_path):
    r = run_experiment(ExperimentConfig(**FAST))
    stored = load_result(save_result(r, tmp_path / "r.json"))
    assert stored.final_counters is None
    assert np.allclose(stored.link_stretch, r.link_stretch)


def _malformed(result, tmp_path):
    """Files that are JSON but not loadable results, by what is wrong."""
    good = json.loads(save_result(result, tmp_path / "good.json").read_text())
    missing = json.loads(json.dumps(good))
    del missing["series"]["exchanges"]
    unknown = json.loads(json.dumps(good))
    unknown["series"]["qps"] = [1.0]
    cases = {
        "array.json": [good],
        "schema.json": {**good, "schema": "repro.experiment-result/0"},
        "missing.json": missing,
        "unknown.json": unknown,
    }
    for name, data in cases.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "garbage.json").write_text("{not json")
    return [*cases, "garbage.json"]


def test_malformed_files_raise_value_error_naming_the_path(result, tmp_path):
    for name in _malformed(result, tmp_path):
        path = tmp_path / name
        with pytest.raises(ValueError, match=name):
            load_result(path)


def test_series_key_errors_say_which_keys(result, tmp_path):
    _malformed(result, tmp_path)
    with pytest.raises(ValueError, match=r"missing \['exchanges'\]"):
        load_result(tmp_path / "missing.json")
    with pytest.raises(ValueError, match=r"unknown \['qps'\]"):
        load_result(tmp_path / "unknown.json")


def test_report_skips_malformed_files(result, tmp_path, capsys):
    from repro.cli import main

    bad = _malformed(result, tmp_path)
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "good.json" in out
    skipped = out.split("skipped (not result records): ")[1]
    assert sorted(skipped.strip().split(", ")) == sorted(bad)


@pytest.mark.parametrize("command", ["show", "compare"])
def test_show_and_compare_exit_2_with_one_line(result, tmp_path, capsys, command):
    from repro.cli import main

    good = str(save_result(result, tmp_path / "good.json"))
    for name in _malformed(result, tmp_path):
        bad = str(tmp_path / name)
        argv = [command, bad] if command == "show" else [command, good, bad]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{command}: ") and name in line
