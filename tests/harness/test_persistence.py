"""The run record: build, write, load, validate, render, compare, tabulate.

One schema (``repro.run/2``) behind ``repro run --save``, ``show``,
``compare`` and ``report``.
"""

import json
import re

import numpy as np
import pytest

from repro.baselines.ltm import LTMConfig
from repro.cli import main
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.persistence import (
    SCHEMA,
    compare_records,
    describe_config,
    load_record,
    render_record,
    save_record,
    tabulate_records,
    to_record,
)
from repro.live.transport import udp_loopback_available
from repro.obs.prof import KernelProfile
from repro.obs.registry import metrics_snapshot

FAST = dict(
    preset="ts-small",
    n_overlay=60,
    duration=300.0,
    sample_interval=150.0,
    lookups_per_sample=40,
)
PROP_G = PROPConfig(policy="G")

#: One config per kind of result the record must carry unchanged.
ROUND_TRIP = {
    "inline": ExperimentConfig(prop=PROP_G, **FAST),
    "sim": ExperimentConfig(prop=PROP_G, transport="sim", **FAST),
    "lossy-sim": ExperimentConfig(prop=PROP_G, transport="sim", loss=0.3, **FAST),
    "ltm": ExperimentConfig(ltm=LTMConfig(), **FAST),
    "no-optimizer": ExperimentConfig(**FAST),
    "no-lookups": ExperimentConfig(prop=PROP_G, **dict(FAST, lookups_per_sample=0)),
    "traced": ExperimentConfig(prop=PROP_G, transport="sim", trace=True, **FAST),
    "profiled": ExperimentConfig(prop=PROP_G, kernel_profile=True, **FAST),
    "profiled-sim": ExperimentConfig(prop=PROP_G, transport="sim", kernel_profile=True,
                                     **FAST),
    "profiled-udp": ExperimentConfig(prop=PROP_G, transport="udp", kernel_profile=True,
                                     live_speedup=240.0, live_lookup_rate=0.5, **FAST),
}

needs_loopback = pytest.mark.skipif(
    not udp_loopback_available(), reason="loopback UDP unavailable in this environment")

CLI_RUN = ["run", "--preset", "ts-small", "--n", "60", "--duration", "300",
           "--sample-interval", "150", "--lookups", "30"]


@pytest.fixture(scope="module")
def result():
    return run_experiment(ROUND_TRIP["inline"])


@pytest.fixture(scope="module")
def traced_result():
    return run_experiment(ROUND_TRIP["traced"])


def _one_error_line(capsys, command):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"{command}: ")
    return line


# -- writing and reading back ----------------------------------------------


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=needs_loopback) if "udp" in kind else kind for kind in ROUND_TRIP])
def test_record_carries_the_result(kind, tmp_path, capsys):
    run = run_experiment(ROUND_TRIP[kind])
    path = save_record(run, tmp_path / "r.json")
    record = load_record(path)
    for name, series in record.series.items():
        np.testing.assert_array_equal(series, getattr(run, name))  # NaN == NaN
    snapshot = metrics_snapshot(run.final_counters, run.net_counters, run.net_stats,
                                run.live_metrics)
    assert record.metrics == json.loads(json.dumps(snapshot))
    live = {"transport.wire_bytes_sent", "live.lookups", "live.mean_lookup_ms"}
    assert len(live & record.metrics.keys()) == (3 if "udp" in kind else 0)
    assert record.profile == (
        KernelProfile.from_dict(run.kernel_profile) if run.kernel_profile else None)
    assert main(["compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("(no differences)")

def test_round_trip_series(result, tmp_path):
    record = load_record(save_record(result, tmp_path / "r.json"))
    assert np.array_equal(record.series["times"], result.times)
    assert np.array_equal(record.series["probes"], result.probes)
    assert record.series["probes"].dtype.kind == "i"

def test_round_trip_summary_api(result, tmp_path):
    """The initial / final / ratio rows of a loaded record are the result's own."""
    text = render_record(load_record(save_record(result, tmp_path / "r.json")))
    for name, first, last, ratio in (
        ("stretch", result.initial_stretch, result.final_stretch,
         result.improvement_ratio("stretch")),
        ("lookup_latency", result.initial_lookup_latency, result.final_lookup_latency,
         result.improvement_ratio()),
    ):
        assert f"| {name} | {first:.3f} | {last:.3f} | {ratio:.3f} |" in text

def test_counters_preserved(result, tmp_path):
    record = load_record(save_record(result, tmp_path / "r.json"))
    assert record.metrics["prop.probes"] == result.final_counters.probes
    assert record.metrics["prop.exchanges"] == result.final_counters.exchanges
    assert not any("var_history" in name for name in record.metrics)

def test_config_echoed(result, tmp_path):
    record = load_record(save_record(result, tmp_path / "r.json"))
    assert record.config["n_overlay"] == 60
    assert record.config["prop"]["policy"] == "G"
    assert record.config["prop"]["__dataclass__"] == "PROPConfig"

def test_file_is_plain_json(result, tmp_path):
    data = json.loads(save_record(result, tmp_path / "r.json").read_text())
    assert data["schema"] == SCHEMA
    assert set(data) == {"schema", "config", "series", "metrics", "phases",
                         "event_counts", "profile"}

def test_saved_file_is_strict_json(tmp_path):
    """A NaN sample is written as null: no NaN / Infinity tokens."""
    run = run_experiment(ROUND_TRIP["no-lookups"])
    text = save_record(run, tmp_path / "r.json").read_text()

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    data = json.loads(text, parse_constant=refuse)
    assert data["series"]["lookup_latency"] == [None] * run.times.size
    assert np.isnan(load_record(tmp_path / "r.json").series["lookup_latency"]).all()

def test_unoptimized_result_round_trips(tmp_path):
    run = run_experiment(ROUND_TRIP["no-optimizer"])
    record = load_record(save_record(run, tmp_path / "r.json"))
    assert record.metrics == {}
    assert record.phases == {"measurement": 300.0}
    assert np.array_equal(record.series["link_stretch"], run.link_stretch)

def test_save_creates_missing_parent_directories(tmp_path, capsys):
    path = tmp_path / "a" / "b" / "r.json"
    assert main(CLI_RUN + ["--save", str(path)]) == 0
    assert load_record(path).config["seed"] == 0


# -- what the record holds -------------------------------------------------


def test_event_counts_only_when_traced(result, traced_result):
    assert to_record(result)["event_counts"] == {}
    counts = to_record(traced_result)["event_counts"]
    assert counts["PROBE"] > 0 and counts["EXCHANGE_PREPARE"] > 0
    assert list(counts) == sorted(counts)

def test_phase_breakdown_sums_to_duration(result):
    phases = to_record(result)["phases"]
    assert set(phases) == {"warmup", "maintenance"}
    assert sum(phases.values()) == pytest.approx(300.0)

@pytest.fixture(scope="module")
def profiled_result():
    return run_experiment(ROUND_TRIP["profiled-sim"])


def test_profile_is_the_kernel_profile(result, profiled_result):
    assert to_record(result)["profile"] == {}
    assert to_record(profiled_result)["profile"] == profiled_result.kernel_profile
    assert set(profiled_result.kernel_profile) == {
        "total_ns", "untracked_ns", "events", "windows", "sim_seconds",
        "categories", "counts", "heap"}

def test_profiled_run_renders_its_profile(tmp_path):
    record = load_record(save_record(run_experiment(ROUND_TRIP["profiled"]),
                                     tmp_path / "r.json"))
    assert record.profile.categories["build"] > 0 and record.profile.untracked_ns >= 0
    assert "## Wall-clock profile" in render_record(record)

@needs_loopback
def test_udp_record_profile_partitions_exactly(tmp_path):
    record = load_record(save_record(run_experiment(ROUND_TRIP["profiled-udp"]),
                                     tmp_path / "r.json"))
    profile = record.profile
    assert sum(profile.categories.values()) + profile.untracked_ns == profile.total_ns
    assert any(ns > 0 for name, ns in profile.categories.items()
               if name.startswith("deliver:"))
    assert profile.categories["build"] > 0 and profile.categories["sample"] > 0
    assert profile.windows == 2  # one per awaited run_until (t=150, t=300)


# -- load-time validation --------------------------------------------------


def _malformed(result, tmp_path):
    """Files that are JSON (or not) but not loadable records, by what is wrong."""
    good = json.loads(save_record(result, tmp_path / "good.json").read_text())
    missing = json.loads(json.dumps(good))
    del missing["series"]["exchanges"]
    unknown = json.loads(json.dumps(good))
    unknown["series"]["qps"] = [1.0]
    cases = {
        "array.json": [good],
        "schema.json": {**good, "schema": "repro.run/0"},
        "missing.json": missing,
        "unknown.json": unknown,
    }
    for name, data in cases.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "garbage.json").write_text("{not json")
    return [*cases, "garbage.json"]


#: Well-keyed records whose body show / compare cannot print: each is a
#: ValueError naming the path and the offending section.
MALFORMED_BODIES = {
    "metric-string": {"metrics": {"a": "abc"}},
    "metrics-list": {"metrics": [1, 2]},
    "histogram-extra-counts": {"metrics": {"h": {"edges": [1.0], "counts": [1, 2, 3],
                                                 "count": 6, "sum": 6.0}}},
    "histogram-unsorted-edges": {"metrics": {"h": {"edges": [2.0, 1.0], "counts": [0, 0, 0],
                                                   "count": 0, "sum": 0.0}}},
    "metric-overflow": {"metrics": {"a": 1e400}},
    "phase-string": {"phases": {"warmup": "x"}},
    "profile-string": {"profile": {"build": "1.5"}},
    "profile-broken-partition": {"profile": {
        "total_ns": 5, "untracked_ns": 1, "events": 1, "windows": 1, "sim_seconds": None,
        "categories": {"build": 5}, "counts": {"build": 1}, "heap": {}}},
    "event-count-float": {"event_counts": {"PROBE": 1.5}},
    "duration-string": {"config": {"seed": 0, "duration": "600"}},
    "series-string": {"series": "abc"},
}


NOT_A_RECORD = f"not a run record ({SCHEMA})"


def test_wrong_schema_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "other"}))
    with pytest.raises(ValueError, match=re.escape(NOT_A_RECORD)):
        load_record(p)

def test_malformed_files_raise_value_error_naming_the_path(result, tmp_path):
    for name in _malformed(result, tmp_path):
        with pytest.raises(ValueError, match=name):
            load_record(tmp_path / name)

def test_series_key_errors_say_which_keys(result, tmp_path):
    _malformed(result, tmp_path)
    with pytest.raises(ValueError, match=r"missing \['exchanges'\]"):
        load_record(tmp_path / "missing.json")
    with pytest.raises(ValueError, match=r"unknown \['qps'\]"):
        load_record(tmp_path / "unknown.json")

def test_top_level_key_errors_say_which_keys(result, tmp_path):
    good = to_record(result)
    path = tmp_path / "r.json"
    path.write_text(json.dumps({k: v for k, v in good.items() if k != "phases"}))
    with pytest.raises(ValueError, match=r"missing \['phases'\]"):
        load_record(path)
    path.write_text(json.dumps(dict(good, bogus=1)))
    with pytest.raises(ValueError, match=r"unexpected \['bogus'\]"):
        load_record(path)

def test_series_must_be_as_long_as_times(result, tmp_path):
    good = to_record(result)
    good["series"]["probes"] = good["series"]["probes"][:-1]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError, match="as long as times: probes"):
        load_record(path)

def _write_body(result, tmp_path, body):
    path = tmp_path / "r.json"
    # json.dumps writes 1e400 as Infinity, which json.loads reads back
    path.write_text(json.dumps(dict(to_record(result), **body)))
    return path

@pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES)
def test_malformed_body_names_path_and_section(body, result, tmp_path):
    path = _write_body(result, tmp_path, body)
    with pytest.raises(ValueError, match=next(iter(body))) as excinfo:
        load_record(path)
    assert str(path) in str(excinfo.value)

@pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES)
def test_malformed_body_exits_2_with_one_line(body, result, tmp_path, capsys):
    path = str(_write_body(result, tmp_path, body))
    for argv in (["show", path], ["compare", path, path]):
        assert main(argv) == 2
        _one_error_line(capsys, argv[0])

@pytest.mark.parametrize("command", ["show", "compare"])
def test_show_and_compare_exit_2_with_one_line(result, tmp_path, capsys, command):
    good = str(save_record(result, tmp_path / "good.json"))
    for name in [*_malformed(result, tmp_path), "absent.json"]:
        bad = str(tmp_path / name)
        argv = [command, bad] if command == "show" else [command, good, bad]
        assert main(argv) == 2
        assert name in _one_error_line(capsys, command)

def test_compare_exits_2_on_a_bad_first_record(result, tmp_path, capsys):
    good = str(save_record(result, tmp_path / "good.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": SCHEMA, "config": {"seed": 0}, "oops": 1}))
    for name in ("bad.json", "absent.json"):
        assert main(["compare", str(tmp_path / name), good]) == 2
        assert name in _one_error_line(capsys, "compare")
    assert main(["compare", good, good]) == 0

def test_both_old_schemas_are_refused(result, tmp_path, capsys):
    record = to_record(result)
    old = {
        "experiment-result.json": {"schema": "repro.experiment-result/1",
                                   "config": record["config"],
                                   "series": record["series"]},
        "run-report.json": {"schema": "repro.run-report/1", "fingerprint": "0" * 16,
                            "seed": 0, "duration": 300.0, "metrics": {},
                            "phases": {}, "event_counts": {}, "profile": {},
                            "samples": {}},
    }
    good = str(save_record(result, tmp_path / "good.json"))
    for name, doc in old.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(NOT_A_RECORD)):
            load_record(path)
        for argv in (["show", str(path)], ["compare", good, str(path)]):
            assert main(argv) == 2
            assert NOT_A_RECORD in _one_error_line(capsys, argv[0])

def test_a_repro_run_1_record_is_refused(result, tmp_path, capsys):
    """The first record schema kept the profile as seconds per category;
    no reader is kept for it."""
    path = tmp_path / "run1.json"
    path.write_text(json.dumps(dict(to_record(result), schema="repro.run/1",
                                    profile={"build": 1.25, "untracked": 0.25})))
    with pytest.raises(ValueError, match=re.escape(NOT_A_RECORD)):
        load_record(path)
    assert main(["show", str(path)]) == 2
    assert NOT_A_RECORD in _one_error_line(capsys, "show")


# -- show ------------------------------------------------------------------


def test_markdown_sections(traced_result, tmp_path):
    text = render_record(load_record(save_record(traced_result, tmp_path / "r.json")))
    assert text.startswith("# Run record\n")
    assert "- deployment: gnutella n=60 PROP-G ts-small" in text
    for heading in ("## Phases", "## Metrics", "## Trace events"):
        assert heading in text
    assert "| prop.var.p95 |" in text and "| EXCHANGE_PREPARE |" in text
    assert "## Wall-clock profile" not in text

def test_render_labels_the_headline_series(result, tmp_path):
    text = render_record(load_record(save_record(result, tmp_path / "r.json")), label="demo")
    assert text.startswith("# Run record: demo\n")
    for name in ("lookup_latency", "stretch", "link_stretch"):
        assert f"| {name} |" in text

def test_show_prints_the_rendering_of_the_saved_file(result, tmp_path, capsys):
    path = str(save_record(result, tmp_path / "r.json"))
    assert main(["show", path]) == 0
    text = capsys.readouterr().out
    assert text == render_record(load_record(path), label=path)
    assert "| series | initial | final | final/initial |" in text

def test_plain_description():
    assert describe_config(
        {"overlay_kind": "chord", "n_overlay": 10, "preset": "ts-large"}
    ) == "chord n=10 none ts-large"

def test_prop_o_description():
    desc = describe_config({
        "overlay_kind": "gnutella", "n_overlay": 5,
        "prop": {"policy": "O", "m": 2}, "preset": "ts-small",
        "heterogeneous": True,
    })
    assert desc == "gnutella n=5 PROP-O m=2 het ts-small"


# -- compare ---------------------------------------------------------------


def test_names_a_differing_config_field(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(CLI_RUN + ["--policy", "G", "--save", a]) == 0
    assert main(CLI_RUN + ["--policy", "G", "--nhops", "1", "--save", b]) == 0
    capsys.readouterr()
    assert main(["show", a]) == 0
    assert "final/initial" in capsys.readouterr().out
    assert main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "config prop.nhops: 2 -> 1" in out
    assert "(no differences)" not in out

def test_compare_names_every_changed_config_field(result, tmp_path):
    a = load_record(save_record(result, tmp_path / "r.json"))
    b = load_record(tmp_path / "r.json")
    b.config = dict(a.config, seed=1, loss=0.2)
    text = compare_records(a, b)
    assert "config seed: 0 -> 1" in text
    assert f"config loss: {a.config['loss']} -> 0.2" in text
    assert compare_records(a, a) == "(no differences)"

def test_flags_changed_metrics_events_and_endpoints(traced_result, tmp_path):
    path = save_record(traced_result, tmp_path / "r.json")
    a, b = load_record(path), load_record(path)
    b.metrics = dict(a.metrics, **{"prop.probes": a.metrics["prop.probes"] + 5})
    b.event_counts = dict(a.event_counts, PROBE=a.event_counts["PROBE"] + 1)
    b.series = dict(a.series, exchanges=a.series["exchanges"] + 1)
    text = compare_records(a, b)
    assert "config" not in text
    for name in ("prop.probes", "events.PROBE", "series.exchanges.final"):
        assert name in text
    assert "series.stretch.final" not in text


# -- report, and --seeds --save --------------------------------------------


def test_report_skips_malformed_files(result, tmp_path, capsys):
    bad = _malformed(result, tmp_path)
    (tmp_path / "notes.json").write_text(json.dumps({"hello": 1}))
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "good.json" in out and "PROP-G" in out
    skipped = out.split("skipped (not run records): ")[1]
    assert sorted(skipped.strip().split(", ")) == sorted([*bad, "notes.json"])

def test_report_skips_foreign_json(result, tmp_path, capsys):
    save_record(result, tmp_path / "good.json")
    (tmp_path / "notes.json").write_text(json.dumps({"hello": 1}))
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "good.json" in out
    assert out.rstrip().endswith("skipped (not run records): notes.json")

def test_tabulate_lists_every_record(result, tmp_path):
    plain = dict(to_record(result))
    plain["config"] = dict(plain["config"], prop=None)
    (tmp_path / "a_plain.json").write_text(json.dumps(plain))
    save_record(result, tmp_path / "b_propg.json")
    lines = tabulate_records(tmp_path).splitlines()
    assert "deployment" in lines[0] and "final/initial" in lines[0]
    (row_a,) = [line for line in lines if "a_plain.json" in line]
    (row_b,) = [line for line in lines if "b_propg.json" in line]
    assert " none " in row_a and "PROP-G" in row_b
    assert "skipped" not in "\n".join(lines)


@pytest.fixture(scope="module")
def seeds_dir(tmp_path_factory):
    """What ``run --seeds 0,1 --save DIR`` leaves in DIR."""
    out_dir = tmp_path_factory.mktemp("study") / "seeds"
    argv = CLI_RUN + ["--policy", "G", "--seeds", "0,1", "--save", str(out_dir)]
    assert main(argv) == 0
    return out_dir

def test_seeds_save_writes_one_record_per_seed(seeds_dir):
    assert sorted(p.name for p in seeds_dir.iterdir()) == ["seed0.json", "seed1.json"]
    for seed in (0, 1):
        assert load_record(seeds_dir / f"seed{seed}.json").config["seed"] == seed

def test_report_lists_every_record(seeds_dir, capsys):
    assert main(["report", str(seeds_dir)]) == 0
    out = capsys.readouterr().out
    assert "deployment" in out and "final/initial" in out
    assert "seed0.json" in out and "seed1.json" in out and "skipped" not in out

def test_report_metric_selectable(seeds_dir, capsys):
    assert main(["report", str(seeds_dir), "--metric", "link_stretch"]) == 0
    out = capsys.readouterr().out
    assert "initial link_stretch" in out and "final link_stretch" in out
    assert "lookup_latency" not in out

def test_empty_or_missing_directory_exits_2(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "absent"):
        assert main(["report", str(target)]) == 2
        _one_error_line(capsys, "report")

def test_report_on_a_file_exits_2(result, tmp_path, capsys):
    path = save_record(result, tmp_path / "r.json")
    with pytest.raises(ValueError, match="is not a directory"):
        tabulate_records(path)
    assert main(["report", str(path)]) == 2
    assert "is not a directory" in _one_error_line(capsys, "report")
