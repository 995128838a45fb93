"""RunReport: fingerprinting, assembly, persistence, rendering, diffing."""

import dataclasses
import json

import pytest

from tests.obs.conftest import LOSSY_TRACED
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    REPORT_SCHEMA,
    build_run_report,
    config_fingerprint,
    diff_reports,
    load_report,
    render_markdown,
    save_report,
)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(LOSSY_TRACED) == config_fingerprint(LOSSY_TRACED)

    def test_sensitive_to_any_field(self):
        assert config_fingerprint(LOSSY_TRACED) != config_fingerprint(
            LOSSY_TRACED.but(seed=1)
        )
        assert config_fingerprint(LOSSY_TRACED) != config_fingerprint(
            LOSSY_TRACED.but(loss=0.2)
        )

    def test_short_hex(self):
        fp = config_fingerprint(LOSSY_TRACED)
        assert len(fp) == 16
        int(fp, 16)  # parses as hex


class TestBuild:
    def test_report_fields(self, lossy_traced_result):
        report = build_run_report(lossy_traced_result)
        assert report.fingerprint == config_fingerprint(LOSSY_TRACED)
        assert report.seed == 0
        assert report.duration == 600.0
        assert report.metrics["prop.probes"] > 0
        assert report.event_counts.get("PROBE", 0) > 0
        assert report.event_counts.get("EXCHANGE_PREPARE", 0) > 0

    def test_phase_breakdown_sums_to_duration(self, lossy_traced_result):
        report = build_run_report(lossy_traced_result)
        assert set(report.phases) == {"warmup", "maintenance"}
        assert sum(report.phases.values()) == pytest.approx(600.0)

    def test_profile_is_kernel_profile_in_seconds(self, lossy_traced_result):
        assert build_run_report(lossy_traced_result).profile == {}
        profiled = dataclasses.replace(
            lossy_traced_result,
            kernel_profile={
                "categories": {"build": 1_250_000_000, "sample": 500_000_000},
                "untracked_ns": 250_000_000,
            },
        )
        report = build_run_report(profiled)
        assert report.profile == {"build": 1.25, "sample": 0.5, "untracked": 0.25}
        assert "| build | 1.250 |" in render_markdown(report)

    def test_samples_are_finite(self, lossy_traced_result):
        report = build_run_report(lossy_traced_result)
        assert "final_lookup_latency_ms" in report.samples
        for value in report.samples.values():
            assert value == value  # no NaNs survive


class TestPersistence:
    def test_save_load_round_trip(self, lossy_traced_result, tmp_path):
        report = build_run_report(lossy_traced_result)
        path = save_report(report, tmp_path / "sub" / "report.json")
        loaded = load_report(path)
        assert loaded.fingerprint == report.fingerprint
        assert loaded.metrics == json.loads(json.dumps(report.metrics))
        assert loaded.event_counts == report.event_counts

    def test_schema_tag_enforced(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
        with pytest.raises(ValueError, match=REPORT_SCHEMA.replace("/", ".")):
            load_report(bad)

    def test_malformed_report_is_a_value_error_naming_path_and_keys(
        self, lossy_traced_result, tmp_path
    ):
        good = build_run_report(lossy_traced_result).to_dict()
        path = tmp_path / "report.json"
        missing = {k: v for k, v in good.items()
                   if k not in ("duration", "metrics", "phases")}
        cases = [
            ([good], "not a run report"),                   # non-object JSON
            (missing, "missing .*'duration', 'metrics', and 'phases'"),
            (dict(good, bogus=1), "unexpected .*'bogus'"),
            ('{"schema": "repro.run-rep', "not valid JSON"),  # truncated
        ]
        for doc, message in cases:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            with pytest.raises(ValueError, match=message) as excinfo:
                load_report(path)
            assert str(path) in str(excinfo.value)


#: Well-keyed reports whose body render/diff cannot print: each is a
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
    "sample-null": {"samples": {"final_link_stretch": None}},
    "profile-string": {"profile": {"build": "1.5"}},
    "event-count-float": {"event_counts": {"PROBE": 1.5}},
    "duration-string": {"duration": "600"},
}


class TestBodyValidation:
    @staticmethod
    def _write(lossy_traced_result, tmp_path, body):
        good = build_run_report(lossy_traced_result).to_dict()
        path = tmp_path / "report.json"
        # json.dumps writes 1e400 as Infinity, which json.loads reads back
        path.write_text(json.dumps(dict(good, **body)), encoding="utf-8")
        return path

    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES)
    def test_load_report_names_path_and_section(
        self, body, lossy_traced_result, tmp_path
    ):
        path = self._write(lossy_traced_result, tmp_path, body)
        with pytest.raises(ValueError, match=next(iter(body))) as excinfo:
            load_report(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES)
    def test_render_and_diff_exit_two(self, body, lossy_traced_result, tmp_path, capsys):
        path = str(self._write(lossy_traced_result, tmp_path, body))
        for argv in (["render", path], ["diff", path, path]):
            assert obs_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1


class TestCli:
    def test_diff_and_render_exit_two_on_bad_reports(
        self, lossy_traced_result, tmp_path, capsys
    ):
        good = save_report(build_run_report(lossy_traced_result), tmp_path / "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": REPORT_SCHEMA, "seed": 0, "oops": 1}))
        absent = tmp_path / "absent.json"
        for argv in (
            ["render", str(bad)],
            ["render", str(absent)],
            ["diff", str(good), str(bad)],
            ["diff", str(absent), str(good)],
        ):
            assert obs_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"{argv[0]}: ")
            assert captured.err.count("\n") == 1
        assert obs_main(["diff", str(good), str(good)]) == 0


class TestRendering:
    def test_markdown_sections(self, lossy_traced_result):
        text = render_markdown(build_run_report(lossy_traced_result))
        assert text.startswith("# Run report")
        for heading in ("## Phases", "## Headline samples", "## Metrics",
                        "## Trace events"):
            assert heading in text
        assert "prop.probes" in text
        assert "EXCHANGE_PREPARE" in text


class TestDiff:
    def test_identical_reports_have_no_differences(self, lossy_traced_result):
        report = build_run_report(lossy_traced_result)
        assert "(no metric differences)" in diff_reports(report, report)

    def test_diff_flags_changed_metrics_and_configs(self, lossy_traced_result):
        a = build_run_report(lossy_traced_result)
        b = build_run_report(lossy_traced_result)
        b.fingerprint = "0" * 16
        b.seed = 7
        b.metrics = dict(a.metrics, **{"prop.probes": a.metrics["prop.probes"] + 5})
        b.event_counts = dict(a.event_counts, PROBE=a.event_counts["PROBE"] + 1)
        text = diff_reports(a, b)
        assert "configs differ" in text
        assert "seeds differ" in text
        assert "prop.probes" in text
        assert "events.PROBE" in text
