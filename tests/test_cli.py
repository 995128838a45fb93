"""CLI: argument mapping, output, and error handling."""

import pytest

from repro.cli import build_parser, main
from repro.live.transport import udp_loopback_available


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.overlay == "gnutella"
        assert args.n == 1000
        assert args.policy is None and not args.ltm

    def test_policy_and_ltm_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "G", "--ltm"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_overlay_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--overlay", "napster"])


class TestPresetsCommand:
    def test_lists_both_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "ts-large" in out and "ts-small" in out
        assert "6100" in out and "6010" in out


class TestRunCommand:
    COMMON = [
        "run", "--preset", "ts-small", "--n", "60",
        "--duration", "300", "--sample-interval", "150", "--lookups", "40",
    ]

    def test_plain_run(self, capsys):
        assert main(self.COMMON) == 0
        out = capsys.readouterr().out
        assert "lookup latency" in out
        assert "gnutella / none" in out

    def test_prop_g_run(self, capsys):
        assert main(self.COMMON + ["--policy", "G"]) == 0
        out = capsys.readouterr().out
        assert "PROP-G" in out
        assert "exchanges" in out

    def test_prop_o_run_with_m(self, capsys):
        assert main(self.COMMON + ["--policy", "O", "--m", "2"]) == 0
        assert "PROP-O" in capsys.readouterr().out

    def test_ltm_run(self, capsys):
        assert main(self.COMMON + ["--ltm"]) == 0
        assert "LTM" in capsys.readouterr().out

    def test_chord_run(self, capsys):
        argv = [a for a in self.COMMON] + ["--overlay", "chord", "--policy", "G"]
        assert main(argv) == 0
        assert "chord / PROP-G" in capsys.readouterr().out

    def test_invalid_combination_surfaces_config_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.COMMON + ["--overlay", "chord", "--policy", "O"])
        assert str(excinfo.value.code).startswith("error: PROP-O and LTM rewire")

    @pytest.mark.parametrize("flags", [
        ["--n", "5"],
        ["--policy", "G", "--transport", "sim", "--loss", "1.5"],
        ["--policy", "G", "--transport", "sim", "--partition", "bogus"],
        ["--policy", "O", "--overlay", "chord"],
        ["--flood-ttl", "-3"],
    ], ids=["n", "loss", "partition", "policy-overlay", "flood-ttl"])
    def test_config_errors_are_one_error_line(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(self.COMMON + flags)
        message = str(excinfo.value.code)
        assert message.startswith("error: ") and "\n" not in message


class TestTransportFlags:
    """Smoke tests for the message-plane flags on ``run``."""

    COMMON = [
        "run", "--preset", "ts-small", "--n", "60", "--policy", "G",
        "--duration", "300", "--sample-interval", "150", "--lookups", "40",
    ]

    def test_sim_transport_run(self, capsys):
        assert main(self.COMMON + ["--transport", "sim"]) == 0
        out = capsys.readouterr().out
        assert "PROP-G" in out
        assert "transport.sent" in out and "transport.dropped" in out

    def test_net_table_is_single_merged_table(self, capsys):
        """NetCounters and transport.stats appear once, in one table."""
        assert main(self.COMMON + ["--transport", "sim", "--loss", "0.1"]) == 0
        out = capsys.readouterr().out
        # the pinned column set of the merged table
        assert "metric" in out and "value" in out
        # the legacy two-surface summary lines are gone
        assert "messages:" not in out
        # both planes are sourced from the one registry
        assert out.count("transport.sent ") == 1
        assert "net.walk_timeouts" in out

    def test_lossy_partitioned_run(self, capsys):
        argv = self.COMMON + ["--transport", "sim", "--loss", "0.1",
                              "--partition", "a:b"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "transport.drop_reason.loss" in out
        assert "transport.drop_reason.partition" in out

    def test_transient_partition_spec_accepted(self, capsys):
        argv = self.COMMON + ["--transport", "sim",
                              "--partition", "a:b@60-120"]
        assert main(argv) == 0
        assert "transport.sent" in capsys.readouterr().out

    def test_loss_requires_sim_transport(self):
        with pytest.raises(SystemExit):
            main(self.COMMON + ["--loss", "0.1"])

    def test_partition_requires_sim_transport(self):
        with pytest.raises(SystemExit):
            main(self.COMMON + ["--partition", "a:b"])

    def test_transport_requires_prop_policy(self):
        argv = [a for a in self.COMMON if a not in ("--policy", "G")]
        with pytest.raises(SystemExit):
            main(argv + ["--transport", "sim"])

    def test_transport_rejects_ltm(self):
        argv = [a for a in self.COMMON if a not in ("--policy", "G")]
        with pytest.raises(SystemExit):
            main(argv + ["--ltm", "--transport", "sim"])

    def test_invalid_loss_surfaces_config_error(self):
        with pytest.raises(SystemExit, match="loss must be in"):
            main(self.COMMON + ["--transport", "sim", "--loss", "1.5"])

    def test_malformed_partition_spec_rejected(self):
        with pytest.raises(SystemExit, match="^error: "):
            main(self.COMMON + ["--transport", "sim", "--partition", "oops"])


class TestObservabilityFlags:
    """--trace / --profile / --monitor on ``run``."""

    COMMON = [
        "run", "--preset", "ts-small", "--n", "60", "--policy", "G",
        "--duration", "300", "--sample-interval", "150", "--lookups", "20",
    ]

    def test_trace_writes_parseable_jsonl(self, tmp_path, capsys):
        from repro.obs.events import events_from_jsonl

        path = tmp_path / "trace.jsonl"
        argv = self.COMMON + ["--transport", "sim", "--trace", str(path)]
        assert main(argv) == 0
        events = events_from_jsonl(path.read_text())
        assert events, "a PROP run must emit events"
        assert {e.etype for e in events} >= {"PROBE", "MSG_SEND", "MSG_DELIVER"}

    def test_trace_fills_the_records_event_counts(self, tmp_path, capsys):
        from repro.harness.persistence import load_record

        path = tmp_path / "r.json"
        argv = self.COMMON + ["--trace", str(tmp_path / "t.jsonl"), "--save", str(path)]
        assert main(argv) == 0
        record = load_record(path)
        assert record.phases and record.metrics
        assert record.event_counts.get("PROBE", 0) > 0

    def test_trace_rejects_seeds(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self.COMMON + ["--seeds", "0,1",
                                "--trace", str(tmp_path / "t.jsonl")])

    def test_empty_trace_warns_on_stderr(self, tmp_path, capsys):
        # no optimizer -> no protocol activity -> zero events; the file
        # is still written (empty) but the CLI must say so
        path = tmp_path / "empty.jsonl"
        argv = [
            "run", "--preset", "ts-small", "--n", "60",
            "--duration", "300", "--sample-interval", "150", "--lookups", "20",
            "--trace", str(path),
        ]
        assert main(argv) == 0
        assert path.exists() and path.read_text() == ""
        err = capsys.readouterr().err
        assert "warning" in err and "no trace events" in err

    def test_monitor_prints_live_status_lines(self, capsys):
        assert main(self.COMMON + ["--monitor"]) == 0
        err = capsys.readouterr().err
        assert "[warmup]" in err or "[maintenance]" in err
        assert "[done]" in err
        assert "exch" in err

    def test_monitor_with_seeds_prints_rollup(self, capsys):
        assert main(self.COMMON + ["--seeds", "0,1", "--monitor"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err

    @staticmethod
    def _profile_rows(out):
        """``category -> nanoseconds`` parsed from a printed KernelProfile table."""
        lines = out[out.index("category "):].splitlines()[1:]
        rows = {}
        for line in lines:
            if not line.strip():
                break
            name, seconds = line.split()[:2]
            rows[name] = round(float(seconds) * 1e9)
        return rows

    def test_profile_prints_stage_table(self, capsys, tmp_path):
        from repro.harness.persistence import load_record

        path = tmp_path / "r.json"
        assert main(self.COMMON + ["--profile", "--save", str(path)]) == 0
        rows = self._profile_rows(capsys.readouterr().out)
        assert {"build", "sample", "untracked", "total"} <= set(rows)
        # the printed table is the record's profile; there the partition is exact
        saved = load_record(path).profile
        assert sum(saved.categories.values()) + saved.untracked_ns == saved.total_ns
        assert saved.categories["build"] > 0 and saved.categories["sample"] > 0
        for name, ns in saved.categories.items():
            assert abs(rows[name] - ns) <= 100_000  # table prints 4 decimals

    def test_profile_alone_prints_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.COMMON + ["--profile"]) == 0
        rows = self._profile_rows(capsys.readouterr().out)
        assert rows["build"] > 0 and rows["sample"] > 0
        assert list(tmp_path.iterdir()) == []

    def test_profile_rides_in_the_config_through_workers(self, capsys):
        argv = self.COMMON + ["--transport", "sim", "--workers", "2", "--profile"]
        assert main(argv) == 0
        rows = self._profile_rows(capsys.readouterr().out)
        assert rows["build"] > 0 and rows["sample"] > 0
        assert "deliver:WALK" in rows

    @pytest.mark.skipif(not udp_loopback_available(),
                        reason="loopback UDP unavailable in this environment")
    def test_profile_on_udp_saves_a_partitioning_record(self, capsys, tmp_path):
        from repro.harness.persistence import load_record

        path = tmp_path / "r.json"
        argv = self.COMMON + ["--transport", "udp", "--speedup", "300", "--profile",
                              "--save", str(path)]
        assert main(argv) == 0
        rows = self._profile_rows(capsys.readouterr().out)
        assert {"build", "sample", "untracked", "total"} <= set(rows)
        saved = load_record(path).profile
        assert sum(saved.categories.values()) + saved.untracked_ns == saved.total_ns
        assert saved.categories.get("deliver:WALK", 0) > 0

    def test_profile_rejects_seeds(self):
        with pytest.raises(SystemExit):
            main(self.COMMON + ["--seeds", "0,1", "--profile"])

    def test_no_trace_flag_means_no_tracer(self, capsys):
        # plain runs keep the NullTracer and no profiler: nothing
        # observability-related in the output beyond the merged net table
        assert main(self.COMMON) == 0
        assert "category " not in capsys.readouterr().out


class TestParallelExecution:
    """Smoke tests keeping the worker-pool path exercised on every run."""

    TINY = [
        "run", "--preset", "ts-small", "--n", "60",
        "--duration", "150", "--sample-interval", "150", "--lookups", "20",
    ]

    def test_run_through_pool(self, capsys):
        assert main(self.TINY + ["--workers", "2"]) == 0
        assert "lookup latency" in capsys.readouterr().out

    def test_multi_seed_replication_with_workers(self, capsys):
        assert main(self.TINY + ["--policy", "G", "--seeds", "0,1",
                                 "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "mean over seeds [0, 1]" in out
        assert "improvement ratio" in out

    def test_seeds_save_matches_single_seed_runs(self, tmp_path, capsys):
        # a record is the same file whether or not --seeds (and a pool) made it
        out_dir = tmp_path / "seeds"
        assert main(self.TINY + ["--policy", "G", "--seeds", "0,1", "--workers", "2",
                                 "--save", str(out_dir)]) == 0
        assert f"saved 2 run records to {out_dir}" in capsys.readouterr().err
        for seed in (0, 1):
            single = tmp_path / f"single{seed}.json"
            assert main(self.TINY + ["--policy", "G", "--seed", str(seed),
                                     "--save", str(single)]) == 0
            assert single.read_text() == (out_dir / f"seed{seed}.json").read_text()

    def test_malformed_seeds_rejected(self):
        with pytest.raises(SystemExit):
            main(self.TINY + ["--seeds", "0,x"])

    def test_figure_accepts_workers(self):
        args = build_parser().parse_args(["figure", "fig5a", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["figure", "fig5a", "--workers", "0"])
        assert args.workers == 0  # one per core

    @pytest.mark.parametrize("argv", [["run"], ["figure", "fig5a"]])
    def test_negative_workers_rejected_at_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--workers", "-3"])
        assert excinfo.value.code == 2
        (error,) = [line for line in capsys.readouterr().err.splitlines()
                    if "error:" in line]
        assert "--workers" in error and ">= 0" in error
