"""Telemetry exporter: canonical JSONL records, lazy file, round trip."""

import json

from repro.obs.telemetry import TelemetryExporter, TelemetrySnapshot

SNAP = TelemetrySnapshot(
    time=60.25,
    seq=0,
    metrics={"prop.probes": 12, "prop.var": {"count": 3, "sum": 90.0}},
    open_spans=4,
    open_traces=2,
    spans_completed=7,
    wire_bytes_out={1: 512, 0: 256},
    wire_bytes_in={0: 300},
)



def _records(path):
    """The exported snapshots, one dict per JSONL line."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestSnapshot:
    def test_json_line_is_canonical(self):
        line = SNAP.to_json_line()
        obj = json.loads(line)
        assert line == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_dict_shape(self):
        data = SNAP.to_dict()
        assert data["time"] == 60.25 and data["seq"] == 0
        assert data["spans"] == {"open": 4, "open_traces": 2, "completed": 7}
        # peer keys stringify and sort for stable JSON
        assert list(data["wire_bytes"]["out"]) == ["0", "1"]
        assert data["metrics"]["prop.probes"] == 12

    def test_loop_surfaces_default_empty(self):
        data = SNAP.to_dict()
        assert data["loop_lag"] == {}
        assert data["callbacks"] == {}

    def test_loop_lag_and_callbacks_serialize_sorted(self):
        snap = TelemetrySnapshot(
            time=30.0,
            seq=2,
            metrics={},
            loop_lag={"samples": 9, "max_ms": 1.5, "mean_ms": 0.2},
            callback_ms={3: {"WALK": 0.42, "NOTIFY": 0.1}, 1: {"WALK": 0.8}},
        )
        data = snap.to_dict()
        assert list(data["loop_lag"]) == ["max_ms", "mean_ms", "samples"]
        assert list(data["callbacks"]) == ["1", "3"]
        assert list(data["callbacks"]["3"]) == ["NOTIFY", "WALK"]
        # canonical line still round-trips
        assert json.loads(snap.to_json_line())["callbacks"]["3"]["WALK"] == 0.42


class TestExporter:
    def test_lazy_creation_and_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "telemetry.jsonl"
        exporter = TelemetryExporter(path)
        assert not path.exists()  # nothing written, nothing created
        exporter.write(SNAP)
        exporter.write(TelemetrySnapshot(time=120.0, seq=1, metrics={}))
        exporter.close()
        assert exporter.written == 2
        records = _records(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0] == SNAP.to_dict()

    def test_lines_flushed_while_open(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(path)
        exporter.write(SNAP)
        # readable mid-run without close(): the tail -f contract
        assert len(_records(path)) == 1
        exporter.close()

    def test_close_is_idempotent(self, tmp_path):
        exporter = TelemetryExporter(tmp_path / "t.jsonl")
        exporter.write(SNAP)
        exporter.close()
        exporter.close()
