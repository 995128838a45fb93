"""The one metrics snapshot, the merged net table, bucket percentiles."""

import json

import pytest

from repro.core.protocol import ProtocolCounters
from repro.net.engine import NetCounters
from repro.net.transport import TransportStats
from repro.obs.registry import (
    NET_TABLE_COLUMNS,
    VAR_BUCKETS,
    bucket_counts,
    metrics_snapshot,
    net_summary_rows,
    percentile_from_buckets,
)

#: ``MetricsRegistry`` + the three ``absorb_*`` adapters' snapshot of the
#: ``lossy_traced_result`` fixture run, captured before they were
#: replaced by :func:`metrics_snapshot`.
FIXTURE_SNAPSHOT = {
    "net.busy_rejects": 0, "net.late_replies": 0, "net.late_votes": 0,
    "net.prepare_retries": 24, "net.prepared_timeouts": 14, "net.stale_aborts": 0,
    "net.vote_timeouts": 16, "net.walk_timeouts": 377,
    "prop.collect_messages": 3513, "prop.exchanges": 31, "prop.notify_messages": 432,
    "prop.probes": 592,
    "prop.var": {"edges": [0.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0],
                 "counts": [159, 1, 6, 9, 10, 18, 3, 0], "count": 206, "sum": -63120.0},
    "prop.walk_messages": 998,
    "transport.bytes_sent": 189933, "transport.delivered": 3589,
    "transport.drop_reason.loss": 1490, "transport.dropped": 1490,
    "transport.dropped.EXCHANGE_ABORT": 5, "transport.dropped.EXCHANGE_COMMIT": 18,
    "transport.dropped.EXCHANGE_PREPARE": 22, "transport.dropped.NOTIFY": 134,
    "transport.dropped.VAR_PROBE": 930, "transport.dropped.VAR_REPLY": 71,
    "transport.dropped.WALK": 310, "transport.max_in_flight": 23.0,
    "transport.sent": 5079, "transport.sent.EXCHANGE_ABORT": 16,
    "transport.sent.EXCHANGE_COMMIT": 49, "transport.sent.EXCHANGE_PREPARE": 71,
    "transport.sent.NOTIFY": 432, "transport.sent.VAR_PROBE": 3231,
    "transport.sent.VAR_REPLY": 282, "transport.sent.WALK": 998,
}


def _snapshot(result):
    return metrics_snapshot(result.final_counters, result.net_counters, result.net_stats)


class TestMetricsSnapshot:
    def test_equals_the_registry_snapshot_it_replaced(self, lossy_traced_result):
        snap = _snapshot(lossy_traced_result)
        assert snap == FIXTURE_SNAPSHOT
        assert list(snap) == sorted(snap)
        assert snap["prop.var"]["sum"].hex() == FIXTURE_SNAPSHOT["prop.var"]["sum"].hex()
        assert type(snap["transport.max_in_flight"]) is float
        assert all(type(v) is int for k, v in snap.items()
                   if k not in ("prop.var", "transport.max_in_flight"))

    def test_var_sum_accumulates_left_to_right(self):
        # plain float += in history order, not math.fsum (0.6) or np.sum
        snap = metrics_snapshot(ProtocolCounters(var_history=[0.1, 0.2, 0.3]))
        assert snap["prop.var"]["sum"] == 0.6000000000000001

    def test_histogram_buckets_and_overflow(self):
        assert bucket_counts((10.0, 100.0), [5.0, 50.0, 500.0, 7.0, 10.0]) == [3, 1, 1]
        snap = metrics_snapshot(ProtocolCounters(var_history=[-3.0, 0.0, 1000.0, 1e6]))
        assert snap["prop.var"]["counts"] == [2, 0, 0, 0, 0, 0, 1, 1]

    def test_snapshot_is_sorted_and_json_ready(self):
        stats = TransportStats()
        stats.sent["WALK"] = 3
        snap = metrics_snapshot(ProtocolCounters(probes=2, var_history=[3.0]),
                                NetCounters(), stats)
        assert list(snap) == sorted(snap)
        assert json.loads(json.dumps(snap)) == snap

    def test_protocol_counters(self):
        counters = ProtocolCounters(
            probes=10, exchanges=4, walk_messages=20,
            collect_messages=8, notify_messages=12,
            var_history=[5.0, 500.0],
        )
        snap = metrics_snapshot(counters)
        assert snap["prop.probes"] == 10
        assert snap["prop.exchanges"] == 4
        assert snap["prop.var"]["count"] == 2
        assert snap["prop.var"]["edges"] == list(VAR_BUCKETS)
        assert "prop.var" not in metrics_snapshot(ProtocolCounters())

    def test_net_counters(self):
        snap = metrics_snapshot(net_counters=NetCounters(walk_timeouts=3, busy_rejects=1))
        assert snap["net.walk_timeouts"] == 3
        assert snap["net.busy_rejects"] == 1

    def test_transport_stats(self):
        stats = TransportStats()
        stats.sent["PROBE"] = 7
        stats.delivered["PROBE"] = 5
        stats.dropped["PROBE"] = 2
        stats.drop_reasons["loss"] = 2
        stats.bytes_sent = 700
        stats.max_in_flight = 4
        snap = metrics_snapshot(stats=stats)
        assert snap["transport.sent"] == 7
        assert snap["transport.delivered"] == 5
        assert snap["transport.dropped"] == 2
        assert snap["transport.sent.PROBE"] == 7
        assert snap["transport.drop_reason.loss"] == 2
        assert snap["transport.bytes_sent"] == 700
        assert snap["transport.max_in_flight"] == 4.0

    def test_every_surface_at_once(self):
        snap = metrics_snapshot(ProtocolCounters(probes=2), NetCounters(walk_timeouts=1),
                                TransportStats())
        assert snap["prop.probes"] == 2
        assert snap["net.walk_timeouts"] == 1
        assert snap["transport.sent"] == 0

    def test_absent_surfaces_give_an_empty_snapshot(self):
        assert metrics_snapshot() == {}


class TestMergedTable:
    def test_column_set_is_pinned(self):
        assert NET_TABLE_COLUMNS == ("metric", "value")

    def test_rows_cover_both_planes_once(self):
        snap = metrics_snapshot(ProtocolCounters(probes=5), NetCounters(walk_timeouts=2),
                                TransportStats())
        rows = net_summary_rows(snap)
        names = [name for name, _ in rows]
        assert names == sorted(names)
        assert names.count("net.walk_timeouts") == 1
        assert names.count("transport.sent") == 1
        assert not any(n.startswith("prop.") for n in names)  # out of scope

    def test_histograms_excluded_from_rows(self):
        hist = {"edges": [1.0], "counts": [1, 0], "count": 1, "sum": 1.0}
        assert net_summary_rows({"net.var": hist}) == []


class TestPercentileFromBuckets:
    def test_empty_histogram_reports_zero(self):
        assert percentile_from_buckets([1.0, 2.0], [0, 0, 0], 50.0) == 0.0

    def test_single_occupied_bucket_interpolates_within_edges(self):
        edges = [10.0, 20.0]
        counts = [0, 4, 0]  # all mass in the (10, 20] bucket
        assert percentile_from_buckets(edges, counts, 0.0) == 10.0
        assert percentile_from_buckets(edges, counts, 50.0) == 15.0
        assert percentile_from_buckets(edges, counts, 100.0) == 20.0

    def test_underflow_and_overflow_clamp_to_edge_range(self):
        edges = [1.0, 2.0]
        assert percentile_from_buckets(edges, [3, 0, 0], 99.0) == 1.0
        assert percentile_from_buckets(edges, [0, 0, 3], 1.0) == 2.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match="percentile q"):
            percentile_from_buckets([1.0], [1, 0], 101.0)
