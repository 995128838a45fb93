"""FaultyTransport loss/partition injection and the PartitionSpec grammar."""

from math import inf, nan

import numpy as np
import pytest

from repro.net.faults import FaultyTransport, PartitionSpec
from repro.net.messages import Notify, VarProbe
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.obs.events import SpanEndEvent
from repro.obs.trace import Tracer


def _faulty(overlay, tracer=None, **kwargs):
    sim = Simulator()
    inner = SimTransport(sim, overlay, tracer=tracer)
    rng = np.random.default_rng(42)
    return sim, FaultyTransport(inner, rng, **kwargs)


def _ping(i=0, j=1):
    return VarProbe(src=i, dst=j, cycle=1)


def _notify(i=0, j=1, xid=1):
    """A message the receiver handles, so it travels with its delay."""
    return Notify(src=i, dst=j, xid=xid, commit=False)


class TestLoss:
    def test_zero_loss_drops_nothing(self, gnutella):
        sim, tr = _faulty(gnutella, loss=0.0)
        for _ in range(50):
            tr.send(_ping())
        sim.run()
        assert tr.stats.total_dropped == 0
        assert tr.stats.total_delivered == 50

    def test_loss_rate_is_respected(self, gnutella):
        sim, tr = _faulty(gnutella, loss=0.5)
        for _ in range(400):
            tr.send(_ping())
        sim.run()
        dropped = tr.stats.dropped["VAR_PROBE"]
        assert 140 <= dropped <= 260  # ~Binomial(400, 0.5)
        assert tr.stats.drop_reasons["loss"] == dropped
        assert tr.stats.total_delivered + dropped == 400

    def test_loss_is_seed_deterministic(self, gnutella):
        outcomes = []
        for _ in range(2):
            sim, tr = _faulty(gnutella, loss=0.3)
            for _ in range(100):
                tr.send(_ping())
            sim.run()
            outcomes.append(tr.stats.total_dropped)
        assert outcomes[0] == outcomes[1]

    def test_per_link_loss_mapping_is_symmetric(self, gnutella):
        sim, tr = _faulty(gnutella, loss={(1, 0): 1.0 - 1e-12})
        tr.send(_ping(0, 1))  # looked up as (0,1) then (1,0)
        tr.send(_ping(2, 3))  # not in the map: lossless
        sim.run()
        assert tr.stats.total_dropped == 1
        assert tr.stats.total_delivered == 1

    def test_callable_loss(self, gnutella):
        sim, tr = _faulty(gnutella, loss=lambda s, d: 1.0 - 1e-12 if s == 0 else 0.0)
        tr.send(_ping(0, 1))
        tr.send(_ping(1, 0))
        sim.run()
        assert tr.stats.total_dropped == 1

    def test_invalid_rates_rejected(self, gnutella):
        with pytest.raises(ValueError):
            _faulty(gnutella, loss=1.0)
        with pytest.raises(ValueError):
            _faulty(gnutella, extra_delay_ms=-1.0)
        with pytest.raises(ValueError):
            _faulty(gnutella, reorder_prob=1.5)

    @pytest.mark.parametrize("loss", [1, 5, -1, nan, np.int64(1), np.float64(1.0)])
    def test_out_of_range_loss_of_any_real_type_rejected(self, gnutella, loss):
        # regression: only ``float`` was range-checked, so loss=1 was accepted
        with pytest.raises(ValueError):
            _faulty(gnutella, loss=loss)

    @pytest.mark.parametrize("bad", [nan, 1.0, 1.5, -0.1])
    def test_out_of_range_loss_in_a_mapping_rejected(self, gnutella, bad):
        # regression: only a scalar was checked, so NaN silently meant
        # "never drop" on that link and 1.5 "always drop"
        with pytest.raises(ValueError, match=r"link \(0, 1\)"):
            _faulty(gnutella, loss={(2, 3): 0.5, (0, 1): bad})

    @pytest.mark.parametrize("bad", [nan, 1.0, 1.5, -0.1])
    def test_out_of_range_loss_from_a_callable_rejected(self, gnutella, bad):
        sim, tr = _faulty(gnutella, loss=lambda s, d: bad if s == 0 else 0.2)
        tr.send(_ping(1, 2))  # a valid probability passes
        with pytest.raises(ValueError, match=r"link \(0, 1\)"):
            tr.send(_ping(0, 1))
        with pytest.raises(ValueError):
            tr.send_pings(0, (1,), cycle=1)

    @pytest.mark.parametrize("field", ["extra_delay_ms", "jitter_ms", "reorder_ms"])
    @pytest.mark.parametrize("value", [nan, inf])
    def test_non_finite_delays_rejected(self, gnutella, field, value):
        with pytest.raises(ValueError):
            _faulty(gnutella, **{field: value})


class TestDelayAndReorder:
    def test_extra_delay_shifts_delivery(self, gnutella):
        sim, tr = _faulty(gnutella, extra_delay_ms=500.0)
        tr.register(1, lambda m: None)
        tr.send(_notify())
        sim.run()
        assert sim.now >= 0.5

    def test_reorder_can_overtake(self, gnutella):
        sim, tr = _faulty(gnutella, reorder_prob=0.5, reorder_ms=500.0)
        seen = []
        tr.register(1, lambda m: seen.append(m.xid))
        for i in range(40):
            tr.send(_notify(xid=i))
        sim.run()
        assert sorted(seen) == list(range(40))
        assert seen != sorted(seen)  # at least one overtake at these rates


class TestInertPings:
    """A ping fan-out skips the flight time on the inner transport, never
    the per-ping fault decisions."""

    KNOBS = dict(loss=0.3, jitter_ms=20.0, reorder_prob=0.2, reorder_ms=50.0)

    def _fates(self, gnutella, send):
        """Send 200 spanned messages to slot 1 through ``send``: the
        span ids delivered and dropped, the stats and the event count."""
        tracer = Tracer()
        sim, tr = _faulty(gnutella, tracer, **self.KNOBS)
        tr.register(1, lambda m: None)
        send(tr)
        sim.run()
        ends = [e for e in tracer.events if isinstance(e, SpanEndEvent)]
        survived = sorted(e.span for e in ends if e.status == "ok")
        dropped = sorted(e.span for e in ends if e.status == "drop")
        return survived, dropped, tr.stats, sim.events_executed

    def test_seeded_drop_sequence_matches_a_delayed_message(self, gnutella):
        pings, ping_drops, ping_stats, ping_events = self._fates(
            gnutella, lambda tr: tr.send_pings(0, (1,) * 200, 7, trace_id=1, span_id=0))
        notes, note_drops, note_stats, note_events = self._fates(gnutella, lambda tr: [
            tr.send(Notify(src=0, dst=1, xid=i, commit=False, trace_id=1, span_id=i))
            for i in range(200)])
        assert pings == notes  # the same messages survive, draw for draw
        assert ping_drops == note_drops and sorted(pings + ping_drops) == list(range(200))
        assert ping_stats.drop_reasons == note_stats.drop_reasons
        assert ping_stats.total_dropped == note_stats.total_dropped > 0
        assert ping_stats.total_delivered == len(pings) == 200 - ping_stats.total_dropped
        assert (ping_events, note_events) == (1, len(notes))  # one batch, per-note events

    def test_a_fan_out_books_like_ping_by_ping_sends(self, gnutella):
        """One ``send_pings`` over a partition and loss equals the same
        pings sent one by one: stats (the in-flight peak included),
        trace records and the events run."""
        runs = []
        for one_call in (True, False):
            tracer = Tracer()
            sim, tr = _faulty(gnutella, tracer, loss=0.4, jitter_ms=5.0)
            tr.partition("a:b", {0, 1, 2}, {3, 4, 5})
            dsts = (1, 3, 2, 4, 1, 5, 2, 2, 1, 0)
            if one_call:
                tr.send_pings(0, dsts, 4, trace_id=2, span_id=20, parent_id=9)
            else:
                for i, dst in enumerate(dsts):
                    tr.send(VarProbe(src=0, dst=dst, cycle=4, trace_id=2, span_id=20 + i,
                                     parent_id=9))
            sim.run()
            runs.append((tr.stats, tracer.events, sim.events_executed))
        assert runs[0] == runs[1]
        stats = runs[0][0]
        assert stats.drop_reasons["partition"] == 3 and stats.drop_reasons["loss"] > 0

    def test_partition_drops_pings_and_counts_them(self, gnutella):
        sim, tr = _faulty(gnutella)
        tr.partition("a:b", {0, 1}, {2, 3})
        tr.send(_ping(0, 2))
        tr.send(_ping(3, 1))
        tr.send(_ping(0, 1))  # same side: unaffected
        tr.send(_ping(2, 3))
        sim.run()
        assert tr.stats.drop_reasons["partition"] == 2
        assert tr.stats.dropped["VAR_PROBE"] == 2
        assert tr.stats.delivered["VAR_PROBE"] == 2
        assert sim.events_executed == 1  # the survivors' batch


class TestPartitions:
    def test_partition_severs_both_directions(self, gnutella):
        sim, tr = _faulty(gnutella)
        tr.partition("a:b", {0, 1}, {2, 3})
        tr.send(_ping(0, 2))
        tr.send(_ping(3, 1))
        tr.send(_ping(0, 1))  # same side: unaffected
        sim.run()
        assert tr.stats.drop_reasons["partition"] == 2
        assert tr.stats.total_delivered == 1

    def test_heal_restores_links(self, gnutella):
        sim, tr = _faulty(gnutella)
        tr.partition("a:b", {0}, {1})
        tr.heal("a:b")
        tr.send(_ping(0, 1))
        sim.run()
        assert tr.stats.total_dropped == 0
        tr.heal("never-existed")  # no-op

    def test_overlapping_groups_rejected(self, gnutella):
        _, tr = _faulty(gnutella)
        with pytest.raises(ValueError):
            tr.partition("bad", {0, 1}, {1, 2})


class TestPartitionSpec:
    def test_parse_plain(self):
        spec = PartitionSpec.parse("east:west")
        assert spec.name == "east:west"
        assert spec.start is None and spec.end is None

    def test_parse_with_window(self):
        spec = PartitionSpec.parse("a:b@120-300")
        assert (spec.start, spec.end) == (120.0, 300.0)

    @pytest.mark.parametrize("bad", ["a", "a:", ":b", "a:b:c", "a:b@x-y", "a:b@300-120"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            PartitionSpec.parse(bad)

    def test_groups_are_contiguous_halves(self):
        a, b = PartitionSpec.parse("a:b").groups(10)
        assert a == frozenset(range(5))
        assert b == frozenset(range(5, 10))

    def test_install_with_window_schedules_and_heals(self, gnutella):
        sim, tr = _faulty(gnutella)
        PartitionSpec.parse("a:b@10-20").install(tr, sim, 64)
        assert tr.partitions == {}
        sim.run_until(15.0)
        assert "a:b" in tr.partitions
        sim.run_until(25.0)
        assert tr.partitions == {}

    def test_install_without_window_applies_now(self, gnutella):
        sim, tr = _faulty(gnutella)
        PartitionSpec.parse("a:b").install(tr, sim, 64)
        assert "a:b" in tr.partitions
