"""SimTransport delivery semantics and TransportStats bookkeeping."""

import dataclasses
from math import inf, nan

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, build_world
from repro.net.messages import Notify, VarProbe, Walk
from repro.net.transport import SimTransport, TransportStats
from repro.netsim.engine import Simulator
from repro.obs.events import MsgDeliverEvent, MsgSendEvent, SpanEndEvent, SpanStartEvent
from repro.obs.trace import Tracer
from repro.workloads.churn import ChurnConfig


def _transport(overlay, **kwargs):
    sim = Simulator()
    return sim, SimTransport(sim, overlay, **kwargs)


class TestDelivery:
    def test_delivers_after_oracle_latency(self, gnutella):
        sim, tr = _transport(gnutella)
        seen = []
        tr.register(1, seen.append)
        msg = Notify(src=0, dst=1, xid=1, commit=False)
        tr.send(msg)
        sim.run()
        assert seen == [msg]
        assert sim.now == pytest.approx(gnutella.latency(0, 1) * 1e-3)

    def test_latency_scale_zero_delivers_at_send_time_in_order(self, gnutella):
        sim, tr = _transport(gnutella, latency_scale=0.0)
        seen = []
        tr.register(1, seen.append)
        first = Notify(src=0, dst=1, xid=1, commit=False)
        second = Notify(src=2, dst=1, xid=2, commit=False)
        sim.schedule(5.0, tr.send, first)
        sim.schedule(5.0, tr.send, second)
        sim.run()
        assert seen == [first, second]  # insertion order at one timestamp
        assert sim.now == 5.0

    def test_extra_delay_is_added(self, gnutella):
        sim, tr = _transport(gnutella, latency_scale=0.0)
        tr.register(1, lambda m: None)
        tr.send(Notify(src=0, dst=1, xid=1, commit=False), extra_delay_ms=250.0)
        sim.run()
        assert sim.now == pytest.approx(0.25)

    def test_unregistered_destination_still_counts_delivery(self, gnutella):
        sim, tr = _transport(gnutella)
        tr.send(Notify(src=0, dst=1, xid=1, commit=False))
        sim.run()
        assert tr.stats.delivered["NOTIFY"] == 1

    def test_tap_runs_after_handler(self, gnutella):
        sim, tr = _transport(gnutella)
        order = []
        tr.register(1, lambda m: order.append("handler"))
        tr.tap = lambda m: order.append("tap")
        tr.send(Notify(src=0, dst=1, xid=1, commit=False))
        sim.run()
        assert order == ["handler", "tap"]

    def test_pings_reach_no_handler_and_no_tap(self, gnutella):
        """A ping changes nothing where it lands, so the simulated plane
        only counts it: by ``send_pings`` or by ``send``."""
        sim, tr = _transport(gnutella)
        calls = []
        tr.register(1, calls.append)
        tr.tap = calls.append
        tr.send_pings(0, (1, 1), cycle=3)
        tr.send(VarProbe(src=0, dst=1, cycle=4))
        sim.run()
        assert calls == []
        assert tr.stats.sent["VAR_PROBE"] == tr.stats.delivered["VAR_PROBE"] == 3

    def test_negative_latency_scale_rejected(self, gnutella):
        with pytest.raises(ValueError):
            _transport(gnutella, latency_scale=-1.0)

    @pytest.mark.parametrize("scale", [nan, inf])
    def test_non_finite_latency_scale_rejected(self, gnutella, scale):
        # regression: ``nan < 0`` is false, so NaN used to pass
        with pytest.raises(ValueError):
            _transport(gnutella, latency_scale=scale)


class TestStats:
    def test_send_deliver_accounting(self, gnutella):
        sim, tr = _transport(gnutella)
        tr.register(1, lambda m: None)
        walk = Walk(src=0, dst=1, origin=0, ttl=1, cycle=1, path=(0,))
        tr.send(walk)
        tr.send(VarProbe(src=0, dst=1, cycle=1))
        assert tr.stats.total_sent == 2
        assert tr.stats.in_flight == 2
        assert tr.stats.max_in_flight == 2
        assert tr.stats.bytes_sent == walk.size_bytes() + VarProbe(
            src=0, dst=1, cycle=1
        ).size_bytes()
        sim.run()
        assert tr.stats.total_delivered == 2
        assert tr.stats.in_flight == 0
        assert tr.stats.max_in_flight == 2

    def test_drop_accounting(self):
        stats = TransportStats()
        msg = VarProbe(src=0, dst=1, cycle=1)
        stats.record_send(msg.type_name, msg.size_bytes())
        stats.record_drop(msg.type_name, "loss")
        assert stats.total_dropped == 1
        assert stats.drop_reasons["loss"] == 1
        assert stats.in_flight == 0

    def test_a_counted_send_equals_as_many_single_sends(self):
        one, many = TransportStats(), TransportStats()
        for _ in range(4):
            one.record_send("VAR_PROBE", 32)
        many.record_send("VAR_PROBE", 32, 4)
        assert one == many
        one.record_delivery("VAR_PROBE")
        many.record_delivery("VAR_PROBE", 1)
        assert one == many and many.in_flight == 3 and many.max_in_flight == 4


def _traced(overlay, **kwargs):
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    return sim, SimTransport(sim, overlay, tracer=tracer, **kwargs), tracer


def _delivered(tracer):
    """``(time, dst, tag)`` of every ``MSG_DELIVER`` record, in order."""
    return [(e.time, e.dst, e.tag) for e in tracer.events if isinstance(e, MsgDeliverEvent)]


class TestInertBatch:
    """A ping fan-out is booked at send, and every fan-out of one instant
    is delivered by one batch event; the pings are seen through the stats
    and the trace records, since no handler runs for them."""

    def test_k_pings_in_one_callback_make_one_event(self, gnutella):
        sim, tr = _transport(gnutella)
        sim.schedule(1.0, tr.send_pings, 0, (1, 2, 3, 4, 5), 1)
        assert sim.queue.pushes == 1
        sim.run()
        assert sim.queue.pushes == 2  # the callback, then one batch
        assert sim.events_executed == 2
        assert sim.now == 1.0  # delivered in the instant they were sent
        assert tr.stats.delivered["VAR_PROBE"] == 5

    def test_one_instant_shares_a_batch_and_the_next_opens_one(self, gnutella):
        sim, tr, tracer = _traced(gnutella)
        sim.schedule(1.0, tr.send_pings, 0, (1, 2), 0)
        sim.schedule(1.0, tr.send_pings, 0, (3, 4), 1)
        sim.schedule(2.0, tr.send_pings, 0, (5, 6), 2)
        sim.run()
        assert sim.events_executed == 5  # three senders, two batches
        assert _delivered(tracer) == [(1.0, 1, 0), (1.0, 2, 0), (1.0, 3, 1), (1.0, 4, 1),
                                      (2.0, 5, 2), (2.0, 6, 2)]

    def test_each_ping_delivered_once_in_send_order_after_the_sender(self, gnutella):
        sim, tr, tracer = _traced(gnutella)
        dsts = (5, 3, 8, 1, 3)

        def sender():
            tr.send_pings(0, dsts, 7)
            assert _delivered(tracer) == []  # never delivered inside send_pings
            assert tr.stats.delivered["VAR_PROBE"] == 0

        sim.schedule(0.5, sender)
        sim.run()
        assert _delivered(tracer) == [(0.5, d, 7) for d in dsts]
        sends = [(e.src, e.dst, e.tag) for e in tracer.events if isinstance(e, MsgSendEvent)]
        assert sends == [(0, d, 7) for d in dsts]

    def test_non_inert_messages_keep_their_latency(self, gnutella):
        sim, tr, tracer = _traced(gnutella)
        seen = []
        tr.register(1, lambda m: seen.append((m.type_name, sim.now)))
        walk = Walk(src=0, dst=1, origin=0, ttl=1, cycle=1, path=(0,))
        sim.schedule(1.0, lambda: (tr.send(walk), tr.send_pings(0, (1,), 1)))
        sim.run()
        assert seen == [("WALK", pytest.approx(1.0 + gnutella.latency(0, 1) * 1e-3))]
        assert [(e.mtype, e.time) for e in tracer.events if isinstance(e, MsgDeliverEvent)] == [
            ("VAR_PROBE", 1.0), ("WALK", pytest.approx(1.0 + gnutella.latency(0, 1) * 1e-3))]

    def test_counters_equal_the_per_ping_totals(self, gnutella):
        sim, tr = _transport(gnutella)
        sim.schedule(1.0, tr.send_pings, 0, (1, 2, 3), 1)
        sim.schedule(1.0, tr.send_pings, 4, (5, 6, 7, 8), 1)
        sim.schedule(1.0, tr.send_pings, 4, (), 1)  # an empty fan-out books nothing
        sim.run_until(1.0)  # all delivered, and counted, within the instant
        assert tr.stats.sent["VAR_PROBE"] == 7
        assert tr.stats.delivered["VAR_PROBE"] == 7
        assert tr.stats.bytes_sent == 7 * VarProbe(src=0, dst=1, cycle=1).size_bytes()
        assert tr.stats.in_flight == 0
        assert tr.stats.max_in_flight == 7
        assert sim.events_executed == 4  # three senders, one batch

    def test_a_traced_fan_out_records_every_ping_with_its_own_span(self, gnutella):
        sim, tr, tracer = _traced(gnutella)
        sim.schedule(1.0, lambda: tr.send_pings(2, (4, 6, 9), 5, trace_id=3, span_id=10,
                                                 parent_id=1))
        sim.run()
        starts = [(e.span, e.parent, e.name, e.node) for e in tracer.events
                  if isinstance(e, SpanStartEvent)]
        assert starts == [(s, 1, "msg:VAR_PROBE", 2) for s in (10, 11, 12)]
        ends = [(e.trace, e.span, e.status) for e in tracer.events if isinstance(e, SpanEndEvent)]
        assert ends == [(3, s, "ok") for s in (10, 11, 12)]
        # per ping: MSG_SEND then its span's open; MSG_DELIVER then its close
        kinds = [type(e).__name__ for e in tracer.events]
        assert kinds == ["MsgSendEvent", "SpanStartEvent"] * 3 + [
            "MsgDeliverEvent", "SpanEndEvent"] * 3

    def test_sending_a_ping_message_is_a_fan_out_of_one(self, gnutella):
        runs = []
        for via_send in (True, False):
            sim, tr, tracer = _traced(gnutella)
            for i, dst in enumerate((1, 2, 3)):
                if via_send:
                    tr.send(VarProbe(src=0, dst=dst, cycle=9, trace_id=1, span_id=5 + i,
                                     parent_id=4))
                else:
                    tr.send_pings(0, (dst,), 9, trace_id=1, span_id=5 + i, parent_id=4)
            sim.run()
            runs.append((sim.events_executed, tr.stats, tracer.events))
        assert runs[0] == runs[1]

    @staticmethod
    def _outcome(config):
        """What a run is, beyond timing: everything a faster ping path
        must leave as it was."""
        world = build_world(config)
        world.sim.run_until(config.duration)
        stats, engine = world.transport.stats, world.engine
        return dict(
            events=world.sim.events_executed,
            sent=dict(stats.sent), delivered=dict(stats.delivered),
            dropped=dict(stats.dropped), drop_reasons=dict(stats.drop_reasons),
            bytes_sent=stats.bytes_sent, max_in_flight=stats.max_in_flight,
            counters=dataclasses.asdict(engine.counters),
            net_counters=dataclasses.asdict(engine.net_counters),
            embedding=world.overlay.embedding.tolist(),
        )

    def test_traced_and_untraced_runs_execute_the_same_events(self):
        clean = ExperimentConfig(
            preset="ts-small", n_overlay=48, prop=PROPConfig(policy="G", nhops=2),
            transport="sim", duration=600.0, sample_interval=600.0,
            lookups_per_sample=0,
        )
        # the fault decorator's fan-out: per-ping draws, survivors in runs
        faulty = clean.but(
            n_spare=12, prop=PROPConfig(policy="O", nhops=2), loss=0.1,
            net_jitter_ms=20.0, reorder_prob=0.05,
            churn=ChurnConfig(rate_per_node=1 / 600),
        )
        for config in (clean, faulty):
            untraced, traced = (self._outcome(config.but(trace=t)) for t in (False, True))
            assert untraced == traced
            sent = untraced["sent"]
            assert sent["VAR_PROBE"] > 0 and untraced["events"] < sum(sent.values())
        assert untraced["dropped"]["VAR_PROBE"] > 0 and untraced["counters"]["exchanges"] > 0
