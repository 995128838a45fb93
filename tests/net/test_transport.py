"""SimTransport delivery semantics and TransportStats bookkeeping."""

from math import inf, nan

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, build_world
from repro.net.messages import Notify, VarProbe, Walk
from repro.net.transport import SimTransport, TransportStats
from repro.netsim.engine import Simulator


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
        first = VarProbe(src=0, dst=1, cycle=1)
        second = VarProbe(src=2, dst=1, cycle=2)
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
        tr.send(VarProbe(src=0, dst=1, cycle=1))
        sim.run()
        assert tr.stats.delivered["VAR_PROBE"] == 1

    def test_tap_runs_after_handler(self, gnutella):
        sim, tr = _transport(gnutella)
        order = []
        tr.register(1, lambda m: order.append("handler"))
        tr.tap = lambda m: order.append("tap")
        tr.send(VarProbe(src=0, dst=1, cycle=1))
        sim.run()
        assert order == ["handler", "tap"]

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
        stats.record_send(msg)
        stats.record_drop(msg, "loss")
        assert stats.total_dropped == 1
        assert stats.drop_reasons["loss"] == 1
        assert stats.in_flight == 0


class TestInertBatch:
    """Inert messages sent at one instant share one delivery event."""

    @staticmethod
    def _pings(k, src=0):
        return [VarProbe(src=src, dst=1 + i, cycle=i) for i in range(k)]

    def test_k_pings_in_one_callback_make_one_event(self, gnutella):
        sim, tr = _transport(gnutella)
        sim.schedule(1.0, lambda: [tr.send(p) for p in self._pings(5)])
        assert sim.queue.pushes == 1
        sim.run()
        assert sim.queue.pushes == 2  # the callback, then one batch
        assert sim.events_executed == 2
        assert sim.now == 1.0  # delivered in the instant they were sent

    def test_one_instant_shares_a_batch_and_the_next_opens_one(self, gnutella):
        sim, tr = _transport(gnutella)
        seen = []
        for slot in range(1, 7):
            tr.register(slot, lambda m: seen.append((sim.now, m.cycle)))

        def send(pings):
            for p in pings:
                tr.send(p)

        pings = self._pings(6)
        sim.schedule(1.0, send, pings[:2])
        sim.schedule(1.0, send, pings[2:4])
        sim.schedule(2.0, send, pings[4:])
        sim.run()
        assert sim.events_executed == 5  # three senders, two batches
        assert seen == [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (2.0, 4), (2.0, 5)]

    def test_each_ping_delivered_once_in_send_order_after_the_sender(self, gnutella):
        sim, tr = _transport(gnutella)
        returned = []
        seen = []
        for slot in range(1, 9):
            tr.register(slot, lambda m: seen.append((m.cycle, bool(returned))))

        def sender():
            for p in self._pings(8):
                tr.send(p)
            assert seen == []  # never delivered inside send
            returned.append(True)

        sim.schedule(0.5, sender)
        sim.run()
        assert seen == [(i, True) for i in range(8)]

    def test_non_inert_messages_keep_their_latency(self, gnutella):
        sim, tr = _transport(gnutella)
        seen = []
        tr.register(1, lambda m: seen.append((m.type_name, sim.now)))
        walk = Walk(src=0, dst=1, origin=0, ttl=1, cycle=1, path=(0,))
        sim.schedule(1.0, lambda: (tr.send(walk), tr.send(VarProbe(src=0, dst=1, cycle=1))))
        sim.run()
        assert seen == [("VAR_PROBE", 1.0),
                        ("WALK", pytest.approx(1.0 + gnutella.latency(0, 1) * 1e-3))]

    def test_counters_equal_the_per_ping_totals(self, gnutella):
        sim, tr = _transport(gnutella)
        pings = self._pings(7)
        sim.schedule(1.0, lambda: [tr.send(p) for p in pings])
        sim.run_until(1.0)  # all delivered, and counted, within the instant
        assert tr.stats.sent["VAR_PROBE"] == 7
        assert tr.stats.delivered["VAR_PROBE"] == 7
        assert tr.stats.bytes_sent == sum(p.size_bytes() for p in pings)
        assert tr.stats.in_flight == 0
        assert tr.stats.max_in_flight == 7

    def test_traced_and_untraced_runs_execute_the_same_events(self):
        config = ExperimentConfig(
            preset="ts-small", n_overlay=48, prop=PROPConfig(policy="G", nhops=2),
            transport="sim", duration=600.0, sample_interval=600.0,
            lookups_per_sample=0,
        )
        runs = []
        for trace in (False, True):
            world = build_world(config.but(trace=trace))
            world.sim.run_until(config.duration)
            stats = world.transport.stats
            runs.append((world.sim.events_executed, dict(stats.sent), dict(stats.delivered)))
        assert runs[0] == runs[1]
        events, sent, _ = runs[0]
        assert sent["VAR_PROBE"] > 0 and events < sum(sent.values())
