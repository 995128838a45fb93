"""MessagePROPEngine: cycle mechanics and two-phase exchange safety.

These are targeted unit tests; the exhaustive any-fault-pattern
invariant check lives in ``tests/properties/test_fault_safety.py`` and
the inline-equivalence guarantee in
``tests/integration/test_net_bridge.py``.
"""

from math import inf, nan

import pytest

from repro.core.config import PROPConfig
from repro.net.engine import MessagePROPEngine, NetConfig
from repro.net import messages
from repro.net.messages import ExchangeCommit, Message, Notify, PingFanout, VarProbe
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry


#: Every concrete message class of the wire grammar.
GRAMMAR = {
    cls for cls in vars(messages).values()
    if isinstance(cls, type) and issubclass(cls, Message) and cls is not Message
}


class DropFirst:
    """Transport decorator dropping the first ``n`` messages of a type."""

    def __init__(self, inner, drop_type, n=1):
        self.inner = inner
        self.drop_type = drop_type
        self.remaining = n

    @property
    def stats(self):
        return self.inner.stats

    def register(self, slot, handler):
        self.inner.register(slot, handler)

    def send(self, msg, extra_delay_ms=0.0):
        if isinstance(msg, self.drop_type) and self.remaining > 0:
            self.remaining -= 1
            self.stats.record_send(msg.type_name, msg.size_bytes())
            self.stats.record_drop(msg.type_name, "test-drop")
            return
        self.inner.send(msg, extra_delay_ms=extra_delay_ms)

    def send_pings(self, src, dsts, cycle, **span):
        self.inner.send_pings(src, dsts, cycle, **span)


def _engine(overlay, *, policy="G", transport_wrap=None, net=None, **prop_kw):
    sim = Simulator()
    rngs = RngRegistry(7)
    transport = SimTransport(sim, overlay)
    if transport_wrap is not None:
        transport = transport_wrap(transport)
    config = PROPConfig(policy=policy, **prop_kw)
    engine = MessagePROPEngine(overlay, config, sim, rngs, transport, net=net)
    return engine, sim, transport


def _edge_set(overlay):
    return {
        (min(u, w), max(u, w))
        for u in range(overlay.n_slots)
        for w in overlay.neighbor_list(u)
    }


class TestNetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reply_timeout=0.0),
            dict(vote_timeout=-1.0),
            dict(prepared_timeout=0.0),
            dict(max_prepare_retries=-1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetConfig(**kwargs)

    @pytest.mark.parametrize("field", ["reply_timeout", "vote_timeout", "prepared_timeout"])
    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_non_finite_timeouts_rejected(self, field, value):
        # regression: NaN and inf used to construct, and the first probe
        # then raised inside sim.schedule in the middle of the run
        with pytest.raises(ValueError, match=field):
            NetConfig(**{field: value})

    def test_defaults_resolve_within_probe_period(self):
        net = NetConfig()
        assert net.reply_timeout < PROPConfig().init_timer
        assert net.prepared_timeout < PROPConfig().init_timer


class TestDispatchTable:
    def test_dispatch_is_total_over_the_grammar(self, gnutella):
        """Every concrete message class has a decision — a handler or an
        explicit ``None`` — and no entry names a class outside the
        grammar."""
        engine, _, _ = _engine(gnutella)
        assert set(engine._dispatch) == GRAMMAR
        assert {c.type_name for c in GRAMMAR} == set(messages.WIRE_TYPES)
        absorbed = [cls for cls, handler in engine._dispatch.items() if handler is None]
        assert absorbed == [VarProbe, PingFanout]

    def test_inert_classes_are_exactly_the_absorbed_ones(self, gnutella):
        """The transport batches ``inert`` messages on the promise that
        their delivery does nothing: the flag and the ``None`` entries
        must name the same classes."""
        engine, _, _ = _engine(gnutella)
        assert {cls for cls in GRAMMAR if cls.inert} == {
            cls for cls, handler in engine._dispatch.items() if handler is None}
        assert not Message.inert

    def test_message_class_without_an_entry_fails_loudly(self, gnutella):
        # the table is indexed, not .get(): a class added without a
        # decision fails in the first run that delivers it
        engine, _, _ = _engine(gnutella)
        with pytest.raises(KeyError):
            engine._on_message(Message(src=0, dst=1))


class TestFaultFreeOperation:
    def test_prop_g_exchanges_and_preserves_structure(self, gnutella):
        engine, sim, tr = _engine(gnutella, policy="G")
        edges = _edge_set(gnutella)
        hosts = sorted(gnutella.embedding.tolist())
        engine.start()
        sim.run_until(900.0)
        assert engine.counters.exchanges > 0
        # PROP-G swaps positions: logical graph untouched, embedding a
        # permutation of the original hosts (Theorem 2 by construction).
        assert _edge_set(gnutella) == edges
        assert sorted(gnutella.embedding.tolist()) == hosts
        assert not engine._prepared and not engine._cycles

    def test_prop_o_preserves_degree_multiset(self, gnutella):
        engine, sim, tr = _engine(gnutella, policy="O", m=2)
        degrees = sorted(gnutella.degree_sequence().tolist())
        engine.start()
        sim.run_until(900.0)
        assert engine.counters.exchanges > 0
        assert sorted(gnutella.degree_sequence().tolist()) == degrees

    def test_no_timeouts_without_faults(self, gnutella):
        engine, sim, _ = _engine(gnutella, policy="G")
        engine.start()
        sim.run_until(600.0)
        nc = engine.net_counters
        assert nc.walk_timeouts == 0
        assert nc.vote_timeouts == 0
        assert nc.prepared_timeouts == 0

    def test_control_traffic_not_in_legacy_counters(self, gnutella):
        engine, sim, tr = _engine(gnutella, policy="G")
        engine.start()
        sim.run_until(600.0)
        c = engine.counters
        assert tr.stats.sent["WALK"] == c.walk_messages
        assert (tr.stats.sent["VAR_PROBE"] + tr.stats.sent["VAR_REPLY"]
                == c.collect_messages)
        assert tr.stats.sent["NOTIFY"] == c.notify_messages
        assert tr.stats.sent["EXCHANGE_PREPARE"] >= c.exchanges


class TestTwoPhaseSafety:
    def test_lost_commit_vote_never_half_applies(self, gnutella):
        """Dropping the participant's yes-vote must leave the graph intact."""
        engine, sim, tr = _engine(
            gnutella, policy="G",
            transport_wrap=lambda t: DropFirst(t, ExchangeCommit, n=3),
            net=NetConfig(max_prepare_retries=0),
        )
        edges = _edge_set(gnutella)
        hosts = sorted(gnutella.embedding.tolist())
        engine.start()
        sim.run_until(1200.0)
        assert engine.net_counters.vote_timeouts >= 1
        assert _edge_set(gnutella) == edges
        assert sorted(gnutella.embedding.tolist()) == hosts
        assert not engine._prepared  # every lock released

    def test_prepare_retry_recovers_lost_vote(self, gnutella):
        """With retries enabled a lost vote only delays the exchange."""
        engine, sim, _ = _engine(
            gnutella, policy="G",
            transport_wrap=lambda t: DropFirst(t, ExchangeCommit, n=1),
            net=NetConfig(max_prepare_retries=2),
        )
        engine.start()
        sim.run_until(1200.0)
        assert engine.net_counters.prepare_retries >= 1
        assert engine.counters.exchanges > 0

    def test_lost_notify_lock_self_heals(self, gnutella):
        """A participant that never hears the outcome unlocks on timeout."""
        engine, sim, _ = _engine(
            gnutella, policy="G",
            transport_wrap=lambda t: DropFirst(t, Notify, n=50),
            net=NetConfig(prepared_timeout=15.0),
        )
        engine.start()
        sim.run_until(1200.0)
        assert engine.counters.exchanges > 0
        assert engine.net_counters.prepared_timeouts >= 1
        assert not engine._prepared

    def test_reset_slot_clears_inflight_state_and_keeps_probing(self, gnutella):
        engine, sim, _ = _engine(gnutella, policy="G")
        engine.start()
        sim.run_until(61.0)  # mid-flight: some cycle is usually open
        victim = next(iter(engine._cycles), 0)
        engine.reset_slot(victim)
        assert victim not in engine._cycles
        assert victim not in engine._prepared
        before = engine.counters.probes
        sim.run_until(400.0)
        assert engine.counters.probes > before
        assert not engine._prepared and not engine._cycles


class TestCounters:
    def test_var_history_grows_with_evaluated_cycles(self, gnutella):
        engine, sim, _ = _engine(gnutella, policy="G")
        engine.start()
        sim.run_until(600.0)
        assert len(engine.counters.var_history) > 0
        assert len(engine.counters.var_history) <= engine.counters.probes

    def test_exchange_log_records_commits(self, gnutella):
        engine, sim, _ = _engine(gnutella, policy="G")
        engine.start()
        sim.run_until(600.0)
        log = engine.counters.exchange_log
        assert len(log) == engine.counters.exchanges
        assert all(rec.var > 0 for rec in log)
