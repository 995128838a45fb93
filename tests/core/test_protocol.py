"""PROP engine: phases, timers, optimization progress, churn handling."""

import numpy as np
import pytest

from repro.core.config import PROPConfig
from repro.core.neighbor_queue import NeighborQueue
from repro.core.protocol import NodeState, PROPEngine
from repro.core.timer_policy import MarkovTimer
from repro.net.engine import MessagePROPEngine
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry


def _engine(overlay, policy="G", sim=None, **cfg_kwargs):
    sim = sim or Simulator()
    cfg = PROPConfig(policy=policy, **cfg_kwargs)
    eng = PROPEngine(overlay, cfg, sim, RngRegistry(11))
    return eng, sim


class TestLifecycle:
    def test_start_schedules_all_nodes(self, gnutella):
        eng, sim = _engine(gnutella)
        eng.start()
        assert len(sim.queue) == gnutella.n_slots

    def test_double_start_rejected(self, gnutella):
        eng, _ = _engine(gnutella)
        eng.start()
        with pytest.raises(RuntimeError):
            eng.start()

    def test_m_defaults_to_min_degree(self, gnutella):
        eng, _ = _engine(gnutella, policy="O")
        assert eng.m == gnutella.min_degree()

    def test_m_explicit(self, gnutella):
        eng, _ = _engine(gnutella, policy="O", m=2)
        assert eng.m == 2


def _isolate(overlay, slot):
    for w in overlay.neighbor_list(slot):
        overlay.remove_edge(slot, w)


def _inline_driver(overlay, cfg, sim):
    return PROPEngine(overlay, cfg, sim, RngRegistry(11))


def _message_driver(overlay, cfg, sim):
    return MessagePROPEngine(overlay, cfg, sim, RngRegistry(11), SimTransport(sim, overlay))


@pytest.mark.parametrize("driver", [_inline_driver, _message_driver],
                         ids=["inline", "message"])
class TestDefaultExchangeSizeOnIsolatedSlot:
    """Regression: with an isolated slot the PROP-O default m = δ(G) is
    0, and the first compatible probe used to raise ``m must be >= 1``
    out of ``sim.run_until``.  Now the constructor rejects it."""

    def test_prop_o_default_m_zero_rejected_at_construction(self, gnutella, driver):
        _isolate(gnutella, 0)
        with pytest.raises(ValueError, match=r"δ\(G\) is 0.*PROPConfig\(m="):
            driver(gnutella, PROPConfig(policy="O"), Simulator())

    def test_explicit_m_runs_with_an_isolated_slot(self, gnutella, driver):
        _isolate(gnutella, 0)
        sim = Simulator()
        eng = driver(gnutella, PROPConfig(policy="O", m=1), sim)
        eng.start()
        sim.run_until(600.0)
        assert eng.counters.exchanges > 0

    def test_prop_g_never_needs_m(self, gnutella, driver):
        _isolate(gnutella, 0)
        sim = Simulator()
        eng = driver(gnutella, PROPConfig(policy="G"), sim)
        eng.start()
        sim.run_until(600.0)
        assert eng.counters.exchanges > 0


class TestOptimization:
    def test_prop_g_reduces_total_latency(self, gnutella):
        before = gnutella.total_neighbor_latency()
        eng, sim = _engine(gnutella, policy="G")
        eng.start()
        sim.run_until(1200.0)
        assert eng.counters.exchanges > 0
        assert gnutella.total_neighbor_latency() < before

    def test_prop_o_reduces_total_latency(self, gnutella):
        before = gnutella.total_neighbor_latency()
        eng, sim = _engine(gnutella, policy="O")
        eng.start()
        sim.run_until(1200.0)
        assert eng.counters.exchanges > 0
        assert gnutella.total_neighbor_latency() < before

    def test_prop_g_on_chord(self, chord):
        before = chord.total_neighbor_latency()
        eng, sim = _engine(chord, policy="G")
        eng.start()
        sim.run_until(1200.0)
        assert eng.counters.exchanges > 0
        assert chord.total_neighbor_latency() < before

    def test_connectivity_maintained(self, gnutella):
        eng, sim = _engine(gnutella, policy="O")
        eng.start()
        sim.run_until(1800.0)
        assert gnutella.is_connected()

    def test_prop_o_preserves_degree_sequence(self, gnutella):
        deg = np.sort(gnutella.degree_sequence()).copy()
        per_slot = gnutella.degree_sequence().copy()
        eng, sim = _engine(gnutella, policy="O")
        eng.start()
        sim.run_until(1800.0)
        assert np.array_equal(gnutella.degree_sequence(), per_slot)
        assert np.array_equal(np.sort(gnutella.degree_sequence()), deg)

    def test_random_probe_mode(self, gnutella):
        before = gnutella.total_neighbor_latency()
        eng, sim = _engine(gnutella, policy="G", random_probe=True)
        eng.start()
        sim.run_until(1200.0)
        assert gnutella.total_neighbor_latency() < before

    def test_accepted_exchanges_have_positive_var(self, gnutella):
        eng, sim = _engine(gnutella, policy="G", min_var=0.0)
        eng.start()
        sim.run_until(600.0)
        # every accepted exchange logged a Var above threshold; total
        # latency sum decreased monotonically by construction
        accepted = [v for v in eng.counters.var_history if v > 0.0]
        assert len(accepted) >= eng.counters.exchanges > 0

    def test_high_min_var_blocks_everything(self, gnutella):
        eng, sim = _engine(gnutella, policy="G", min_var=1e12)
        eng.start()
        sim.run_until(1200.0)
        assert eng.counters.exchanges == 0


class TestMessageAccounting:
    def test_probe_and_walk_counts(self, gnutella):
        eng, sim = _engine(gnutella, policy="G", nhops=2)
        eng.start()
        sim.run_until(300.0)
        c = eng.counters
        assert c.probes > 0
        # each walk is at most nhops messages, at least 1
        assert c.probes <= c.walk_messages <= 2 * c.probes

    def test_prop_o_collect_is_2m_per_probe(self, gnutella):
        eng, sim = _engine(gnutella, policy="O", m=2)
        eng.start()
        sim.run_until(300.0)
        c = eng.counters
        assert c.collect_messages == 4 * c.probes

    def test_notify_only_on_exchange(self, gnutella):
        eng, sim = _engine(gnutella, policy="G", min_var=1e12)
        eng.start()
        sim.run_until(300.0)
        assert eng.counters.notify_messages == 0

    def test_messages_per_probe(self, gnutella):
        eng, sim = _engine(gnutella, policy="O", m=1)
        eng.start()
        sim.run_until(300.0)
        assert eng.counters.total_messages / eng.counters.probes > 0


class TestTimerDynamics:
    def test_probe_rate_decays_after_convergence(self, gnutella):
        """Markov timer: once no exchanges succeed, probing slows down."""
        eng, sim = _engine(gnutella, policy="G", init_timer=60.0)
        eng.start()
        sim.run_until(1800.0)
        early = eng.counters.probes
        sim.run_until(3600.0)
        mid = eng.counters.probes - early
        sim.run_until(5400.0)
        late = eng.counters.probes - early - mid
        # warm-up window probes at full rate; converged windows are slower
        n = gnutella.n_slots
        full_rate_window = 1800.0 / 60.0 * n
        assert early <= full_rate_window + n
        assert late < early

    def test_warmup_length_respected(self, gnutella):
        eng, sim = _engine(gnutella, policy="G", max_init_trial=5, init_timer=60.0)
        eng.start()
        sim.run_until(8 * 60.0)
        phases = [s.phase for s in eng.nodes]
        assert all(p == 1 for p in phases)  # all in maintenance by now


def _state(init=60.0, cap=240.0):
    return NodeState(queue=NeighborQueue([1, 2], np.random.default_rng(0)),
                     timer=MarkovTimer(init, cap))


class TestNodeStateTransition:
    """The §3.2 phase/timer rule on its own — no engine, no overlay.
    Each row: (max_init_trial, cycle outcomes, expected delays, final phase)."""

    @pytest.mark.parametrize("max_init_trial,outcomes,delays,phase", [
        # warm-up probes at INIT_TIMER whatever the outcome, for exactly
        # max_init_trial cycles
        (3, [False, False], [60.0, 60.0], 0),
        (3, [False, True, False], [60.0, 60.0, 60.0], 1),
        (1, [True], [60.0], 1),
        # maintenance: double on failure, reset on success
        (1, [False, False, False, True, False], [60.0, 120.0, 240.0, 60.0, 120.0], 1),
        # the cap period is served once, then the timer wraps to INIT_TIMER
        (1, [False] * 5, [60.0, 120.0, 240.0, 60.0, 120.0], 1),
        # an exchange on the *final* warm-up trial is a warm-up exchange:
        # the timer it resets is the one maintenance then starts from
        (2, [False, True, False], [60.0, 60.0, 120.0], 1),
    ])
    def test_delays_and_phase(self, max_init_trial, outcomes, delays, phase):
        state = _state()
        got = [state.next_delay(ok, max_init_trial) for ok in outcomes]
        assert got == delays
        assert state.phase == phase
        assert state.trials == min(len(outcomes), max_init_trial)

    def test_warmup_failures_do_not_back_off(self):
        state = _state()
        for _ in range(4):
            state.next_delay(False, 5)
        assert state.timer.value == 60.0

    def test_churn_resets_a_backed_off_timer(self):
        state = _state()
        for _ in range(3):
            state.next_delay(False, 1)
        assert state.timer.value == 240.0
        state.timer.on_churn()  # what notify_membership_change does
        assert state.next_delay(False, 1) == 120.0
        assert state.phase == 1  # churn nearby does not restart warm-up


class TestChurn:
    def test_reset_slot_restarts_warmup(self, gnutella):
        eng, sim = _engine(gnutella, policy="G")
        eng.start()
        sim.run_until(1200.0)
        eng.reset_slot(3)
        st = eng.nodes[3]
        assert st.phase == 0
        assert st.trials == 0
        assert st.timer.value == eng.config.init_timer

    def test_reset_slot_notifies_neighbors(self, gnutella):
        eng, sim = _engine(gnutella, policy="G")
        eng.start()
        sim.run_until(1200.0)
        nbr = next(iter(gnutella.neighbors(3)))
        eng.nodes[nbr].timer.on_failure()
        assert eng.nodes[nbr].timer.value > eng.config.init_timer
        eng.reset_slot(3)
        assert eng.nodes[nbr].timer.value == eng.config.init_timer
        # the churned slot sits at the front of the neighbor's queue
        assert eng.nodes[nbr].queue.select() == 3

    def test_notify_membership_change_syncs_queue(self, gnutella):
        eng, _ = _engine(gnutella, policy="G")
        state = eng.nodes[0]
        # an edge change the engine did not make itself (e.g. churn rewire)
        victim = next(iter(gnutella.neighbors(0)))
        other = next(x for x in range(1, gnutella.n_slots) if not gnutella.has_edge(0, x))
        gnutella.remove_edge(0, victim)
        gnutella.add_edge(0, other)
        eng.notify_membership_change(0, [other])
        assert sorted(state.queue.snapshot()) == sorted(gnutella.neighbor_list(0))
        assert state.queue.select() == other  # new neighbor probed first


class TestApplicabilityMatrix:
    """PROP-O must refuse structure-derived overlays (their edges encode
    routing state); PROP-G runs anywhere — the paper's applicability
    matrix, enforced at deployment time."""

    def test_prop_o_rejected_on_chord(self, chord):
        with pytest.raises(ValueError):
            _engine(chord, policy="O")

    def test_prop_g_accepted_on_chord(self, chord):
        eng, _ = _engine(chord, policy="G")
        assert eng.config.policy == "G"

    def test_prop_o_accepted_on_gnutella(self, gnutella):
        eng, _ = _engine(gnutella, policy="O")
        assert eng.config.policy == "O"


class TestExchangeLog:
    def test_records_every_exchange(self, gnutella):
        eng, sim = _engine(gnutella, policy="G")
        eng.start()
        sim.run_until(900.0)
        log = eng.counters.exchange_log
        assert len(log) == eng.counters.exchanges > 0
        for rec in log:
            assert rec.policy == "G"
            assert rec.var > 0.0
            assert 0.0 <= rec.time <= 900.0
            assert rec.u != rec.v

    def test_log_times_monotone(self, gnutella):
        eng, sim = _engine(gnutella, policy="O")
        eng.start()
        sim.run_until(900.0)
        times = [r.time for r in eng.counters.exchange_log]
        assert times == sorted(times)

    def test_prop_o_traded_bounded_by_m(self, gnutella):
        eng, sim = _engine(gnutella, policy="O", m=2)
        eng.start()
        sim.run_until(900.0)
        assert all(1 <= r.traded <= 2 for r in eng.counters.exchange_log)
