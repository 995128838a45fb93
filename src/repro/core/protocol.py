"""The PROP protocol engine.

Drives the per-node state machine of Section 3.2 on top of the
discrete-event simulator:

* Every node joins, runs a **warm-up** of ``MAX_INIT_TRIAL`` probe cycles
  at the fixed ``INIT_TIMER`` period, then enters **maintenance** where
  the probe period follows the Markov-chain timer (double on failure,
  reset on success or at the cap).
* A probe cycle at node ``u``: pick the first hop ``s`` from the
  neighborQ, random-walk ``nhops`` hops to the candidate ``v``, evaluate
  Var for the configured policy, and execute the exchange when
  ``Var > MIN_VAR``.  Queue and timer are updated by the outcome.
* Churn notifications (:meth:`PROPEngine.notify_membership_change`)
  reset the timer and push the new neighbor to the queue front.

Message accounting matches the Section 4.3 model: each probe cycle costs
``nhops`` walk messages plus the information-collection messages (``c_u +
c_v`` latency probes for PROP-G, ``2 m`` for PROP-O), and a successful
exchange additionally notifies every affected routing-table holder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import PROPConfig
from repro.core.exchange import execute_prop_g, execute_prop_o
from repro.core.neighbor_queue import NeighborQueue
from repro.core.timer_policy import MarkovTimer
from repro.core.varcalc import evaluate_prop_g, select_prop_o
from repro.core.walk import random_walk
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.obs.events import ExchangeCommitEvent, ProbeEvent, VarCollectEvent
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.overlay.base import Overlay

__all__ = ["PROPEngine", "ProtocolCounters", "NodeState"]

_WARMUP = 0
_MAINTENANCE = 1


@dataclass(frozen=True)
class ExchangeRecord:
    """One executed peer-exchange, for trace analysis."""

    time: float
    u: int
    v: int
    var: float
    policy: str
    traded: int  # neighbors moved per side (deg for G, m' for O)


@dataclass
class ProtocolCounters:
    """Message and outcome tallies for the overhead analysis (§4.3)."""

    probes: int = 0
    exchanges: int = 0
    walk_messages: int = 0
    collect_messages: int = 0
    notify_messages: int = 0
    var_history: list[float] = field(default_factory=list)
    exchange_log: list[ExchangeRecord] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return self.walk_messages + self.collect_messages + self.notify_messages


@dataclass
class NodeState:
    """Per-slot protocol state."""

    queue: NeighborQueue
    timer: MarkovTimer
    phase: int = _WARMUP
    trials: int = 0

    def next_delay(self, success: bool, max_init_trial: int) -> float:
        """The §3.2 phase/timer transition closing one probe cycle.

        Warm-up probes at the fixed ``INIT_TIMER`` period for
        ``max_init_trial`` cycles (an exchange on the final warm-up trial
        is still a warm-up exchange: the phase flips after it is
        counted); maintenance follows the Markov timer.  Returns the
        delay to the node's next probe.
        """
        timer = self.timer
        if self.phase == _WARMUP:
            self.trials += 1
            if success:
                timer.on_success()
            if self.trials >= max_init_trial:
                self.phase = _MAINTENANCE
            return timer.init
        return timer.on_success() if success else timer.on_failure()


class PROPEngine:
    """Event-driven PROP deployment over one overlay.

    Parameters
    ----------
    overlay:
        The overlay to optimize (mutated in place).
    config:
        Protocol parameters; ``config.policy`` selects PROP-G or PROP-O.
    sim:
        The discrete-event simulator to schedule probe cycles on.
    rngs:
        Registry supplying the engine's random streams.
    jitter:
        Nodes start their first probe uniformly inside
        ``[0, jitter * init_timer)`` to avoid a synchronized thundering
        herd (real deployments join at different times).
    tracer:
        Event sink for the observability plane; defaults to the
        zero-cost :data:`~repro.obs.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        overlay: Overlay,
        config: PROPConfig,
        sim: Simulator,
        rngs: RngRegistry,
        *,
        jitter: float = 1.0,
        tracer: TracerLike | None = None,
    ) -> None:
        if config.policy == "O" and not overlay.supports_rewiring:
            raise ValueError(
                "PROP-O rewires logical edges, which would corrupt a "
                f"structure-derived overlay ({type(overlay).__name__}); "
                "deploy PROP-G on structured overlays (the paper's "
                "applicability matrix)"
            )
        #: Effective PROP-O exchange size: ``config.m`` or δ(G) at start.
        self.m: int = config.m if config.m is not None else int(overlay.min_degree())
        if config.policy == "O" and self.m < 1:
            raise ValueError(
                "PROP-O's default exchange size m = δ(G) is 0 on this overlay "
                "(it has an isolated slot); set PROPConfig(m=...) explicitly"
            )
        self.overlay = overlay
        self.config = config
        self.sim = sim
        self.rng = rngs.stream("prop:engine")
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.counters = ProtocolCounters()
        self.nodes: list[NodeState] = [
            self._fresh_state(slot) for slot in range(overlay.n_slots)
        ]
        self._jitter = max(0.0, jitter)
        self._started = False

    def _fresh_state(self, slot: int) -> NodeState:
        """A joining node: shuffled neighborQ, INIT_TIMER, warm-up."""
        return NodeState(
            queue=NeighborQueue(self.overlay.sorted_neighbors(slot), self.rng),
            timer=MarkovTimer(self.config.init_timer, self.config.max_timer),
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Schedule the first probe of every node."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        for slot in range(self.overlay.n_slots):
            delay = float(self.rng.random()) * self._jitter * self.config.init_timer
            self.sim.post(delay, self._probe_cycle, slot)

    # -- the §3.2 rules both drivers share -----------------------------------

    def _random_candidate(self, u: int) -> int:
        """The ``random_probe`` ablation: a uniform slot other than ``u``."""
        v = int(self.rng.integers(0, self.overlay.n_slots - 1))
        return v + 1 if v >= u else v

    def _decide(
        self, u: int, v: int, path: Iterable[int]
    ) -> tuple[float, Sequence[int], Sequence[int], bool]:
        """The policy decision: ``(var, give_u, give_v, wants)``.

        PROP-G trades everything (empty give lists); PROP-O selects the
        lists, never touching the walk ``path`` (Theorem 1).  ``wants``
        is the ``Var > MIN_VAR`` test.
        """
        cfg = self.config
        if cfg.policy == "G":
            var = evaluate_prop_g(self.overlay, u, v)
            return var, (), (), var > cfg.min_var
        give_u, give_v, var = select_prop_o(
            self.overlay, u, v, self.m, forbidden=set(path),
            selection=cfg.selection, rng=self.rng,
        )
        return var, give_u, give_v, bool(give_u) and var > cfg.min_var

    def _apply_exchange(
        self, u: int, v: int, var: float, give_u: Sequence[int], give_v: Sequence[int]
    ) -> tuple[int, tuple[int, ...], int]:
        """Execute the decided exchange and record it.

        Returns ``(traded, affected, notified)``: neighbors moved per
        side, the routing-table holders that must hear about it (with
        repeats, in notification order) and the §4.3 notify count.
        """
        overlay = self.overlay
        if self.config.policy == "G":
            traded = max(overlay.degree(u), overlay.degree(v))
            notified = execute_prop_g(overlay, u, v)
            # u and v keep their *slot* neighbors, but those neighbors now
            # face different hosts: "notify their neighbors … and
            # recalculate the sums"
            affected = overlay.sorted_neighbors(u) + overlay.sorted_neighbors(v)
        else:
            traded = len(give_u)
            notified = execute_prop_o(overlay, u, v, give_u, give_v)
            affected = (*give_u, *give_v)
        self.counters.exchanges += 1
        self.counters.exchange_log.append(
            ExchangeRecord(time=self.sim.now, u=u, v=v, var=var,
                           policy=self.config.policy, traded=traded)
        )
        return traded, affected, notified

    # -- probe cycle (inline driver: the whole cycle at one instant) ---------

    def _probe_cycle(self, u: int) -> None:
        state = self.nodes[u]
        success = self._attempt_exchange(u, state)
        delay = state.next_delay(success, self.config.max_init_trial)
        self.sim.post(delay, self._probe_cycle, u)

    def _attempt_exchange(self, u: int, state: NodeState) -> bool:
        overlay = self.overlay
        cfg = self.config
        counters = self.counters
        tracing = self.tracer.enabled
        state.queue.sync(overlay.sorted_neighbors(u))
        if len(state.queue) == 0:
            return False
        s = state.queue.select()
        counters.probes += 1
        if tracing:
            self.tracer.emit(ProbeEvent, u=u, s=s, cycle=counters.probes)

        path: Sequence[int]
        if cfg.random_probe:
            v = self._random_candidate(u)
            path = (u, v)
        else:
            v, path = random_walk(overlay, u, s, cfg.nhops, self.rng)
        counters.walk_messages += len(path) - 1
        if not overlay.exchange_compatible(u, v, cfg.policy):
            state.queue.on_failure(s)
            return False

        # §4.3 information collection: c_u + c_v probes (G), 2m (O)
        counters.collect_messages += (
            overlay.degree(u) + overlay.degree(v) if cfg.policy == "G" else 2 * self.m
        )
        var, give_u, give_v, wants = self._decide(u, v, path)
        counters.var_history.append(var)
        if tracing:
            self.tracer.emit(VarCollectEvent, u=u, v=v, cycle=counters.probes,
                             var=float(var), policy=cfg.policy)
        if not wants:
            state.queue.on_failure(s)
            return False

        traded, affected, notified = self._apply_exchange(u, v, var, give_u, give_v)
        counters.notify_messages += notified
        if tracing:
            # inline engines commit instantaneously: no 2PC, xid=-1
            self.tracer.emit(ExchangeCommitEvent, xid=-1, u=u, v=v,
                             var=float(var), traded=traded)
        # resynchronize the queues of the pair and of every affected neighbor
        for w in (u, v, *sorted(set(affected) - {u, v})):
            self.nodes[w].queue.sync(overlay.sorted_neighbors(w))
        state.queue.on_success(s)
        # the counterpart also treats the exchange as its own success
        self.nodes[v].timer.on_success()
        return True

    # -- churn interface ---------------------------------------------------

    def notify_membership_change(self, slot: int, new_neighbors: list[int] | None = None) -> None:
        """A neighbor of ``slot`` was replaced (churn).

        Section 3.2: "the value of timer will be reset to INIT_TIMER and
        the new neighbors will be added into the front of neighborq with
        a maximum priority value".
        """
        state = self.nodes[slot]
        state.timer.on_churn()
        state.queue.sync(self.overlay.sorted_neighbors(slot))
        if new_neighbors:
            for s in new_neighbors:
                if self.overlay.has_edge(slot, s):
                    state.queue.on_new_neighbor(s)

    def reset_slot(self, slot: int) -> None:
        """A new host occupied ``slot`` (churn replacement): restart it."""
        self.nodes[slot] = self._fresh_state(slot)
        for w in self.overlay.sorted_neighbors(slot):
            self.notify_membership_change(w, [slot])
