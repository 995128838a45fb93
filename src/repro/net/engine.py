"""The Section 3.2 state machine as actual request/response exchanges.

:class:`MessagePROPEngine` runs PROP over a :class:`~repro.net.transport`
message plane instead of executing a probe cycle inline.  One cycle at
node ``u``:

1. ``u`` picks the first hop ``s`` from its neighborQ and launches a
   ``WALK`` (TTL ``nhops``); each forwarder appends itself and forwards
   to a random unvisited neighbor.
2. The walk terminal ``v`` pings its neighbors (``VAR_PROBE``, its half
   of the §4.3 information collection) and reports back with a
   ``VAR_REPLY`` carrying the path and its neighbor snapshot.
3. ``u`` pings its own half, evaluates Var (PROP-G swap or PROP-O
   selection), and — when ``Var > MIN_VAR`` — runs the **two-phase
   exchange commit**: ``EXCHANGE_PREPARE`` → participant validates
   against its *current* state, locks itself and votes
   ``EXCHANGE_COMMIT`` (or ``EXCHANGE_ABORT``) → the initiator alone
   applies the exchange and fans out ``NOTIFY`` to every affected
   routing-table holder, the participant's copy doubling as the commit
   confirmation that releases its lock.

Safety under arbitrary faults: the overlay mutates exactly once, inside
the initiator's commit handler, so a lost message can never leave ``u``
and ``v`` with half-swapped neighbor sets — the Theorem 1/2 invariants
(degree preservation, isomorphism) survive any loss/partition pattern.
Every await stage carries a timeout; a prepared participant that never
hears the outcome unlocks itself and resynchronizes from the overlay.

**Determinism bridge**: with no faults and ``latency_scale=0`` the whole
cascade of a cycle executes at its fire timestamp in insertion order, so
the engine consumes the shared ``prop:engine`` RNG stream in exactly the
order :class:`~repro.core.protocol.PROPEngine` does and reproduces its
exchange sequence message for message (pinned by the bridge integration
test).  To keep fire times aligned, the next probe is scheduled at
``fire_time + delay`` (absolute), not ``resolution_time + delay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable

from repro.core.config import PROPConfig
from repro.core.protocol import PROPEngine
from repro.core.varcalc import evaluate_prop_g
from repro.core.walk import walk_step
from repro.net.messages import (
    ExchangeAbort,
    ExchangeCommit,
    ExchangePrepare,
    Message,
    Notify,
    PingFanout,
    VarProbe,
    VarReply,
    Walk,
)
from repro.net.transport import Transport
from repro.netsim.engine import Simulator
from repro.netsim.events import EventHandle
from repro.netsim.rng import RngRegistry
from repro.obs.events import (
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ExchangePrepareEvent,
    ExchangeTimeoutEvent,
    MsgTimeoutEvent,
    ProbeEvent,
    SpanEndEvent,
    SpanStartEvent,
    VarCollectEvent,
)
from repro.obs.trace import TracerLike
from repro.overlay.base import Overlay

__all__ = ["MessagePROPEngine", "NetConfig", "NetCounters"]


@dataclass(frozen=True)
class NetConfig:
    """Message-plane knobs of :class:`MessagePROPEngine`.

    Timeouts are in simulated seconds and bound each await stage of a
    probe cycle; they must stay well below ``PROPConfig.init_timer`` so
    a faulted cycle resolves before the next probe period.
    """

    reply_timeout: float = 10.0  # walk launch -> VAR_REPLY
    vote_timeout: float = 5.0  # EXCHANGE_PREPARE -> vote
    prepared_timeout: float = 20.0  # participant lock expiry
    max_prepare_retries: int = 1  # PREPARE resends before giving up

    def __post_init__(self) -> None:
        for name in ("reply_timeout", "vote_timeout", "prepared_timeout"):
            timeout = getattr(self, name)
            # written so that NaN, which compares false, fails it too
            if not 0.0 < timeout < inf:
                raise ValueError(f"{name} must be positive and finite, got {timeout}")
        if self.max_prepare_retries < 0:
            raise ValueError(
                f"max_prepare_retries must be >= 0, got {self.max_prepare_retries}"
            )


@dataclass
class NetCounters:
    """Fault-visible outcomes the inline engines cannot exhibit."""

    walk_timeouts: int = 0  # no VAR_REPLY in time
    vote_timeouts: int = 0  # no vote in time (after retries)
    prepared_timeouts: int = 0  # participant lock expired unanswered
    prepare_retries: int = 0  # PREPARE resends
    busy_rejects: int = 0  # PREPARE refused: participant locked
    stale_aborts: int = 0  # proposal no longer valid when (re)checked
    late_replies: int = 0  # VAR_REPLY for an already-resolved cycle
    late_votes: int = 0  # vote for an already-resolved exchange


@dataclass
class _Cycle:
    """Initiator-side in-flight probe cycle."""

    cycle: int
    u: int
    s: int
    fire_time: float
    stage: str = "walk"  # "walk" -> "vote"
    timeout: EventHandle | None = None
    xid: int | None = None
    v: int | None = None
    path: tuple[int, ...] = ()
    give_u: tuple[int, ...] = ()
    give_v: tuple[int, ...] = ()
    var: float | None = None
    retries: int = 0
    trace: int = -1  # span-context: the cycle's trace id (-1 untraced)
    root_span: int = -1  # span-context: the root "cycle" span


@dataclass
class _Prepared:
    """Participant-side lock between its yes-vote and the outcome."""

    xid: int
    initiator: int
    timeout: EventHandle | None = field(repr=False, default=None)


class MessagePROPEngine(PROPEngine):
    """PROP deployment whose probe cycles are message exchanges.

    Accepts the same parameters as :class:`~repro.core.protocol.PROPEngine`
    plus the ``transport`` to run over and the :class:`NetConfig` message
    knobs.  Counter semantics: ``counters.walk_messages`` counts ``WALK``
    sends, ``collect_messages`` counts ``VAR_PROBE`` + ``VAR_REPLY``, and
    ``notify_messages`` counts ``NOTIFY`` — two-phase control traffic
    (``EXCHANGE_*``) is visible in ``transport.stats`` only, so the
    legacy counters stay comparable to the §4.3 closed forms (see
    :data:`repro.metrics.overhead.COORDINATION_SLACK`).
    """

    def __init__(
        self,
        overlay: Overlay,
        config: PROPConfig,
        sim: Simulator,
        rngs: RngRegistry,
        transport: Transport,
        *,
        net: NetConfig | None = None,
        jitter: float = 1.0,
        tracer: TracerLike | None = None,
    ) -> None:
        super().__init__(overlay, config, sim, rngs, jitter=jitter, tracer=tracer)
        self.transport = transport
        self.net = net if net is not None else NetConfig()
        self.net_counters = NetCounters()
        self._cycles: dict[int, _Cycle] = {}  # initiator slot -> in-flight cycle
        self._prepared: dict[int, _Prepared] = {}  # participant slot -> lock
        self._cycle_seq = 0
        self._xid_seq = 0
        self._span_seq = 0
        #: The (trace_id, parent span) every outgoing message inherits;
        #: ``None`` outside a traced scope, leaving messages untraced.
        self._ctx: tuple[int, int] | None = None
        #: Set by finalize_trace: the run is over, so timer callbacks
        #: that straggle in during teardown must not start new cycles.
        self._finalized = False
        #: The wire grammar's dispatch, total over the concrete message
        #: classes: message class -> handler, ``None`` exactly for the
        #: ``inert`` classes, whose delivery changes nothing
        #: (tests/net/test_engine.py::TestDispatchTable pins both).
        self._dispatch: dict[type[Message], Callable[[Any], None] | None] = {
            Walk: self._on_walk,
            # measurement ping: the reply is modelled as free — §4.3
            # counts one message per collected latency.  Neither plane
            # hands the engine's pings to a handler: the simulated plane
            # counts them, the datagram plane carries each fan-out as one
            # PING_FANOUT frame and books it on receipt.
            VarProbe: None,
            PingFanout: None,
            VarReply: self._on_var_reply,
            ExchangePrepare: self._on_prepare,
            ExchangeCommit: self._on_commit,
            ExchangeAbort: self._on_abort,
            Notify: self._on_notify,
        }
        for slot in range(overlay.n_slots):
            transport.register(slot, self._on_message)

    # -- causality context -------------------------------------------------

    def _stamp(self, msg: Message) -> Message:
        """Thread the active span context onto an outgoing message.

        Each stamped message gets a fresh span id; the transport opens
        its ``msg:<TYPE>`` span at send and closes it at delivery (or
        drop).  Zero cost when tracing is off: the message passes
        through untouched with its ``-1`` defaults.
        """
        ctx = self._ctx
        if ctx is None:
            return msg
        self._span_seq += 1
        # Every caller hands a message constructed on the same line, so
        # stamping before it is shared is safe; writing the three fields
        # directly skips ``dataclasses.replace`` rebuilding the whole
        # frozen instance on the per-message hot path.
        fields = msg.__dict__
        fields["trace_id"] = ctx[0]
        fields["span_id"] = self._span_seq
        fields["parent_id"] = ctx[1]
        return msg

    # -- sends (counted by legacy category) ------------------------------

    def _send_walk(self, msg: Walk) -> None:
        self.counters.walk_messages += 1
        self.transport.send(self._stamp(msg))

    def _send_collect(self, msg: Message) -> None:
        self.counters.collect_messages += 1
        self.transport.send(self._stamp(msg))

    def _send_pings(self, src: int, dsts: tuple[int, ...], cycle: int) -> None:
        """One side of the information collection: a ``VAR_PROBE`` per
        collected latency (§4.3), all in one transport call."""
        self.counters.collect_messages += len(dsts)
        ctx = self._ctx
        if ctx is None:
            self.transport.send_pings(src, dsts, cycle)
            return
        # one fresh span id per ping, as _stamp would hand them out
        first = self._span_seq + 1
        self._span_seq += len(dsts)
        self.transport.send_pings(src, dsts, cycle, trace_id=ctx[0], span_id=first,
                                  parent_id=ctx[1])

    def _send_notify(self, msg: Notify) -> None:
        self.counters.notify_messages += 1
        self.transport.send(self._stamp(msg))

    def _send_control(self, msg: Message) -> None:
        self.transport.send(self._stamp(msg))

    # -- probe cycle: launch ---------------------------------------------

    def _probe_cycle(self, u: int) -> None:
        if self._finalized:
            # live-plane teardown: the event loop may still run probe
            # timers after finalize_trace; a new cycle now would open a
            # root span nothing will ever close
            return
        state = self.nodes[u]
        fire = self.sim.now
        if u in self._prepared:
            # locked as an exchange participant when the timer fired:
            # defer to the next period, counted as a failed attempt
            self._finish_cycle(u, fire, s=None, success=False)
            return
        state.queue.sync(self.overlay.sorted_neighbors(u))
        if len(state.queue) == 0:
            self._finish_cycle(u, fire, s=None, success=False)
            return
        s = state.queue.select()
        self.counters.probes += 1
        self._cycle_seq += 1
        cyc = _Cycle(cycle=self._cycle_seq, u=u, s=s, fire_time=fire)
        if self.tracer.enabled:
            self.tracer.emit(ProbeEvent, u=u, s=s, cycle=self._cycle_seq)
            # the cycle's root span: the trace id is the cycle number
            self._span_seq += 1
            cyc.trace = self._cycle_seq
            cyc.root_span = self._span_seq
            self.tracer.emit(SpanStartEvent, trace=cyc.trace, span=cyc.root_span,
                             parent=-1, name="cycle", node=u)
            self._ctx = (cyc.trace, cyc.root_span)
        self._cycles[u] = cyc
        cyc.timeout = self.sim.schedule(
            self.net.reply_timeout, self._walk_timeout, u, cyc.cycle
        )
        if self.config.random_probe:
            dst, ttl = self._random_candidate(u), 0
        else:
            dst, ttl = s, self.config.nhops - 1
        self._send_walk(Walk(src=u, dst=dst, origin=u, ttl=ttl, cycle=cyc.cycle, path=(u,)))
        self._ctx = None

    # -- message dispatch -------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        handler = self._dispatch[type(msg)]
        if handler is None:
            return
        proc_span = -1
        if self.tracer.enabled and msg.trace_id >= 0:
            # the receive-side handler span; everything the handler sends
            # is causally its child
            self._span_seq += 1
            proc_span = self._span_seq
            self.tracer.emit(SpanStartEvent, trace=msg.trace_id, span=proc_span,
                             parent=msg.span_id,
                             name=f"proc:{msg.type_name}", node=msg.dst)
            self._ctx = (msg.trace_id, proc_span)
        try:
            handler(msg)
        finally:
            if proc_span >= 0:
                self.tracer.emit(SpanEndEvent, trace=msg.trace_id,
                                 span=proc_span, status="ok")
            self._ctx = None

    # -- walk forwarding ---------------------------------------------------

    def _on_walk(self, msg: Walk) -> None:
        here = msg.dst
        path = msg.path + (here,)
        nxt = walk_step(self.overlay, here, set(path), self.rng) if msg.ttl > 0 else None
        if nxt is None:
            self._walk_terminal(here, msg.origin, msg.cycle, path)
            return
        self._send_walk(
            Walk(src=here, dst=nxt, origin=msg.origin, ttl=msg.ttl - 1,
                 cycle=msg.cycle, path=path)
        )

    def _walk_terminal(self, v: int, origin: int, cycle: int, path: tuple[int, ...]) -> None:
        cfg = self.config
        busy = v in self._prepared or (
            v in self._cycles and self._cycles[v].stage == "vote"
        )
        ok = not busy and self.overlay.exchange_compatible(origin, v, cfg.policy)
        neighbors: tuple[int, ...] = ()
        if ok:
            # the candidate's half of the information collection
            nbrs = self.overlay.sorted_neighbors(v)
            n_pings = len(nbrs) if cfg.policy == "G" else min(self.m, len(nbrs))
            self._send_pings(v, nbrs[:n_pings], cycle)
            neighbors = nbrs
        self._send_collect(
            VarReply(src=v, dst=origin, cycle=cycle, candidate=v, ok=ok,
                     path=path, cand_neighbors=neighbors)
        )

    # -- evaluation + prepare ---------------------------------------------

    def _on_var_reply(self, msg: VarReply) -> None:
        u = msg.dst
        cyc = self._cycles.get(u)
        if cyc is None or cyc.cycle != msg.cycle or cyc.stage != "walk":
            self.net_counters.late_replies += 1
            return
        if cyc.timeout is not None:
            cyc.timeout.cancel()
        if not msg.ok:
            self._resolve(cyc, success=False)
            return
        v = msg.candidate
        cyc.v = v
        cyc.path = msg.path
        cfg = self.config
        # the initiator's half of the information collection
        nbrs = self.overlay.sorted_neighbors(u)
        n_pings = len(nbrs) if cfg.policy == "G" else min(self.m, len(nbrs))
        self._send_pings(u, nbrs[:n_pings], cyc.cycle)

        var, give_u, give_v, wants = self._decide(u, v, msg.path)
        cyc.var, cyc.give_u, cyc.give_v = var, tuple(give_u), tuple(give_v)
        if self.tracer.enabled:
            self.tracer.emit(VarCollectEvent, u=u, v=v, cycle=cyc.cycle,
                             var=float(var), policy=cfg.policy)
        if not wants:
            self._resolve(cyc, success=False)
            return
        self._xid_seq += 1
        cyc.xid = self._xid_seq
        cyc.stage = "vote"
        if self.tracer.enabled:
            self.tracer.emit(ExchangePrepareEvent, xid=cyc.xid, u=u, v=v,
                             var=float(var))
        self._send_control(self._prepare_message(cyc))
        cyc.timeout = self.sim.schedule(
            self.net.vote_timeout, self._vote_timeout, u, cyc.xid
        )

    def _prepare_message(self, cyc: _Cycle) -> ExchangePrepare:
        # a cycle only reaches the vote stage with these fields populated
        assert cyc.v is not None and cyc.xid is not None and cyc.var is not None
        return ExchangePrepare(
            src=cyc.u, dst=cyc.v, xid=cyc.xid, cycle=cyc.cycle,
            policy=self.config.policy, var=cyc.var,
            give_u=cyc.give_u, give_v=cyc.give_v,
        )

    # -- two-phase commit: participant side --------------------------------

    def _on_prepare(self, msg: ExchangePrepare) -> None:
        v, u, xid = msg.dst, msg.src, msg.xid
        prep = self._prepared.get(v)
        if prep is not None:
            if prep.xid == xid:
                # duplicate PREPARE (initiator retry): vote again
                self._send_control(ExchangeCommit(src=v, dst=u, xid=xid))
            else:
                self.net_counters.busy_rejects += 1
                self._send_control(ExchangeAbort(src=v, dst=u, xid=xid, reason="busy"))
            return
        own = self._cycles.get(v)
        if own is not None and own.stage == "vote":
            # v is itself mid-commit as an initiator: refuse to deadlock
            self.net_counters.busy_rejects += 1
            self._send_control(ExchangeAbort(src=v, dst=u, xid=xid, reason="busy"))
            return
        if not self._validate_proposal(u, v, msg):
            self.net_counters.stale_aborts += 1
            self._send_control(ExchangeAbort(src=v, dst=u, xid=xid, reason="stale"))
            return
        handle = self.sim.schedule(
            self.net.prepared_timeout, self._prepared_timeout, v, xid
        )
        self._prepared[v] = _Prepared(xid=xid, initiator=u, timeout=handle)
        self._send_control(ExchangeCommit(src=v, dst=u, xid=xid))

    def _validate_proposal(self, u: int, v: int, msg: ExchangePrepare) -> bool:
        """Re-evaluate the proposal against the participant's current state."""
        overlay = self.overlay
        cfg = self.config
        if not overlay.exchange_compatible(u, v, cfg.policy):
            return False
        if cfg.policy == "G":
            return evaluate_prop_g(overlay, u, v) > cfg.min_var
        if not msg.give_u or len(msg.give_u) != len(msg.give_v):
            return False
        if not self._trade_legal(u, v, msg.give_u, msg.give_v):
            return False
        return self._trade_var(u, v, msg.give_u, msg.give_v) > cfg.min_var

    def _trade_legal(self, u: int, v: int, give_u: tuple[int, ...],
                     give_v: tuple[int, ...]) -> bool:
        """May this PROP-O trade still be applied to the current graph?"""
        overlay = self.overlay
        for x in give_u:
            if x == v or not overlay.has_edge(u, x) or overlay.has_edge(v, x):
                return False
        for y in give_v:
            if y == u or not overlay.has_edge(v, y) or overlay.has_edge(u, y):
                return False
        return True

    def _trade_var(self, u: int, v: int, give_u: tuple[int, ...],
                   give_v: tuple[int, ...]) -> float:
        """Var of the proposed trade on the current embedding (eq. 2)."""
        emb = self.overlay.embedding
        oracle = self.overlay.oracle
        var = 0.0
        for x in give_u:
            var += oracle.between(int(emb[u]), int(emb[x])) - oracle.between(
                int(emb[v]), int(emb[x])
            )
        for y in give_v:
            var += oracle.between(int(emb[v]), int(emb[y])) - oracle.between(
                int(emb[u]), int(emb[y])
            )
        return var

    # -- two-phase commit: initiator side ----------------------------------

    def _on_commit(self, msg: ExchangeCommit) -> None:
        u = msg.dst
        cyc = self._cycles.get(u)
        if cyc is None or cyc.xid != msg.xid or cyc.stage != "vote":
            # vote for an exchange we already resolved: release the
            # participant so its lock does not wait for the timeout
            self.net_counters.late_votes += 1
            self._send_control(
                ExchangeAbort(src=u, dst=msg.src, xid=msg.xid, reason="stale-vote")
            )
            return
        if cyc.timeout is not None:
            cyc.timeout.cancel()
        v = cyc.v
        # vote-stage invariant (see _prepare_message)
        assert v is not None and cyc.xid is not None and cyc.var is not None
        if self.config.policy == "O" and not self._trade_legal(u, v, cyc.give_u, cyc.give_v):
            # a third party rewired one of the traded edges while the
            # vote was in flight; aborting keeps the apply atomic
            self.net_counters.stale_aborts += 1
            self._send_control(
                ExchangeAbort(src=u, dst=v, xid=cyc.xid, reason="stale-apply")
            )
            if self.tracer.enabled:
                self.tracer.emit(ExchangeAbortEvent, xid=cyc.xid, u=u, v=v,
                                 reason="stale-apply")
            self._resolve(cyc, success=False)
            return
        traded, affected, _ = self._apply_exchange(u, v, cyc.var, cyc.give_u, cyc.give_v)
        # the initiator's own routing state, then the fan-out
        self.nodes[u].queue.sync(self.overlay.sorted_neighbors(u))
        for w in affected:
            self._send_notify(Notify(src=u, dst=w, xid=cyc.xid, commit=(w == v)))
        # the participant always learns the outcome (its copy releases
        # the prepared lock); +1 over the §4.3 notify term when v is not
        # already among the affected routing-table holders
        if v not in affected:
            self._send_notify(Notify(src=u, dst=v, xid=cyc.xid, commit=True))
        if self.tracer.enabled:
            self.tracer.emit(ExchangeCommitEvent, xid=cyc.xid, u=u, v=v,
                             var=float(cyc.var), traded=traded)
        self._resolve(cyc, success=True)

    # -- outcome delivery ---------------------------------------------------

    def _on_abort(self, msg: ExchangeAbort) -> None:
        here = msg.dst
        cyc = self._cycles.get(here)
        if cyc is not None and cyc.xid == msg.xid and cyc.stage == "vote":
            if cyc.timeout is not None:
                cyc.timeout.cancel()
            if self.tracer.enabled:
                self.tracer.emit(ExchangeAbortEvent, xid=msg.xid, u=here,
                                 v=msg.src, reason=msg.reason)
            self._resolve(cyc, success=False)
            return
        prep = self._prepared.get(here)
        if prep is not None and prep.xid == msg.xid:
            if prep.timeout is not None:
                prep.timeout.cancel()
            del self._prepared[here]
            self.nodes[here].queue.sync(self.overlay.sorted_neighbors(here))

    def _on_notify(self, msg: Notify) -> None:
        here = msg.dst
        if msg.commit:
            prep = self._prepared.get(here)
            if prep is not None and prep.xid == msg.xid:
                if prep.timeout is not None:
                    prep.timeout.cancel()
                del self._prepared[here]
                # the counterpart treats the exchange as its own success
                self.nodes[here].timer.on_success()
        self.nodes[here].queue.sync(self.overlay.sorted_neighbors(here))

    # -- timeouts -----------------------------------------------------------

    def _walk_timeout(self, u: int, cycle: int) -> None:
        cyc = self._cycles.get(u)
        if cyc is None or cyc.cycle != cycle or cyc.stage != "walk":
            return
        self.net_counters.walk_timeouts += 1
        if self.tracer.enabled:
            self.tracer.emit(MsgTimeoutEvent, kind="walk", u=u, tag=cycle)
            if cyc.root_span >= 0:
                # zero-length marker: the cycle's tail was reply_timeout
                # back-off, which the critical path bills to the timer
                self._span_seq += 1
                self.tracer.emit(SpanStartEvent, trace=cyc.trace,
                                 span=self._span_seq, parent=cyc.root_span,
                                 name="timer:walk", node=u)
                self.tracer.emit(SpanEndEvent, trace=cyc.trace,
                                 span=self._span_seq, status="ok")
        self._resolve(cyc, success=False)

    def _vote_timeout(self, u: int, xid: int) -> None:
        cyc = self._cycles.get(u)
        if cyc is None or cyc.xid != xid or cyc.stage != "vote":
            return
        if cyc.retries < self.net.max_prepare_retries:
            cyc.retries += 1
            self.net_counters.prepare_retries += 1
            if self.tracer.enabled:
                self.tracer.emit(MsgTimeoutEvent, kind="vote-retry", u=u, tag=xid)
                if cyc.root_span >= 0:
                    # a zero-length marker span: the resent PREPARE hangs
                    # off it, so the critical path attributes the silent
                    # vote_timeout wait before it to the timer
                    self._span_seq += 1
                    self.tracer.emit(SpanStartEvent, trace=cyc.trace,
                                     span=self._span_seq, parent=cyc.root_span,
                                     name="timer:vote-retry", node=u)
                    self.tracer.emit(SpanEndEvent, trace=cyc.trace,
                                     span=self._span_seq, status="ok")
                    self._ctx = (cyc.trace, self._span_seq)
            self._send_control(self._prepare_message(cyc))
            self._ctx = None
            cyc.timeout = self.sim.schedule(
                self.net.vote_timeout, self._vote_timeout, u, xid
            )
            return
        self.net_counters.vote_timeouts += 1
        assert cyc.v is not None  # vote-stage invariant (see _prepare_message)
        if self.tracer.enabled:
            self.tracer.emit(ExchangeTimeoutEvent, xid=xid, u=u, v=cyc.v)
            if cyc.root_span >= 0:
                self._span_seq += 1
                self.tracer.emit(SpanStartEvent, trace=cyc.trace,
                                 span=self._span_seq, parent=cyc.root_span,
                                 name="timer:vote", node=u)
                self.tracer.emit(SpanEndEvent, trace=cyc.trace,
                                 span=self._span_seq, status="ok")
                self._ctx = (cyc.trace, self._span_seq)
        # best-effort release of a possibly-prepared participant
        self._send_control(
            ExchangeAbort(src=u, dst=cyc.v, xid=xid, reason="timeout")
        )
        self._ctx = None
        self._resolve(cyc, success=False)

    def _prepared_timeout(self, v: int, xid: int) -> None:
        prep = self._prepared.get(v)
        if prep is None or prep.xid != xid:
            return
        self.net_counters.prepared_timeouts += 1
        del self._prepared[v]
        # the exchange may or may not have committed; the overlay is the
        # source of truth either way
        self.nodes[v].queue.sync(self.overlay.sorted_neighbors(v))

    # -- cycle resolution ---------------------------------------------------

    def _resolve(self, cyc: _Cycle, *, success: bool) -> None:
        if cyc.timeout is not None:
            cyc.timeout.cancel()
        self._cycles.pop(cyc.u, None)
        if cyc.root_span >= 0 and self.tracer.enabled:
            self.tracer.emit(SpanEndEvent, trace=cyc.trace, span=cyc.root_span,
                             status="ok" if success else "fail")
        if cyc.var is not None:
            self.counters.var_history.append(cyc.var)
        self._finish_cycle(cyc.u, cyc.fire_time, s=cyc.s, success=success)

    def _finish_cycle(self, u: int, fire_time: float, *, s: int | None,
                      success: bool) -> None:
        """Queue feedback + the shared phase/timer transition, with the
        next probe pinned to ``fire_time + delay`` so fire times stay
        aligned with :class:`PROPEngine` (the determinism bridge)."""
        state = self.nodes[u]
        if s is not None:
            (state.queue.on_success if success else state.queue.on_failure)(s)
        delay = state.next_delay(success, self.config.max_init_trial)
        self.sim.schedule_at(max(self.sim.now, fire_time + delay), self._probe_cycle, u)

    # -- churn interface ----------------------------------------------------

    def finalize_trace(self) -> None:
        """End-of-run: record still-unresolved exchanges as aborted.

        A vote-stage cycle whose outcome the simulation never reached
        would otherwise look half-open in the trace; the run ending is
        an abort for accounting purposes (the overlay never mutated).

        Finalization is terminal: in-flight cycles are dropped and
        their timeouts cancelled, so timer callbacks that straggle in
        during live-plane teardown can neither start new cycles (orphan
        roots) nor re-resolve finalized ones (double-closed roots).
        """
        self._finalized = True
        cycles = [self._cycles[u] for u in sorted(self._cycles)]
        self._cycles.clear()
        for cyc in cycles:
            if cyc.timeout is not None:
                cyc.timeout.cancel()
        if not self.tracer.enabled:
            return
        for cyc in cycles:
            if cyc.stage == "vote" and cyc.xid is not None and cyc.v is not None:
                self.tracer.emit(ExchangeAbortEvent, xid=cyc.xid, u=cyc.u,
                                 v=cyc.v, reason="end-of-run")
            if cyc.root_span >= 0:
                self.tracer.emit(SpanEndEvent, trace=cyc.trace,
                                 span=cyc.root_span, status="end-of-run")

    def reset_slot(self, slot: int) -> None:
        """Churn replacement: drop in-flight message state, then restart."""
        cyc = self._cycles.pop(slot, None)
        if cyc is not None and cyc.timeout is not None:
            cyc.timeout.cancel()
        if (cyc is not None and cyc.stage == "vote" and self.tracer.enabled
                and cyc.xid is not None and cyc.v is not None):
            self.tracer.emit(ExchangeAbortEvent, xid=cyc.xid, u=slot, v=cyc.v,
                             reason="churn")
        if cyc is not None and cyc.root_span >= 0 and self.tracer.enabled:
            self.tracer.emit(SpanEndEvent, trace=cyc.trace, span=cyc.root_span,
                             status="churn")
        prep = self._prepared.pop(slot, None)
        if prep is not None and prep.timeout is not None:
            prep.timeout.cancel()
        super().reset_slot(slot)
        if cyc is not None:
            # the popped cycle would have scheduled the next probe at its
            # resolution; replace that chain so the slot keeps probing
            self.sim.schedule(self.config.init_timer, self._probe_cycle, slot)
