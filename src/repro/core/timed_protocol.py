"""Message-latency-aware PROP engine (fidelity extension).

:class:`~repro.core.protocol.PROPEngine` executes a whole probe cycle at
one simulation instant — the abstraction level of the paper's own
simulator.  :class:`TimedPROPEngine` refines it: a probe *takes time*
(the walk crosses its links, the latency collection costs round trips),
and the exchange decision lands only after that delay.  Two consequences
the instantaneous engine cannot show:

* **Staleness** — by the time a probe completes, concurrent exchanges
  may have moved either peer; the candidate information gathered at
  probe start no longer describes the world.  Following the paper's
  cooperative spirit (both peers recompute their sums before acting),
  the engine re-evaluates Var at commit time and aborts the exchange if
  the opportunity evaporated — counted in ``stale_aborts``.
* **Probe pipelining** — a node's timer keeps running while its probe is
  in flight, so observed inter-exchange gaps include the network time.

Latencies are milliseconds; simulation time is seconds.
"""

from __future__ import annotations


from repro.core.config import PROPConfig
from repro.core.protocol import PROPEngine, _MAINTENANCE, _WARMUP
from repro.core.varcalc import evaluate_prop_g, select_prop_o
from repro.core.walk import random_walk
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.obs.events import (
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ProbeEvent,
    VarCollectEvent,
)
from repro.obs.trace import TracerLike
from repro.overlay.base import Overlay

__all__ = ["TimedPROPEngine"]

_MS = 1e-3  # milliseconds -> seconds


class TimedPROPEngine(PROPEngine):
    """PROP engine whose probes take network time to complete."""

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
        super().__init__(overlay, config, sim, rngs, jitter=jitter, tracer=tracer)
        self.stale_aborts = 0

    # -- probe cycle, split into launch + completion ----------------------

    def _probe_cycle(self, u: int) -> None:
        state = self.nodes[u]
        overlay = self.overlay
        cfg = self.config
        state.queue.sync(overlay.sorted_neighbors(u))
        if len(state.queue) == 0:
            self.sim.schedule(cfg.init_timer, self._probe_cycle, u)
            return
        s = state.queue.select()
        self.counters.probes += 1
        cycle = self.counters.probes
        if self.tracer.enabled:
            self.tracer.emit(ProbeEvent, u=u, s=s, cycle=cycle)

        if cfg.random_probe:
            v = int(self.rng.integers(0, overlay.n_slots - 1))
            if v >= u:
                v += 1
            path = [u, v]
            walk_ms = overlay.latency(u, v)
            self.counters.walk_messages += 1
        else:
            v, path = random_walk(overlay, u, s, cfg.nhops, self.rng)
            walk_ms = sum(
                overlay.latency(a, b) for a, b in zip(path, path[1:])
            )
            self.counters.walk_messages += len(path) - 1

        if v == u or not overlay.exchange_compatible(u, v, cfg.policy):
            self._finish(u, s, success=False)
            return

        # Collection: each side probes its hypothetical neighbors; the
        # slow side bounds the duration (one RTT to the farthest probe).
        cand_u = overlay.latencies_from(u, overlay.sorted_neighbors(v) or [v])
        cand_v = overlay.latencies_from(v, overlay.sorted_neighbors(u) or [u])
        collect_ms = 2.0 * max(
            float(cand_u.max()) if cand_u.size else 0.0,
            float(cand_v.max()) if cand_v.size else 0.0,
            overlay.latency(u, v),
        )
        if cfg.policy == "G":
            self.counters.collect_messages += overlay.degree(u) + overlay.degree(v)
        else:
            self.counters.collect_messages += 2 * self.m

        # Var as seen with the information gathered NOW (what the peers
        # believe when they decide to attempt the exchange).
        if cfg.policy == "G":
            launch_var = evaluate_prop_g(overlay, u, v)
        else:
            _, _, launch_var = select_prop_o(
                overlay, u, v, self.m, forbidden=set(path),
                selection=cfg.selection, rng=self.rng,
            )

        delay_s = (walk_ms + collect_ms) * _MS
        self.sim.schedule(
            delay_s, self._complete_probe, u, v, s, tuple(path), launch_var, cycle
        )

    def _complete_probe(
        self, u: int, v: int, s: int, path: tuple[int, ...], launch_var: float,
        cycle: int = -1,
    ) -> None:
        """The decision point: re-evaluate on the *current* world."""
        overlay = self.overlay
        cfg = self.config
        success = False
        traded = 0
        if cfg.policy == "G":
            var = evaluate_prop_g(overlay, u, v)
            if var > cfg.min_var:
                from repro.core.exchange import execute_prop_g

                traded = max(overlay.degree(u), overlay.degree(v))
                self.counters.notify_messages += execute_prop_g(overlay, u, v)
                self._after_exchange(u, v)
                success = True
        else:
            give_u, give_v, var = select_prop_o(
                overlay, u, v, self.m, forbidden=set(path),
                selection=cfg.selection, rng=self.rng,
            )
            if give_u and var > cfg.min_var:
                from repro.core.exchange import execute_prop_o

                traded = len(give_u)
                self.counters.notify_messages += execute_prop_o(overlay, u, v, give_u, give_v)
                self._after_exchange(u, v, moved=give_u + give_v)
                success = True
        self.counters.var_history.append(var)
        if self.tracer.enabled:
            self.tracer.emit(VarCollectEvent, u=u, v=v, cycle=cycle,
                             var=float(var), policy=cfg.policy)
            if success:
                self.tracer.emit(ExchangeCommitEvent, xid=-1, u=u, v=v,
                                 var=float(var), traded=traded)
            elif launch_var > cfg.min_var:
                self.tracer.emit(ExchangeAbortEvent, xid=-1, u=u, v=v, reason="stale")
        if success:
            from repro.core.protocol import ExchangeRecord

            self.counters.exchanges += 1
            self.counters.exchange_log.append(
                ExchangeRecord(time=self.sim.now, u=u, v=v, var=var,
                               policy=cfg.policy, traded=traded)
            )
            self.nodes[v].timer.on_success()
        elif launch_var > cfg.min_var:
            # the opportunity existed at probe time but evaporated while
            # the messages were in flight
            self.stale_aborts += 1
        self._finish(u, s, success=success)

    def _finish(self, u: int, s: int, *, success: bool) -> None:
        state = self.nodes[u]
        cfg = self.config
        if state.phase == _WARMUP:
            state.trials += 1
            if success:
                state.timer.on_success()
            if state.trials >= cfg.max_init_trial:
                state.phase = _MAINTENANCE
            delay = cfg.init_timer
        else:
            delay = state.timer.on_success() if success else state.timer.on_failure()
        if success:
            state.queue.on_success(s)
        else:
            state.queue.on_failure(s)
        self.sim.schedule(delay, self._probe_cycle, u)
