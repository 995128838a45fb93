"""LTM — Location-aware Topology Matching (Liu et al., TPDS 2005).

The unstructured-overlay baseline of the paper's Section 2 and Fig. 7.
Each peer periodically floods a TTL-2 *detector*; receivers learn the
latency of their one- and two-hop vicinity, and the peer then

1. **cuts inefficient links**: a direct link (u, v) is redundant when a
   common neighbor w offers a two-hop detour in which *both* legs are
   faster (``max(d(u,w), d(w,v)) < d(u,v)``) — cutting it cannot
   disconnect the pair because the detour remains; and
2. **adds closer neighbors**: the nearest known two-hop peer becomes a
   direct neighbor when it is closer than the current farthest neighbor.

This is exactly the behaviour the paper criticizes: LTM "can freely cut
and add connections", so node degrees drift toward physical proximity
clusters and the natural capacity–degree correlation of Gnutella decays —
the effect Fig. 7 exposes under heterogeneous processing delays.

A degree floor keeps the graph from thinning out (the TPDS paper keeps a
"minimum connection" guard as well); cutting is refused when either
endpoint would fall below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.overlay.base import Overlay

__all__ = ["LTMConfig", "LTMCounters", "LTMOptimizer"]


@dataclass(frozen=True)
class LTMConfig:
    """LTM parameters.

    ``round_interval`` mirrors PROP's INIT_TIMER so the two protocols get
    the same wall-clock optimization opportunity in comparisons.
    """

    round_interval: float = 60.0
    detector_ttl: int = 2
    min_degree: int = 2
    max_adds_per_round: int = 1
    max_cuts_per_round: int = 2

    def __post_init__(self) -> None:
        if self.round_interval <= 0:
            raise ValueError("round_interval must be positive")
        if self.detector_ttl < 2:
            raise ValueError("detector needs TTL >= 2 to see two-hop peers")
        if self.min_degree < 1:
            raise ValueError("min_degree must be >= 1")


@dataclass
class LTMCounters:
    """Detector-message and operation tallies."""

    rounds: int = 0
    detector_messages: int = 0
    cuts: int = 0
    adds: int = 0


class LTMOptimizer:
    """Event-driven LTM deployment over one unstructured overlay."""

    def __init__(
        self,
        overlay: Overlay,
        config: LTMConfig,
        sim: Simulator,
        rngs: RngRegistry,
        *,
        jitter: float = 1.0,
    ) -> None:
        if not overlay.supports_rewiring:
            raise ValueError(
                "LTM freely cuts and adds connections and is 'only "
                "applicable for Gnutella-like overlay networks' — "
                f"{type(overlay).__name__} derives its edges from protocol "
                "structure"
            )
        self.overlay = overlay
        self.config = config
        self.sim = sim
        self.rng = rngs.stream("ltm:engine")
        self.counters = LTMCounters()
        self._jitter = max(0.0, jitter)
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("optimizer already started")
        self._started = True
        for slot in range(self.overlay.n_slots):
            delay = float(self.rng.random()) * self._jitter * self.config.round_interval
            self.sim.post(delay, self._round, slot)

    # -- one LTM round at node u ------------------------------------------

    def _round(self, u: int) -> None:
        self.run_round(u)
        self.sim.post(self.config.round_interval, self._round, u)

    def run_round(self, u: int) -> None:
        """Detector flood + cut/add step for node ``u`` (also used directly
        by tests and synchronous-round experiments)."""
        overlay = self.overlay
        cfg = self.config
        self.counters.rounds += 1
        nbrs = overlay.neighbor_list(u)
        if not nbrs:
            return
        # Detector cost: one message per one-hop and per two-hop delivery.
        self.counters.detector_messages += len(nbrs) + sum(
            overlay.degree(x) - 1 for x in nbrs
        )

        self._cut_inefficient(u)
        self._add_closer(u)

    def _cut_inefficient(self, u: int) -> None:
        overlay = self.overlay
        cfg = self.config
        cuts = 0
        for v in sorted(
            overlay.neighbor_list(u),
            key=lambda x: -overlay.latency(u, x),
        ):
            if cuts >= cfg.max_cuts_per_round:
                break
            if overlay.degree(u) <= cfg.min_degree or overlay.degree(v) <= cfg.min_degree:
                continue
            duv = overlay.latency(u, v)
            common = overlay.neighbors(u) & overlay.neighbors(v)
            for w in common:
                if max(overlay.latency(u, w), overlay.latency(w, v)) < duv:
                    overlay.remove_edge(u, v)
                    self.counters.cuts += 1
                    cuts += 1
                    break

    def _add_closer(self, u: int) -> None:
        overlay = self.overlay
        cfg = self.config
        nbrs = overlay.neighbors(u)
        if not nbrs:
            return
        two_hop: set[int] = set()
        for x in nbrs:
            two_hop.update(overlay.neighbor_list(x))
        two_hop.discard(u)
        two_hop -= nbrs
        if not two_hop:
            return
        # sorted: argsort ties below break by position, so candidate order
        # must not leak set-iteration order into which edges get added
        cand = np.fromiter(sorted(two_hop), dtype=np.intp, count=len(two_hop))
        lat = overlay.latencies_from(u, cand)
        farthest_nbr = max(overlay.latencies_from(u, list(nbrs)))
        order = np.argsort(lat)
        adds = 0
        for i in order:
            if adds >= cfg.max_adds_per_round:
                break
            w = int(cand[i])
            if lat[i] < farthest_nbr and not overlay.has_edge(u, w):
                overlay.add_edge(u, w)
                self.counters.adds += 1
                adds += 1
            else:
                break
