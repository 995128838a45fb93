"""PROP: the Peer-exchange Routing Optimization Protocols.

The paper's primary contribution — a family of two overlay-repair
policies built on the *peer-exchange* primitive:

* **PROP-G** (generic): two peers exchange *all* neighbors, i.e. swap
  positions in the overlay.  Works on any overlay, structured or not,
  because the logical topology is provably unchanged (Theorem 2).
* **PROP-O** (optimized): two peers exchange an equal number ``m`` of
  selected neighbors, preserving every node's degree — cheaper
  (``nhop + 2m`` messages vs ``nhop + 2c``) and capacity-respecting.

The shared machinery lives here too: TTL random-walk probing
(:mod:`~repro.core.walk`), the Var gain test (:mod:`~repro.core.varcalc`),
the exchange executors (:mod:`~repro.core.exchange`), the neighbor
priority queue (:mod:`~repro.core.neighbor_queue`), the Markov-chain
probe timer (:mod:`~repro.core.timer_policy`), and the event-driven
engine gluing it together (:mod:`~repro.core.protocol`).
"""

from repro.core.config import PROPConfig
from repro.core.exchange import execute_prop_g, execute_prop_o
from repro.core.neighbor_queue import NeighborQueue
from repro.core.protocol import ExchangeRecord, PROPEngine, ProtocolCounters
from repro.core.timer_policy import MarkovTimer
from repro.core.varcalc import evaluate_prop_g, select_prop_o
from repro.core.walk import random_walk

__all__ = [
    "ExchangeRecord",
    "MarkovTimer",
    "NeighborQueue",
    "PROPConfig",
    "PROPEngine",
    "ProtocolCounters",
    "evaluate_prop_g",
    "execute_prop_g",
    "execute_prop_o",
    "random_walk",
    "select_prop_o",
]
