"""Baseline location-aware mechanisms the paper compares against.

* :mod:`~repro.baselines.ltm` — Location-aware Topology Matching (Liu et
  al., TPDS'05) for unstructured overlays: detector floods, cutting of
  inefficient links, adding of closer neighbors.
* :mod:`~repro.baselines.pns` — Proximity Neighbor Selection for Chord:
  each finger entry picks the physically closest node from its valid
  identifier interval.
* :mod:`~repro.baselines.pis` — Proximity Identifier Selection:
  landmark-ordered identifier assignment so that id-adjacent nodes are
  physically close.
"""

from repro.baselines.ltm import LTMConfig, LTMCounters, LTMOptimizer
from repro.baselines.pis import landmark_vectors, pis_embedding
from repro.baselines.pns import PNSChordOverlay

__all__ = [
    "LTMConfig",
    "LTMCounters",
    "LTMOptimizer",
    "PNSChordOverlay",
    "landmark_vectors",
    "pis_embedding",
]
