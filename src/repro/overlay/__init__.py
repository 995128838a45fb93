"""Overlay substrates: unstructured (Gnutella) and structured (Chord, CAN, Pastry).

Every overlay is a *logical graph over slots* plus an *embedding* that
maps each slot to a physical member host (:mod:`repro.overlay.base`).
PROP-G acts on the embedding (position swap — Theorem 2's isomorphism is
then true by construction); PROP-O acts on the logical edges of
unstructured overlays (degree-preserving rewiring).
"""

from repro.overlay.base import Overlay, RoutedOverlay
from repro.overlay.can import CANOverlay, Zone
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.ids import unique_ids
from repro.overlay.pastry import PastryOverlay
from repro.overlay.ultrapeer import UltrapeerGnutellaOverlay

__all__ = [
    "CANOverlay",
    "ChordOverlay",
    "GnutellaOverlay",
    "KademliaOverlay",
    "Overlay",
    "PastryOverlay",
    "RoutedOverlay",
    "UltrapeerGnutellaOverlay",
    "Zone",
    "unique_ids",
]
