"""Lookup workload generators.

The paper measures "average lookup latency derived from … lookup
operations": streams of (source, destination) pairs for unstructured
overlays, or (source, key) pairs for DHTs.  The Fig. 7 heterogeneity
experiment additionally biases lookup *destinations* toward fast nodes
("the destination of lookup operations will be concentrated on the
powerful nodes"), swept by the fraction of fast-targeted lookups.

:func:`sample_lookups` is the one place that knows which of these
streams each overlay family takes and how a draw is priced; the
harness sampler and the live traffic generator both call it.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.overlay.base import Overlay, RoutedOverlay
from repro.overlay.can import CANOverlay
from repro.overlay.gnutella import GnutellaOverlay

__all__ = ["uniform_pairs", "uniform_keys", "biased_target_pairs", "sample_lookups"]


def uniform_pairs(n_slots: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` uniform (src, dst) slot pairs with ``src != dst``."""
    if n_slots < 2:
        raise ValueError("need at least two slots")
    src = rng.integers(0, n_slots, size=k)
    dst = rng.integers(0, n_slots - 1, size=k)
    dst = np.where(dst >= src, dst + 1, dst)
    return np.stack([src, dst], axis=1).astype(np.intp)


def uniform_keys(n_slots: int, space: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` uniform (src_slot, key) DHT queries."""
    if n_slots < 1:
        raise ValueError("need at least one slot")
    src = rng.integers(0, n_slots, size=k).astype(np.int64)
    keys = rng.integers(0, space, size=k).astype(np.int64)
    return np.stack([src, keys], axis=1)


def biased_target_pairs(
    fast_slots: np.ndarray,
    slow_slots: np.ndarray,
    fast_fraction: float,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(src, dst) pairs whose destinations hit fast nodes with probability
    ``fast_fraction`` — the Fig. 7 sweep variable.

    Sources are uniform over all slots; destinations are drawn from the
    fast or slow population per a Bernoulli(``fast_fraction``) coin, and
    resampled on the rare src == dst collision.
    """
    fast_slots = np.asarray(fast_slots, dtype=np.intp)
    slow_slots = np.asarray(slow_slots, dtype=np.intp)
    if not 0.0 <= fast_fraction <= 1.0:
        raise ValueError(f"fast_fraction must be in [0, 1], got {fast_fraction}")
    if fast_fraction > 0.0 and fast_slots.size == 0:
        raise ValueError("fast_fraction > 0 but no fast slots")
    if fast_fraction < 1.0 and slow_slots.size == 0:
        raise ValueError("fast_fraction < 1 but no slow slots")
    n_slots = fast_slots.size + slow_slots.size
    src = rng.integers(0, n_slots, size=k).astype(np.intp)
    pick_fast = rng.random(k) < fast_fraction
    dst = np.empty(k, dtype=np.intp)
    n_fast = int(pick_fast.sum())
    if n_fast:
        dst[pick_fast] = fast_slots[rng.integers(0, fast_slots.size, size=n_fast)]
    if k - n_fast:
        dst[~pick_fast] = slow_slots[rng.integers(0, slow_slots.size, size=k - n_fast)]
    # resolve self-lookups by shifting the source
    clash = src == dst
    src[clash] = (src[clash] + 1) % n_slots
    still = src == dst
    src[still] = (src[still] + 1) % n_slots
    return np.stack([src, dst], axis=1)


def sample_lookups(
    overlay: Overlay,
    k: int,
    rng: np.random.Generator,
    *,
    node_delay: np.ndarray | None = None,
    ttl: int | None = None,
    retry_timeout: float | None = None,
    draw_pairs: Callable[[int, np.random.Generator], np.ndarray] | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Draw ``k`` lookups the way ``overlay``'s family takes them and price them.

    Returns ``(mean latency, source slots, destination slots)``; the
    endpoints let the caller compare against the direct latency.

    * Flooded (Gnutella) overlays take (src, dst) slot pairs — uniform,
      or ``draw_pairs(k, rng)`` when given (the Fig. 7 bias) — and the
      flood scope ``ttl`` with its ``retry_timeout`` requery; lookups
      that stay out of scope leave the mean.
    * CAN takes uniform slot pairs and routes to the centre of the
      destination's zone.
    * Key-routed DHTs take uniform keys over ``overlay.space``; the
      destination is the key's owner.

    Routed means are summed left to right (``np.mean`` sums pairwise),
    the order every committed series was produced with.
    """
    if isinstance(overlay, GnutellaOverlay):
        pairs = draw_pairs(k, rng) if draw_pairs else uniform_pairs(overlay.n_slots, k, rng)
        mean = overlay.mean_lookup_latency(
            pairs, node_delay=node_delay, ttl=ttl, retry_timeout=retry_timeout
        )
        return mean, pairs[:, 0], pairs[:, 1]
    if not isinstance(overlay, RoutedOverlay):
        raise TypeError(f"no lookup model for {type(overlay).__name__}")
    queries: Sequence[tuple[int, Any]]
    if isinstance(overlay, CANOverlay):
        pairs = uniform_pairs(overlay.n_slots, k, rng)
        src, dst = pairs[:, 0], pairs[:, 1]
        queries = [(s, overlay.zones[d].center()) for s, d in pairs.tolist()]
    else:
        keyed = uniform_keys(overlay.n_slots, overlay.space, k, rng)
        src = keyed[:, 0].astype(np.intp)
        queries = keyed.tolist()
        dst = np.fromiter((overlay.owner(key) for _, key in queries), dtype=np.intp, count=k)
    latencies = overlay.lookup_latencies(queries, node_delay)
    return float(np.add.accumulate(latencies)[-1]) / k, src, dst
