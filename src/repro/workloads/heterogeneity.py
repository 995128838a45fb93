"""Bimodal node heterogeneity (the Fig. 7 environment).

Section 5.3: "There are two kinds of nodes — fast and slow.  The
processing delay of the fast nodes is 1 ms, while the delay of the slow
ones is [100] ms.  The fraction of fast nodes is [50] % of the total
population: the overall setting is similar to that in [Dabek et al.]."
(The two bracketed numerals were dropped by the OCR of the conference
text; the values used here are the Dabek et al. NSDI'04 setting the
sentence points to — see DESIGN.md §5.)

Processing delay is a property of the *host* (the physical machine), not
of the overlay slot it currently occupies: after PROP-G position swaps a
slow host can sit in a former hub position, which is precisely the
phenomenon Fig. 7 measures.  Helpers are provided to view the delays in
slot space through an embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BimodalDelay", "bimodal_processing_delay", "capacity_weights_from_delay"]


@dataclass(frozen=True)
class BimodalDelay:
    """Per-host bimodal processing delays.

    Attributes
    ----------
    delay_ms:
        Processing delay of each host (member index space).
    is_fast:
        Boolean mask over hosts.
    """

    delay_ms: np.ndarray
    is_fast: np.ndarray

    def slot_delays(self, embedding: np.ndarray) -> np.ndarray:
        """Processing delay per overlay *slot* under ``embedding``."""
        return self.delay_ms[embedding]

    def fast_slots(self, embedding: np.ndarray) -> np.ndarray:
        """Slots currently occupied by fast hosts."""
        return np.flatnonzero(self.is_fast[embedding])

    def slow_slots(self, embedding: np.ndarray) -> np.ndarray:
        return np.flatnonzero(~self.is_fast[embedding])


def bimodal_processing_delay(
    n_hosts: int,
    rng: np.random.Generator,
    *,
    fast_fraction: float = 0.5,
    fast_ms: float = 1.0,
    slow_ms: float = 100.0,
) -> BimodalDelay:
    """Assign fast/slow processing delays to ``n_hosts`` hosts."""
    if not 0.0 <= fast_fraction <= 1.0:
        raise ValueError(f"fast_fraction must be in [0, 1], got {fast_fraction}")
    if not (0.0 < fast_ms < np.inf and 0.0 < slow_ms < np.inf):
        raise ValueError(
            f"delays must be finite and positive, got fast_ms={fast_ms}, slow_ms={slow_ms}")
    n_fast = int(round(fast_fraction * n_hosts))
    is_fast = np.zeros(n_hosts, dtype=bool)
    fast_idx = (rng.choice(n_hosts, size=n_fast, replace=False)
                if n_fast else np.empty(0, dtype=np.intp))
    is_fast[fast_idx] = True
    delay = np.where(is_fast, fast_ms, slow_ms).astype(np.float64)
    return BimodalDelay(delay_ms=delay, is_fast=is_fast)


def capacity_weights_from_delay(
    het: BimodalDelay,
    embedding: np.ndarray,
    *,
    fast_weight: float = 4.0,
) -> np.ndarray:
    """Per-slot degree weights: fast hosts attract more connections.

    The paper leans on the real-Gnutella fact that "powerful nodes …
    inherently have more connections"; a fast host's slot gets
    ``fast_weight`` times the base attachment weight during overlay
    construction.
    """
    if not 0.0 < fast_weight < np.inf:
        raise ValueError(f"fast_weight must be finite and positive, got {fast_weight}")
    return np.where(het.is_fast[embedding], fast_weight, 1.0)
