"""TTL random-walk probing.

Section 3.2: a probe message carries the source address, a timestamp and
a small TTL ``nhops``; every forwarder appends its identifier (so the
walk never revisits a node), decrements the TTL and forwards to a random
neighbor.  The node where the TTL hits zero is the exchange candidate
``v``, and the recorded path is the set of nodes that must never be
exchanged (they guarantee u—v connectivity after the exchange —
Theorem 1's construction).
"""

from __future__ import annotations

from typing import Container

import numpy as np

from repro.overlay.base import Overlay

__all__ = ["random_walk", "walk_step"]


def walk_step(
    overlay: Overlay, here: int, visited: Container[int], rng: np.random.Generator
) -> int | None:
    """One forwarding decision: a random unvisited neighbor of ``here``.

    ``None`` means the walk stops at ``here`` (every neighbor is already
    on the path).  The only definition of the hop rule: :func:`random_walk`
    loops over it, the message plane calls it once per ``WALK`` delivery.
    """
    options = [x for x in overlay.sorted_neighbors(here) if x not in visited]
    if not options:
        return None
    return options[int(rng.integers(0, len(options)))]


def random_walk(
    overlay: Overlay,
    u: int,
    first_hop: int,
    nhops: int,
    rng: np.random.Generator,
) -> tuple[int, list[int]]:
    """Walk ``nhops`` hops from ``u`` starting through ``first_hop``.

    Returns ``(target, path)`` where ``path`` starts at ``u`` and ends at
    ``target``.  The walk never revisits a node ("any node that receives
    this message will add an identifier like the IP address into the
    message … to avoid repetitive forwarding"); if a node has no unvisited
    neighbor the walk stops early and the current node is the target.

    ``nhops = 1`` returns ``first_hop`` itself — the degenerate
    neighbors-exchange scenario the paper shows to be ineffective.
    """
    if not overlay.has_edge(u, first_hop):
        raise ValueError(f"first hop {first_hop} is not a neighbor of {u}")
    if nhops < 1:
        raise ValueError(f"nhops must be >= 1, got {nhops}")
    path = [u, first_hop]
    visited = {u, first_hop}
    cur = first_hop
    for _ in range(nhops - 1):
        nxt = walk_step(overlay, cur, visited, rng)
        if nxt is None:
            break
        cur = nxt
        path.append(cur)
        visited.add(cur)
    return cur, path
