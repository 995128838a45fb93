"""The Var gain test and PROP-O neighbor selection.

Equation (2) of the paper:

    Var =   sum_{i in N_t0(u)} d(u, i) + sum_{i in N_t0(v)} d(v, i)
          - sum_{i in N_t1(u)} d(u, i) - sum_{i in N_t1(v)} d(v, i)

i.e. the drop in the two peers' combined neighbor-latency sums if the
hypothetical exchange happened.  Section 4.2 shows ``Var > 0`` implies
the system-wide accumulated latency decreases, so the protocol accepts
exactly when ``Var > MIN_VAR`` (= 0).

For PROP-G the hypothetical exchange is a full position swap.  It is
evaluated as a pure read: the "before" sums are the overlay's cached
per-slot sums, and the "after" sums price each peer's host against the
other's neighborhood (two O(deg) gathers) — the overlay is never
written, so a raising oracle cannot leave it half-swapped.

For PROP-O the peers must *choose* which ``m`` neighbors to trade.  The
paper fixes equal counts but leaves the selection open; we use the
natural greedy rule: each side ranks its tradable neighbors by the gain
``d(self, x) - d(other, x)`` (latency saved by handing ``x`` over) and
the pair trades the top-k prefix, with k <= m chosen to maximize the
summed gain — handing over a neighbor with negative gain can never be
forced by the equal-count constraint because the k-th pair is dropped
whenever its combined gain is negative.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from repro.overlay.base import Overlay

__all__ = ["evaluate_prop_g", "select_prop_o"]


def evaluate_prop_g(overlay: Overlay, u: int, v: int) -> float:
    """Var of a hypothetical PROP-G position swap between ``u`` and ``v``."""
    if u == v:
        raise ValueError("cannot evaluate a self-exchange")
    before = overlay.neighbor_latency_sum(u) + overlay.neighbor_latency_sum(v)
    emb = overlay.embedding
    h_u, h_v = emb.item(u), emb.item(v)
    hosts_u = emb[overlay.neighbor_index(u)]  # fancy index: private copies
    hosts_v = emb[overlay.neighbor_index(v)]
    if overlay.has_edge(u, v):
        # after the swap each peer still neighbors the other *slot*, which
        # then holds its own former host; substituting in place keeps the
        # summation order of a real swap, hence the same float
        hosts_u[hosts_u == h_v] = h_u
        hosts_v[hosts_v == h_u] = h_v
    oracle = overlay.oracle
    after = oracle.sum_to(h_v, hosts_u) + oracle.sum_to(h_u, hosts_v)
    return before - after


def _tradable(overlay: Overlay, giver: int, taker: int, forbidden: Collection[int]) -> list[int]:
    """Neighbors of ``giver`` that may legally move to ``taker``.

    Excluded: the counterpart itself, nodes on the probe walk path
    (Theorem 1's connectivity guarantee), and current neighbors of the
    taker (the move would create a duplicate edge).
    """
    out: list[int] = []
    for x in overlay.sorted_neighbors(giver):
        if x == taker or x in forbidden:
            continue
        if overlay.has_edge(taker, x):
            continue
        out.append(x)
    return out


SELECTION_POLICIES = ("greedy", "farthest", "random")


def select_prop_o(
    overlay: Overlay,
    u: int,
    v: int,
    m: int,
    forbidden: Collection[int] = (),
    *,
    selection: str = "greedy",
    rng: np.random.Generator | None = None,
) -> tuple[list[int], list[int], float]:
    """Choose the PROP-O trade between ``u`` and ``v``.

    Returns ``(give_u, give_v, var)``: the (equal-length, possibly empty)
    neighbor lists each side hands over and the resulting Var.  The trade
    size is ``min(m, |tradable_u|, |tradable_v|)``, and a trade is only
    returned when its Var is positive.

    ``selection`` picks how each side ranks its tradable neighbors (the
    paper fixes equal counts but leaves the choice open; the ablation
    benchmark compares these):

    * ``"greedy"`` (default) — rank by the exchange gain
      ``d(self, x) − d(other, x)`` and keep the gain-maximizing prefix
      (optimal under the equal-count constraint).
    * ``"farthest"`` — each side offers its farthest-away neighbors (a
      plausible heuristic that ignores the counterpart's position).
    * ``"random"`` — uniformly random tradable neighbors (requires
      ``rng``); the null selection policy.
    """
    if u == v:
        raise ValueError("cannot evaluate a self-exchange")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if selection not in SELECTION_POLICIES:
        raise ValueError(f"selection must be one of {SELECTION_POLICIES}")
    if selection == "random" and rng is None:
        raise ValueError("random selection needs an rng")
    cand_u = _tradable(overlay, u, v, forbidden)
    cand_v = _tradable(overlay, v, u, forbidden)
    k_max = min(m, len(cand_u), len(cand_v))
    if k_max == 0:
        return [], [], 0.0

    emb = overlay.embedding
    oracle = overlay.oracle

    cu = np.asarray(cand_u, dtype=np.intp)
    cv = np.asarray(cand_v, dtype=np.intp)
    du_cu = oracle.to_many(int(emb[u]), emb[cu])
    dv_cu = oracle.to_many(int(emb[v]), emb[cu])
    dv_cv = oracle.to_many(int(emb[v]), emb[cv])
    du_cv = oracle.to_many(int(emb[u]), emb[cv])
    gain_u = du_cu - dv_cu
    gain_v = dv_cv - du_cv

    if selection == "greedy":
        order_u = np.argsort(gain_u)[::-1]
        order_v = np.argsort(gain_v)[::-1]
        # Pair the i-th best of each side; keep the prefix with positive
        # combined pair gain (optimal under the equal-count constraint).
        pair_gain = gain_u[order_u[:k_max]] + gain_v[order_v[:k_max]]
        cum = np.cumsum(pair_gain)
        k = int(np.argmax(cum)) + 1
        if cum[k - 1] <= 0.0:
            return [], [], 0.0
        give_u = [int(cu[i]) for i in order_u[:k]]
        give_v = [int(cv[i]) for i in order_v[:k]]
        return give_u, give_v, float(cum[k - 1])

    if selection == "farthest":
        order_u = np.argsort(du_cu)[::-1][:k_max]
        order_v = np.argsort(dv_cv)[::-1][:k_max]
    else:  # random
        order_u = rng.permutation(len(cu))[:k_max]
        order_v = rng.permutation(len(cv))[:k_max]
    var = float(gain_u[order_u].sum() + gain_v[order_v].sum())
    if var <= 0.0:
        return [], [], 0.0
    return [int(cu[i]) for i in order_u], [int(cv[i]) for i in order_v], var
