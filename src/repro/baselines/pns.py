"""PNS — Proximity Neighbor Selection for Chord.

The structured-overlay baseline family of the paper's Section 2
(Castro et al., MSR-TR-2002-82; Gummadi et al., SIGCOMM'03).  Chord's
``k``-th finger may legally point at *any* node whose identifier lies in
the interval ``[id + 2^k, id + 2^{k+1})``; plain Chord uses the first
(the successor of ``id + 2^k``), PNS uses the one physically closest to
the finger's owner.

The paper's criticism — "the entries in routing table are deterministic
in systems like Chord …, where the PNS scheme cannot be applied
directly" — refers to strict Chord, whose finger definition admits only
the interval successor.  Like the literature it cites, this module
implements the relaxed-finger variant (routing stays correct because any
interval member is a valid closest-preceding candidate).  PNS is
*protocol-dependent*; PROP-G runs on anything.  The combination bench
(``bench_combination_pns``) layers PROP-G's identifier swaps on top of a
PNS-built table and calls :meth:`PNSChordOverlay.refresh` to re-pick
fingers against the updated embedding, reproducing the "combining …
further improves" claim.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.chord import ChordOverlay

__all__ = ["PNSChordOverlay"]


class PNSChordOverlay(ChordOverlay):
    """Chord with proximity-selected fingers."""

    def _build_fingers(self) -> None:
        """Per finger interval, pick the physically closest member.

        The interval of finger ``k`` is the set of slots whose id lies in
        ``[id_i + 2^k, id_i + 2^{k+1})`` (clockwise).  Empty intervals
        contribute nothing; the successor link (finger 0 candidate set
        always contains the ring successor) keeps routing live.
        """
        n = self.n_slots
        emb = self.embedding
        oracle = self.oracle
        self.fingers = []
        self.finger_dist = []
        for i in range(n):
            base = self._id[i]
            targets: list[int] = []
            seen: set[int] = set()
            # Always keep the immediate successor: greedy routing's last
            # hop and the ring's connectivity backbone.
            succ = (i + 1) % n
            seen.add(succ)
            targets.append(succ)
            for k in range(self.bits):
                lo = (base + (1 << k)) % self.space
                hi = (base + (1 << (k + 1))) % self.space
                members = self._slots_in_interval(lo, hi)
                members = [j for j in members if j != i]
                if not members:
                    continue
                cand = np.asarray(members, dtype=np.intp)
                best = int(cand[np.argmin(oracle.to_many(int(emb[i]), emb[cand]))])
                if best not in seen:
                    seen.add(best)
                    targets.append(best)
            self._add_fingers(i, targets)

    def _slots_in_interval(self, lo: int, hi: int) -> list[int]:
        """Slots whose id lies in the clockwise half-open interval [lo, hi)."""
        import bisect

        ids = self._id
        n = self.n_slots
        if lo == hi:
            return []
        a = bisect.bisect_left(ids, lo)
        b = bisect.bisect_left(ids, hi)
        if lo < hi:
            return list(range(a, b))
        return list(range(a, n)) + list(range(0, b))

    def refresh(self) -> None:
        """Re-run proximity finger selection against the current embedding.

        Deployed PNS re-measures candidates during routine maintenance;
        after PROP-G identifier swaps this brings the finger choices back
        in line with physical reality.
        """
        # tear down the old logical graph
        for a in range(self.n_slots):
            for b in sorted(self._adj[a]):
                if a < b:
                    self.remove_edge(a, b)
        self._build_fingers()
        self._build_edges()
