"""Stretch (the paper's Section 4.2 definition).

"The ratio of the average logical link latency over the average physical
link latency.  It is a common parameter to quantify the degree to which
the physical and logical topology matches."

:func:`stretch` is the *link* form: the mean underlying latency of
logical edges over the mean physical link latency — exactly proportional
to the quantity the Section 4.2 Var analysis descends, so it is the
right invariant for tests.  The *routing* form the paper's Fig. 6 axes
show (end-to-end overlay route latency over the direct latency of the
same query pairs, ~2.5-5.5 for Chord at n=1000) is computed where the
queries are drawn: ``ExperimentResult.stretch`` is the ratio of the two
means :func:`repro.harness.experiment.sample_lookup_latency` returns.
"""

from __future__ import annotations

from repro.overlay.base import Overlay

__all__ = ["stretch"]


def stretch(overlay: Overlay) -> float:
    """Link stretch: mean logical edge latency / mean physical link latency."""
    denom = overlay.oracle.mean_physical_link()
    if denom <= 0:
        raise ValueError("physical network has no links")
    return overlay.mean_logical_edge_latency() / denom
