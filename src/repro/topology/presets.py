"""The two physical topology presets the paper evaluates on.

The conference text describes the presets qualitatively ("ts-large has a
larger backbone and sparser edge network than ts-small"; both contain
roughly the same number of hosts) but the OCR dropped the exact counts.
The parameters below reconstruct that contrast at the documented ~6000
host scale:

* ``ts-large``: 10 transit domains x 10 transit nodes, 3 stub domains per
  transit node, 20 hosts per stub domain -> 100 transit + 6000 stub.
  A big, 100-router backbone with many small edge networks: two random
  stub hosts almost always live in different transit domains, so
  exchanges move traffic across the expensive backbone — the regime where
  PROP helps most.
* ``ts-small``: 2 transit domains x 5 transit nodes, 6 stub domains per
  transit node, 100 hosts per stub domain -> 10 transit + 6000 stub.
  A tiny backbone with huge edge networks: most host pairs already share
  a domain, leaving less mismatch for PROP to repair.

Latency constants (5 / 20 / 100 ms for stub-stub / stub-transit /
transit-transit) follow the LTM paper (Liu et al., TPDS'05) and the
journal version of this paper.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.rng import RngRegistry
from repro.topology.transit_stub import (
    LinkLatencies,
    PhysicalNetwork,
    TransitStubParams,
    generate_transit_stub,
)

__all__ = [
    "TS_LARGE",
    "TS_SMALL",
    "preset_params",
    "ts_large",
    "build_preset",
]

_PAPER_LATENCIES = LinkLatencies(stub_stub=5.0, stub_transit=20.0, transit_transit=100.0)

TS_LARGE = TransitStubParams(
    transit_domains=10,
    transit_nodes_per_domain=10,
    stub_domains_per_transit=3,
    stub_nodes_per_domain=20,
    latencies=_PAPER_LATENCIES,
)

TS_SMALL = TransitStubParams(
    transit_domains=2,
    transit_nodes_per_domain=5,
    stub_domains_per_transit=6,
    stub_nodes_per_domain=100,
    latencies=_PAPER_LATENCIES,
)

_PRESETS = {"ts-large": TS_LARGE, "ts-small": TS_SMALL}


def preset_params(name: str) -> TransitStubParams:
    """Look up transit-stub preset parameters (``ts-large`` / ``ts-small``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown transit-stub preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


def build_preset(name: str, rng: np.random.Generator) -> PhysicalNetwork:
    """Generate a named preset topology: ``ts-large`` or ``ts-small``."""
    return generate_transit_stub(preset_params(name), rng)


def ts_large(seed: int = 0) -> PhysicalNetwork:
    """Convenience constructor for the ``ts-large`` preset."""
    return build_preset("ts-large", RngRegistry(seed).stream("topology:ts-large"))
