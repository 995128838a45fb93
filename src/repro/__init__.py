"""repro — reproduction of "Towards Location-aware Topology in both
Unstructured and Structured P2P Systems" (Qiu et al., ICPP 2007).

The package implements the PROP family of peer-exchange overlay
optimization protocols (PROP-G and PROP-O) together with every substrate
the paper's evaluation depends on: a GT-ITM-style transit-stub physical
network, Gnutella / Chord / CAN / Pastry overlay simulators, the LTM /
PNS / PIS baselines, workload and churn generators, and an experiment
harness regenerating each figure of the paper.

Quickstart
----------
>>> from repro import ExperimentConfig, PROPConfig, run_experiment
>>> cfg = ExperimentConfig(
...     n_overlay=100, overlay_kind="chord",
...     prop=PROPConfig(policy="G", nhops=2),
...     duration=600.0, sample_interval=120.0, lookups_per_sample=200,
... )
>>> result = run_experiment(cfg)
>>> result.final_stretch < result.initial_stretch
True
"""

from repro.baselines import LTMConfig, LTMOptimizer, PNSChordOverlay, pis_embedding
from repro.core import (
    MarkovTimer,
    NeighborQueue,
    PROPConfig,
    PROPEngine,
    ProtocolCounters,
    evaluate_prop_g,
    execute_prop_g,
    execute_prop_o,
    random_walk,
    select_prop_o,
)
from repro.harness import (
    ExperimentConfig,
    ExperimentResult,
    TaskEvent,
    World,
    build_world,
    format_series,
    format_table,
    replicate,
    run_experiment,
    run_sweep,
)
from repro.metrics import stretch
from repro.netsim import RngRegistry, Simulator
from repro.overlay import (
    CANOverlay,
    ChordOverlay,
    GnutellaOverlay,
    KademliaOverlay,
    Overlay,
    PastryOverlay,
)
from repro.topology import (
    LatencyOracle,
    PhysicalNetwork,
    TransitStubParams,
    build_preset,
    generate_transit_stub,
    ts_large,
)
from repro.workloads import (
    BimodalDelay,
    ChurnConfig,
    ChurnProcess,
    bimodal_processing_delay,
)

__version__ = "1.0.0"

__all__ = [
    "BimodalDelay",
    "CANOverlay",
    "ChordOverlay",
    "ChurnConfig",
    "ChurnProcess",
    "ExperimentConfig",
    "ExperimentResult",
    "GnutellaOverlay",
    "KademliaOverlay",
    "LTMConfig",
    "LTMOptimizer",
    "LatencyOracle",
    "MarkovTimer",
    "NeighborQueue",
    "Overlay",
    "PNSChordOverlay",
    "PROPConfig",
    "PROPEngine",
    "PastryOverlay",
    "PhysicalNetwork",
    "ProtocolCounters",
    "RngRegistry",
    "Simulator",
    "TaskEvent",
    "TransitStubParams",
    "World",
    "bimodal_processing_delay",
    "build_preset",
    "build_world",
    "evaluate_prop_g",
    "execute_prop_g",
    "execute_prop_o",
    "format_series",
    "format_table",
    "generate_transit_stub",
    "pis_embedding",
    "random_walk",
    "replicate",
    "run_experiment",
    "run_sweep",
    "select_prop_o",
    "stretch",
    "ts_large",
]
