"""The paper's figure configurations: the one definition of Figs 5–7.

Each figure id (``fig5a`` … ``fig7``) maps to the labelled config sweep
that regenerates it, at ``paper`` scale (n = 1000 — exactly the sweep
``benchmarks/bench_fig*`` runs) or ``quick`` scale (n = 200, a laptop
sanity pass).  The CLI (``python -m repro figure fig6a``) and the
benches run these sweeps; ``benchmarks/common`` builds on :data:`PAPER`
and :data:`FIG7`.
"""

from __future__ import annotations

from repro.baselines.ltm import LTMConfig
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig

__all__ = ["FIG7", "FIGURE_IDS", "PAPER", "figure_configs", "figure_description"]

_DESCRIPTIONS = {
    "fig5a": "PROP-G / Gnutella: lookup latency vs time, varying probe TTL",
    "fig5b": "PROP-G / Gnutella: lookup latency vs time, varying system size",
    "fig5c": "PROP-G / Gnutella: lookup latency vs time, two topologies",
    "fig6a": "PROP-G / Chord: stretch vs time, varying probe TTL",
    "fig6b": "PROP-G / Chord: stretch vs time, varying system size",
    "fig6c": "PROP-G / Chord: stretch vs time, two topologies",
    "fig7": "heterogeneous bimodal delays: PROP-O vs PROP-G vs LTM over fast-lookup fractions",
    "oracle-error": "PROP-G convergence under exact vs vivaldi (dims) vs landmark oracles",
}

FIGURE_IDS = tuple(sorted(_DESCRIPTIONS))

# Section 5.1 defaults: ts-large, n = 1000, probe timer 60 s.  One
# simulated hour with 6-minute samples covers warm-up (10 probes) and
# the converged tail.
PAPER = dict(preset="ts-large", n_overlay=1000, duration=3600.0, sample_interval=360.0,
             lookups_per_sample=1000)
QUICK = dict(PAPER, n_overlay=200, duration=1200.0, sample_interval=300.0,
             lookups_per_sample=200)

# Section 5.3 heterogeneous environment: bimodal processing delay
# (fast 1 ms / slow 100 ms, 50 % fast — the Dabek-style setting), fast
# hosts attract more connections, floods are TTL-7 scoped with requery.
_HETEROGENEOUS = dict(heterogeneous=True, fast_fraction=0.5, fast_ms=1.0, slow_ms=100.0,
                      fast_degree_weight=8.0, flood_ttl=7,
                      overlay_options={"min_degree": 3, "mean_extra_degree": 3.0})
FIG7 = dict(PAPER, duration=1800.0, sample_interval=900.0, lookups_per_sample=600,
            **_HETEROGENEOUS)

#: Per scale: base world, Fig 7 world, Fig 5(b)/6(b) sizes, Fig 7 fractions.
_SCALES = {
    "paper": (PAPER, FIG7, (300, 500, 1000, 5000), (0.0, 0.25, 0.5, 0.75, 1.0)),
    "quick": (QUICK, dict(QUICK, **_HETEROGENEOUS), (100, 200, 400), (0.0, 0.5, 1.0)),
}

#: Fig 6 measures at most this many Chord lookups per sample.
CHORD_LOOKUPS = 600

_FIG7_PROTOCOLS = {
    "PROP-O (m=1)": dict(prop=PROPConfig(policy="O", m=1)),
    "PROP-O (m=2)": dict(prop=PROPConfig(policy="O", m=2)),
    "PROP-O (m=4)": dict(prop=PROPConfig(policy="O", m=4)),
    "PROP-G": dict(prop=PROPConfig(policy="G")),
    "LTM": dict(ltm=LTMConfig(max_cuts_per_round=4)),
    "none": {},
}


def figure_description(figure_id: str) -> str:
    try:
        return _DESCRIPTIONS[figure_id]
    except KeyError:
        raise KeyError(f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}") from None


def _config(base: dict, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**base, **overrides})


def figure_configs(figure_id: str, *, scale: str = "paper") -> dict[str, ExperimentConfig]:
    """The labelled config sweep behind one figure."""
    figure_description(figure_id)  # validate id
    if scale not in _SCALES:
        raise ValueError(f"scale must be 'paper' or 'quick', got {scale!r}")
    world, het_world, sizes, fractions = _SCALES[scale]

    if figure_id == "fig7":
        return {f"{label} phi={phi}": _config(
                    het_world, overlay_kind="gnutella", fast_lookup_fraction=phi, **kw)
                for label, kw in _FIG7_PROTOCOLS.items() for phi in fractions}

    if figure_id == "oracle-error":
        # Beyond-paper: the same PROP-G deployment driven by each latency
        # backend.  Embedding error shows up as convergence loss, so the
        # curves separate exactly where the oracle misranks neighbors.
        backends: dict[str, dict] = {
            "exact": dict(oracle="exact"),
            "vivaldi dim=2": dict(oracle="vivaldi", oracle_options={"dim": 2}),
            "vivaldi dim=4": dict(oracle="vivaldi", oracle_options={"dim": 4}),
            "vivaldi dim=8": dict(oracle="vivaldi", oracle_options={"dim": 8}),
            "landmark": dict(oracle="landmark"),
        }
        return {
            label: _config(world, overlay_kind="gnutella", prop=PROPConfig(policy="G"), **kw)
            for label, kw in backends.items()
        }

    # Fig 5 (Gnutella, lookup latency) and Fig 6 (Chord, stretch):
    # panel a varies the probe TTL, b the system size, c the topology
    kind = "gnutella" if figure_id.startswith("fig5") else "chord"
    lookups = world["lookups_per_sample"]
    if kind == "chord":
        lookups = min(CHORD_LOOKUPS, lookups)
    prop_g = PROPConfig(policy="G", nhops=2)
    if figure_id.endswith("a"):
        probes = {
            "nhops=1": PROPConfig(policy="G", nhops=1),
            "nhops=2": prop_g,
            "nhops=4": PROPConfig(policy="G", nhops=4),
            "random": PROPConfig(policy="G", random_probe=True),
        }
        return {f"n={world['n_overlay']}, {label}": _config(
                    world, overlay_kind=kind, prop=prop, lookups_per_sample=lookups)
                for label, prop in probes.items()}
    if figure_id.endswith("b"):
        return {f"n={n}, nhops=2": _config(
                    world, overlay_kind=kind, n_overlay=n, prop=prop_g,
                    lookups_per_sample=min(lookups, 2 * n))
                for n in sizes}
    return {preset: _config(
                world, overlay_kind=kind, preset=preset, prop=prop_g, lookups_per_sample=lookups)
            for preset in ("ts-large", "ts-small")}
