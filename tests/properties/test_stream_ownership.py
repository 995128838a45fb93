"""Every RNG draw comes from a stream its module owns, and runs are silent.

PROP-G, PROP-O and LTM are compared on the *same* world (Figs 5–7):
that holds only while each component draws from its own named stream,
so enabling faults, churn or another optimizer never shifts another
component's draws.  The ``owned_streams`` fixture makes every generator
the :class:`RngRegistry` hands out check, on every draw, that the
calling module owns the stream; a seeded sweep of small worlds then
covers every executed path — each overlay family on both drivers,
faults, churn, the baselines, every oracle backend and the live UDP
plane.

The same runs check the trace plane's other contract: the run reports
through the injected Tracer only, so nothing reaches stdout, stderr or
a ``logging`` handler (a log line would bypass the trace's exactly-once
accounting and drag wall-clock timestamps into decision code).
"""

from __future__ import annotations

import logging
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.ltm import LTMConfig
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.live.transport import udp_loopback_available
from repro.netsim.rng import RngRegistry, derive_seed
from repro.workloads.churn import ChurnConfig

#: stream name (or its family before the ``:``) -> the modules or
#: packages allowed to draw from it.
STREAM_OWNERS: dict[str, tuple[str, ...]] = {
    # both drivers draw through the one decision core, never the message
    # plane around it
    "prop:engine": ("repro.core",),
    "net:faults": ("repro.net.faults",),
    "ltm:engine": ("repro.baselines",),
    "pis": ("repro.baselines",),
    # the live traffic generator prices each lookup with the workload
    # sampler, so its stream is drawn inside repro.workloads
    "live:traffic": ("repro.live", "repro.workloads"),
    "churn": ("repro.workloads",),
    "heterogeneity": ("repro.workloads",),
    "topology": ("repro.topology",),
    "oracle": ("repro.topology",),
    "membership": ("repro.harness",),
    "lookup-workload": ("repro.workloads", "repro.harness"),
    "overlay:gnutella": ("repro.overlay",),
    # the structured families' ring order is a permutation the harness
    # draws from the overlay's own stream before building it
    "overlay": ("repro.overlay", "repro.harness"),
}

_DRAWS = sorted(
    name for name, attr in vars(np.random.Generator).items()
    if not name.startswith("_") and callable(attr) and name != "spawn"
)


def _owners(stream: str) -> tuple[str, ...]:
    owners = STREAM_OWNERS.get(stream) or STREAM_OWNERS.get(stream.partition(":")[0])
    assert owners, f"stream {stream!r} has no owner in STREAM_OWNERS"
    return owners


class _OwnedGenerator(np.random.Generator):
    """The registry's generator, checking the caller of every draw."""

    def __init__(self, bit_generator: np.random.BitGenerator, stream: str) -> None:
        super().__init__(bit_generator)
        self.stream = stream
        self.owners = _owners(stream)


def _guarded(name: str):
    draw = getattr(np.random.Generator, name)

    def guarded(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code is guarded.__code__:  # a draw numpy makes on itself
            frame = frame.f_back
        caller = frame.f_globals.get("__name__", "?")
        assert any(caller == o or caller.startswith(o + ".") for o in self.owners), (
            f"{caller} drew {name}() from stream {self.stream!r}, "
            f"owned by {', '.join(self.owners)}"
        )
        return draw(self, *args, **kwargs)

    guarded.__name__ = name
    return guarded


for _name in _DRAWS:
    setattr(_OwnedGenerator, _name, _guarded(_name))


@pytest.fixture
def owned_streams(monkeypatch):
    """Every registry stream becomes an ownership-checking generator with
    the same ``PCG64(derive_seed(...))`` state, so draws stay bit-identical."""

    def fresh(self, name):
        return _OwnedGenerator(np.random.PCG64(derive_seed(self.master_seed, name)), name)

    monkeypatch.setattr(RngRegistry, "fresh", fresh)


SMALL = dict(preset="ts-small", n_overlay=48, duration=600.0, sample_interval=300.0,
             lookups_per_sample=40)
PROP_G = PROPConfig(policy="G")
PROP_O = PROPConfig(policy="O")
CHURN = dict(churn=ChurnConfig(0.002), n_spare=8)

SWEEP = {
    **{
        f"{kind}-{driver or 'inline'}": ExperimentConfig(
            prop=PROP_G, overlay_kind=kind, transport=driver, **SMALL)
        for kind in ("gnutella", "chord", "can", "pastry", "kademlia")
        for driver in (None, "sim")
    },
    "prop-o-faulty": ExperimentConfig(
        prop=PROP_O, transport="sim", loss=0.1, net_jitter_ms=5.0, reorder_prob=0.2,
        trace=True, **SMALL),
    "churn-inline": ExperimentConfig(prop=PROP_G, **CHURN, **SMALL),
    "churn-sim": ExperimentConfig(prop=PROP_O, transport="sim", **CHURN, **SMALL),
    "ltm": ExperimentConfig(ltm=LTMConfig(), **SMALL),
    "pis": ExperimentConfig(prop=PROP_G, overlay_kind="chord", pis_landmarks=4, **SMALL),
    "pns": ExperimentConfig(prop=PROP_G, overlay_kind="chord", pns=True, **SMALL),
    "heterogeneous": ExperimentConfig(
        prop=PROP_O, heterogeneous=True, fast_lookup_fraction=0.8, **SMALL),
    "random-probe": ExperimentConfig(prop=PROPConfig(random_probe=True), **SMALL),
    "vivaldi": ExperimentConfig(prop=PROP_G, oracle="vivaldi", **SMALL),
    "landmark": ExperimentConfig(prop=PROP_G, oracle="landmark", **SMALL),
}


def _in_repro(record: logging.LogRecord) -> bool:
    # asyncio itself logs its selector choice at DEBUG on the live plane
    return any(Path(record.pathname).is_relative_to(p) for p in repro.__path__)


def _run_silently(config, capsys, caplog):
    caplog.set_level(logging.DEBUG)  # a debug() on a decision path counts too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(config)
    out, err = capsys.readouterr()
    assert (out, err) == ("", "")
    assert [r.getMessage() for r in caplog.records if _in_repro(r)] == []
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_run_draws_only_owned_streams_and_emits_nothing(name, owned_streams, capsys, caplog):
    _run_silently(SWEEP[name], capsys, caplog)


@pytest.mark.skipif(not udp_loopback_available(),
                    reason="loopback UDP unavailable in this environment")
def test_live_udp_run_draws_only_owned_streams_and_emits_nothing(
        owned_streams, capsys, caplog):
    config = ExperimentConfig(
        prop=PROP_G, transport="udp", live_speedup=600.0, live_lookup_rate=0.05,
        **dict(SMALL, n_overlay=20))
    _run_silently(config, capsys, caplog)


def test_a_draw_outside_the_owner_fails(owned_streams):
    rng = RngRegistry(0).stream("net:faults")
    with pytest.raises(AssertionError, match="owned by repro.net.faults"):
        rng.random()


def test_a_stream_without_owner_fails(owned_streams):
    with pytest.raises(AssertionError, match="no owner"):
        RngRegistry(0).stream("mystery")


def test_checked_draws_are_bit_identical():
    plain = RngRegistry(7).fresh("net:faults")
    checked = _OwnedGenerator(np.random.PCG64(derive_seed(7, "net:faults")), "net:faults")
    assert checked.bit_generator.state == plain.bit_generator.state
