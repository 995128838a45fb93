"""Every run is a pure function of its seed, and runs are silent.

PROP-G, PROP-O and LTM are compared on the *same* world (Figs 5–7):
that holds only while a run depends on its seed alone.  One seeded
sweep of small worlds — each overlay family on both drivers, faults,
churn, the baselines, every oracle backend, the kernel profiler and the
live UDP plane — watches every executed path for the three ways a run
stops being one:

* **a foreign stream.**  The ``owned_streams`` fixture makes every
  generator the :class:`RngRegistry` hands out check, on every draw,
  that the calling module owns the stream, so enabling faults, churn or
  another optimizer never shifts another component's draws;
* **a wall clock or unseeded entropy.**  A ``sys.setprofile`` hook
  sees every C-level clock or entropy read, aliases included, and
  fails one made from a ``repro`` module outside
  :data:`WALL_CLOCK_OWNERS`; stdlib ``random`` and OS entropy fail
  everywhere.  numpy's global ``RandomState`` is Cython, which the
  profiler does not see: its state must be untouched instead;
* **hash-table order.**  Each world runs again with ``set`` and
  ``frozenset`` in the decision packages iterating in a seeded shuffled
  order, and must give the identical result.

The same hook guards the paper's guarantees, which hold only while the
overlay changes through the exchange primitives (Theorem 2's
isomorphism, PROP-O's degrees, Theorem 1's connectivity): a call of an
overlay mutator from a ``repro`` module outside
:data:`MUTATION_OWNERS` fails, and every overlay the run builds must
end with its derived views equal to the uncached formula.  A direct
write to ``Overlay.embedding`` needs no hook: the array is read-only.

The same runs check the trace plane's other contract: the run reports
through the injected Tracer only, so nothing reaches stdout, stderr or
a ``logging`` handler (a log line would bypass the trace's exactly-once
accounting and drag wall-clock timestamps into decision code).
"""

from __future__ import annotations

import dataclasses
import datetime
import gc
import logging
import os
import random
import sys
import time
import types
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cli
from repro.baselines.ltm import LTMConfig
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.live.transport import udp_loopback_available
from repro.netsim.rng import RngRegistry, derive_seed
from repro.overlay import Overlay
from repro.workloads.churn import ChurnConfig
from tests.properties.util import stale_views

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


def _within(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


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
        assert _within(caller, self.owners), (
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


#: modules that may read a wall clock: the live plane runs its protocol
#: timers on real time by design, and the profiling plane attributes wall
#: seconds without feeding them back into protocol state.  Unseeded
#: randomness belongs to no module.
WALL_CLOCK_OWNERS = ("repro.live", "repro.obs.prof")


# The hook matches the called C function itself, which every alias
# shares: ``from time import perf_counter as pc`` calls ``time.perf_counter``.
_WALL_CLOCKS = frozenset({
    time.time, time.time_ns, time.monotonic, time.monotonic_ns,
    time.perf_counter, time.perf_counter_ns, datetime.datetime.now,
    datetime.datetime.utcnow, datetime.datetime.today, datetime.date.today})
# Every draw of stdlib ``random``'s hidden instance ends in one of its two
# C methods, and a seedless ``np.random.default_rng()`` reads OS entropy
# through ``os.urandom`` (an argless ``random.Random()`` seeds in C and is
# not seen).
_ENTROPY = frozenset({os.urandom, random._inst.random, random._inst.getrandbits})
_WATCHED = _WALL_CLOCKS | _ENTROPY


#: modules that may call an overlay mutator: the overlay package, the
#: exchange executors and the baselines' own exchange primitives, and
#: the physical-topology generators.  ``replace_host`` is not a mutator
#: here: it is the churn workload's membership boundary, which keeps the
#: derived views coherent itself.
MUTATION_OWNERS = ("repro.overlay", "repro.baselines", "repro.topology", "repro.core.exchange")

_MUTATORS = frozenset({"add_edge", "remove_edge", "swap_embedding", "rewire"})


def _family(cls: type = Overlay):
    yield cls
    for sub in cls.__subclasses__():
        yield from _family(sub)


# every family is loaded by ``import repro.overlay``, so every override is here
_MUTATOR_CODES = frozenset(
    vars(cls)[name].__code__ for cls in _family() for name in _MUTATORS if name in vars(cls))
_OVERLAY_INIT = Overlay.__init__.__code__


@contextmanager
def _watched():
    """Fail every clock or entropy read a ``repro`` frame makes outside
    its owners, every draw from numpy's global ``RandomState``, every
    overlay mutator a ``repro`` module outside :data:`MUTATION_OWNERS`
    calls, and every overlay built inside whose derived views end stale.

    The read is charged to the innermost ``repro`` frame on the stack.
    A walk that meets an ``asyncio`` frame first is the event loop's
    own clock (only the live plane runs a loop), and one that meets a
    ``gc.callbacks`` entry first is a collector hook that happened to
    run on top of the run (hypothesis times collections).  The profiler
    sees no Cython call, so the legacy ``np.random.*`` functions are
    caught by the global state they advance instead.  A mutator call is
    charged to its immediate caller only: ``rewire`` calling
    ``remove_edge`` is the overlay's own business.
    """
    violations: set[str] = set()
    overlays: list[Overlay] = []
    gc_hooks = {getattr(cb, "__code__", None) for cb in gc.callbacks}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = code.co_name  # a name test first: code objects hash slowly
            if name == "__init__":
                if code is _OVERLAY_INIT:
                    overlays.append(frame.f_locals["self"])
            elif name in _MUTATORS and code in _MUTATOR_CODES:
                module = frame.f_back.f_globals.get("__name__", "")
                if module.startswith("repro.") and not _within(module, MUTATION_OWNERS):
                    owner = type(frame.f_locals["self"]).__name__
                    violations.add(f"{module} called {owner}.{name}()")
            return
        if event != "c_call" or arg not in _WATCHED:
            return
        allowed = WALL_CLOCK_OWNERS if arg in _WALL_CLOCKS else ()
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("asyncio.") or frame.f_code in gc_hooks:
                return
            if module.startswith("repro."):
                if not _within(module, allowed):
                    bound = arg.__self__  # a module, a class or random's instance
                    owner = getattr(bound, "__name__", type(bound).__name__)
                    violations.add(f"{module} called {owner}.{arg.__name__}()")
                return
            frame = frame.f_back

    before, outer = np.random.get_state(), sys.getprofile()
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(outer)
    assert not violations, sorted(violations)
    after = np.random.get_state()
    assert after[2] == before[2] and np.array_equal(after[1], before[1]), (
        "numpy's global RandomState was drawn from")
    for ov in overlays:
        assert not stale_views(ov), f"{ov!r}: {stale_views(ov)}"


#: the packages whose set iteration could reach a protocol decision
SET_ORDER_PACKAGES = ("repro.core", "repro.net", "repro.overlay", "repro.workloads",
                      "repro.baselines")

_SET_ALGEBRA = ("copy", "union", "intersection", "difference", "symmetric_difference",
                "__or__", "__ror__", "__and__", "__rand__", "__sub__", "__rsub__",
                "__xor__", "__rxor__")


def _shuffled(base: type, order: random.Random) -> type:
    """``base`` iterating in a seeded shuffled order; its algebra and
    copies stay shuffled, and ``pop`` takes the first element so drawn."""

    class Shuffled(base):
        def __iter__(self):
            items = list(base.__iter__(self))
            order.shuffle(items)
            return iter(items)

        if base is set:
            def pop(self):
                item = next(iter(self))
                self.remove(item)
                return item

    def keep_shuffled(op):
        def wrapped(self, *args):
            out = op(self, *args)
            return out if out is NotImplemented else Shuffled(out)
        return wrapped

    for name in _SET_ALGEBRA:
        setattr(Shuffled, name, keep_shuffled(getattr(base, name)))
    return Shuffled


def _shuffle_set_order(monkeypatch, seed: int) -> None:
    """Every ``set(...)`` / ``frozenset(...)`` a decision package builds
    from here on iterates in a seeded shuffled order.  Set literals and
    comprehensions keep the builtin type."""
    order = random.Random(seed)
    swaps = {"set": _shuffled(set, order), "frozenset": _shuffled(frozenset, order)}
    for name, module in list(sys.modules.items()):
        if _within(name, SET_ORDER_PACKAGES):
            for builtin, cls in swaps.items():
                monkeypatch.setattr(module, builtin, cls, raising=False)


def _exact_repr(result) -> str:
    """Every field of ``result`` with each float in its round-trip form;
    the kernel profile is wall time and is left out."""
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        return repr(dataclasses.replace(result, kernel_profile=None))


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
    "kernel-profile": ExperimentConfig(
        prop=PROP_G, transport="sim", kernel_profile=True, **SMALL),
}


def _in_repro(record: logging.LogRecord) -> bool:
    # asyncio itself logs its selector choice at DEBUG on the live plane
    return any(Path(record.pathname).is_relative_to(p) for p in repro.__path__)


def _run_silently(config, capsys, caplog):
    caplog.set_level(logging.DEBUG)  # a debug() on a decision path counts too
    with warnings.catch_warnings(record=True) as caught, _watched():
        warnings.simplefilter("always")
        result = run_experiment(config)
    out, err = capsys.readouterr()
    assert (out, err) == ("", "")
    assert [r.getMessage() for r in caplog.records if _in_repro(r)] == []
    assert [str(w.message) for w in caught] == []
    return result


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_run_draws_only_owned_streams_and_emits_nothing(
        name, owned_streams, monkeypatch, capsys, caplog):
    """...reads no clock or entropy outside its owners, and gives the
    same result whatever order its sets iterate in."""
    plain = _exact_repr(_run_silently(SWEEP[name], capsys, caplog))
    monkeypatch.undo()  # plain streams: the second pass only compares results
    _shuffle_set_order(monkeypatch, seed=len(name))
    shuffled = _exact_repr(run_experiment(SWEEP[name]))
    same = shuffled == plain  # not asserted inline: a diff of two long reprs takes minutes
    agreed = os.path.commonprefix([plain, shuffled])
    assert same, f"set order moved the result after ...{agreed[-160:]}"


@pytest.mark.skipif(not udp_loopback_available(),
                    reason="loopback UDP unavailable in this environment")
def test_live_udp_run_draws_only_owned_streams_and_emits_nothing(
        owned_streams, capsys, caplog):
    config = ExperimentConfig(
        prop=PROP_G, transport="udp", live_speedup=600.0, live_lookup_rate=0.05,
        **dict(SMALL, n_overlay=20))
    _run_silently(config, capsys, caplog)


def test_cli_run_reads_the_wall_clock_only_through_its_owners(capsys):
    """``--monitor``'s ETA is wall time, read through ``repro.obs.prof``."""
    with _watched():
        assert repro.cli.main([
            "run", "--preset", "ts-small", "--n", "48", "--policy", "G", "--duration", "600",
            "--sample-interval", "300", "--lookups", "40", "--monitor"]) == 0
    assert "[done]" in capsys.readouterr().err


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


def _called_from(module: str, fn, *args):
    """Call ``fn(*args)`` from a frame whose module is ``module``."""
    namespace = {"__name__": module, "fn": fn, "args": args}
    exec("def call():\n    return fn(*args)\n", namespace)
    return namespace["call"]()


def test_a_clock_read_outside_its_owners_fails():
    # an alias is the same C function: `from time import perf_counter as pc`
    from time import perf_counter as pc

    for fn in (time.time, pc, datetime.datetime.now):
        with pytest.raises(AssertionError, match=rf"repro.core.walk called \w+.{fn.__name__}"):
            with _watched():
                _called_from("repro.core.walk", fn)


def test_a_clock_read_inside_its_owners_passes():
    with _watched():
        _called_from("repro.live.swarm", time.monotonic)
        _called_from("repro.obs.prof", time.perf_counter_ns)


@pytest.mark.parametrize("module", ["repro.core.walk", "repro.live.swarm"])
def test_unseeded_randomness_fails_everywhere(module):
    with pytest.raises(AssertionError, match=f"{module} called Random.random"):
        with _watched():
            _called_from(module, random.random)
    with pytest.raises(AssertionError, match=f"{module} called posix.urandom"):
        with _watched():
            _called_from(module, np.random.default_rng)
    state = np.random.get_state()
    try:
        with pytest.raises(AssertionError, match="global RandomState"):
            with _watched():
                _called_from(module, np.random.rand)
    finally:
        np.random.set_state(state)


def _triangle(oracle) -> Overlay:
    ov = Overlay(oracle, np.arange(4))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        ov.add_edge(a, b)
    return ov


def test_a_mutator_called_outside_its_owners_fails(small_oracle):
    with pytest.raises(AssertionError, match=r"repro.workloads.x called Overlay.add_edge\(\)"):
        with _watched():
            _called_from("repro.workloads.x", _triangle(small_oracle).add_edge, 0, 3)


def test_a_mutator_called_inside_its_owners_passes(small_oracle):
    with _watched():
        ov = _triangle(small_oracle)
        _called_from("repro.core.exchange", ov.swap_embedding, 0, 3)
        _called_from("repro.baselines.ltm", ov.rewire, 0, 1, 0, 3)


def test_a_poisoned_neighbor_sum_fails_the_view_check(small_oracle):
    with pytest.raises(AssertionError, match=r"_nbr_sum\[0\]"):
        with _watched():
            ov = _triangle(small_oracle)
            ov._nbr_sum[0] = ov.neighbor_latency_sum(0) + 1.0


def test_a_stale_edge_cache_fails_the_view_check(small_oracle):
    """An edge added behind ``add_edge``'s back moves no version, so the
    cached edge arrays still claim to be current."""
    with pytest.raises(AssertionError, match="_edge_cache at topology_version 3"):
        with _watched():
            ov = _triangle(small_oracle)
            ov.edge_arrays()
            ov._adj[0].add(3)
            ov._adj[3].add(0)
            ov._n_edges += 1


def test_an_order_dependent_result_fails_under_shuffled_sets(monkeypatch):
    picker = types.ModuleType("repro.core.picker")
    exec("def pick(values):\n    return list(set(values))\n", picker.__dict__)
    monkeypatch.setitem(sys.modules, picker.__name__, picker)
    plain = picker.pick(range(32))
    _shuffle_set_order(monkeypatch, seed=0)
    assert picker.pick(range(32)) != plain
    assert sorted(picker.pick(range(32))) == plain
