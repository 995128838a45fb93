"""Kernel cost observatory: the wall-clock profiling plane.

The simulation core is wall-clock-free by design (reprolint D1): sim
time is the only time protocol code may observe.  Knowing where the
*real* seconds go — timer firing, message dispatch, Var collection,
heap churn, metric sampling — is an observability concern, so the
profiling plane lives here and is sanctioned explicitly in reprolint's
``WALLCLOCK_ALLOW`` (deterministic by *exclusion*: nothing in this
module feeds back into protocol state, so wall-clock reads here cannot
perturb a run).

Design mirrors the Tracer's zero-cost-when-off contract:

* ``Simulator.profiler`` is ``None`` by default and the dispatch loop
  pays exactly one attribute check per ``run_until`` call.
* With a :class:`KernelProfiler` attached, every event popped at the
  engine's single dispatch point is attributed by
  :func:`classify_event` to a **closed category registry**
  (:data:`CATEGORIES`): timer fires by timer kind, message deliveries
  by wire type, churn, plus harness stages (world build, metric
  sampling).  Unrecognized callbacks land in ``event:other`` — the
  registry never grows at runtime, so profiles from different runs are
  always comparable.  On the live plane the UDP transport brackets each
  handler call the same way (``deliver:<T>``) and each awaited
  ``run_until`` is a window.
* The attribution **exactly partitions** the profiled wall time: all
  arithmetic is integer nanoseconds and the ``untracked`` residual is
  computed as ``total_ns - sum(categories)``, so
  ``sum(categories) + untracked == total`` holds to the nanosecond
  (pinned by test).

Each simulator ``run_until`` window also appends event-heap telemetry
(live size, corpse ratio, cumulative pushes/pops/cancels) to
:attr:`KernelProfiler.heap_samples`.  A finished :class:`KernelProfile`
is a flat category -> nanoseconds table; its :meth:`KernelProfile.to_dict`
form is the ``profile`` section of the run record, which ``repro show``
renders with :meth:`KernelProfile.table` and ``repro compare`` diffs
category by category.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "CATEGORIES",
    "KernelProfile",
    "KernelProfiler",
    "classify_event",
    "wall_monotonic",
]

#: Wire grammar, mirrored from :data:`repro.net.messages.MSG_TYPES`.
#: Mirrored rather than imported because the obs package never imports
#: from the engines (they import it); a test pins the two in sync.
_MSG_TYPE_NAMES = (
    "WALK",
    "VAR_PROBE",
    "VAR_REPLY",
    "EXCHANGE_PREPARE",
    "EXCHANGE_COMMIT",
    "EXCHANGE_ABORT",
    "NOTIFY",
)

#: The closed category registry.  ``deliver:<T>`` covers message
#: delivery by wire type (Var collection = VAR_PROBE/VAR_REPLY, the
#: exchange 2PC phases = EXCHANGE_*), ``timer:*`` covers timer fires by
#: kind, ``build``/``sample`` are harness stages, ``event:other`` is
#: the in-window catch-all and ``untracked`` the arithmetic residual.
CATEGORIES: tuple[str, ...] = (
    "build",
    "sample",
    "timer:probe",
    "timer:walk",
    "timer:vote",
    "timer:prepared",
    "timer:periodic",
    "timer:round",
    "churn",
    *(f"deliver:{name}" for name in _MSG_TYPE_NAMES),
    "event:other",
    "untracked",
)

_CATEGORY_SET = frozenset(CATEGORIES)

#: Scheduled-callback name -> category.  These are the engine-plane
#: callbacks that reach the simulator's dispatch point; anything not
#: listed is ``event:other`` (the registry is closed on purpose).
_TIMER_BY_NAME: dict[str, str] = {
    "_probe_cycle": "timer:probe",
    "_walk_timeout": "timer:walk",
    "_vote_timeout": "timer:vote",
    "_prepared_timeout": "timer:prepared",
    "_fire": "timer:periodic",
    "_round": "timer:round",
    "_churn_event": "churn",
}

_DELIVER_BY_TYPE: dict[str, str] = {
    name: f"deliver:{name}" for name in _MSG_TYPE_NAMES
}


# -- sanctioned wall-clock reads ----------------------------------------

def wall_monotonic() -> float:
    """Monotonic wall seconds for presentation-side use (ETA display).

    CLI code must route wall-clock reads through here instead of
    importing :mod:`time` directly: this module is the D1 allowlist
    entry, so the sanctioned surface stays greppable and explicit.
    """
    return time.monotonic()


# -- classification -----------------------------------------------------

def classify_event(callback: Callable[..., None], args: tuple[Any, ...]) -> str:
    """Map a dispatched event to its registry category.

    Message deliveries are recognized by the transport's ``_deliver``
    callback carrying the message as ``args[0]``, or its
    ``_deliver_batch`` callback carrying one instant's inert messages as
    ``args[0]`` — filed under the first one's type, so
    ``deliver:VAR_PROBE`` counts ping batches; timer fires by the
    callback's name.  The return value is always a member of
    :data:`CATEGORIES`.
    """
    name = getattr(callback, "__name__", "")
    msg = None
    if name == "_deliver" and args:
        msg = args[0]
    elif name == "_deliver_batch" and args and args[0]:
        msg = args[0][0]
    cat = _DELIVER_BY_TYPE.get(getattr(msg, "type_name", ""))
    if cat is not None:
        return cat
    return _TIMER_BY_NAME.get(name, "event:other")


# -- the profiler -------------------------------------------------------

class KernelProfiler:
    """Attributes wall-clock nanoseconds to the closed category registry.

    Lifecycle: the harness creates one, assigns it to
    ``Simulator.profiler``, and the engine brackets each ``run_until``
    with :meth:`begin_window`/:meth:`end_window` and each dispatched
    event with :meth:`begin_event`/:meth:`end_event`.  On the live plane
    the harness brackets each awaited ``Swarm.run_until`` as a window
    and ``UdpTransport.profiler`` brackets each handler call.  Harness stages
    outside the dispatch loop (world build, metric sampling) go through
    :meth:`stage`, which accrues into both the category and the total
    so the partition invariant holds globally.

    All accumulation is integer nanoseconds; the ``untracked`` residual
    (window time not inside any event) is exact by construction.
    """

    def __init__(self) -> None:
        self.category_ns: dict[str, int] = {}
        self.category_counts: dict[str, int] = {}
        self.total_ns = 0
        self.events = 0
        self.windows = 0
        self.heap_samples: list[dict[str, float]] = []
        self._window_start = 0
        self._event_start = 0

    # -- window bracketing (one window per run_until call) --------------

    def begin_window(self) -> None:
        self._window_start = time.perf_counter_ns()

    def end_window(self, sim: Any) -> None:
        self.total_ns += time.perf_counter_ns() - self._window_start
        self.windows += 1
        queue = getattr(sim, "queue", None)
        if queue is None:
            return
        heap_size = queue.heap_size
        live = len(queue)
        self.heap_samples.append(
            {
                "t": sim.now,
                "live": live,
                "heap": heap_size,
                "corpse_ratio": round((heap_size - live) / heap_size, 6) if heap_size else 0.0,
                "pushes": queue.pushes,
                "pops": queue.pops,
                "cancels": queue.cancels,
            }
        )

    # -- per-event bracketing (engine dispatch point) --------------------

    def begin_event(self) -> None:
        self._event_start = time.perf_counter_ns()

    def end_event(self, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        elapsed = time.perf_counter_ns() - self._event_start
        category = classify_event(callback, args)
        self.category_ns[category] = self.category_ns.get(category, 0) + elapsed
        self.category_counts[category] = self.category_counts.get(category, 0) + 1
        self.events += 1

    # -- harness stages --------------------------------------------------

    @contextmanager
    def stage(self, category: str) -> Iterator[None]:
        """Time a harness-side block under a registry category.

        Stage time accrues into both the category and the grand total,
        so the partition invariant covers stage categories too.
        """
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown profile category {category!r}")
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            self.category_ns[category] = self.category_ns.get(category, 0) + elapsed
            self.category_counts[category] = self.category_counts.get(category, 0) + 1
            self.total_ns += elapsed

    # -- finalization ----------------------------------------------------

    def finish(self, *, sim_seconds: float | None = None) -> "KernelProfile":
        """Freeze the accumulated state into a :class:`KernelProfile`."""
        tracked = sum(self.category_ns.values())
        heap: dict[str, Any] = {}
        if self.heap_samples:
            last = self.heap_samples[-1]
            heap = {
                "final_live": last["live"],
                "final_heap": last["heap"],
                "final_corpse_ratio": last["corpse_ratio"],
                "max_heap": max(s["heap"] for s in self.heap_samples),
                "pushes": last["pushes"],
                "pops": last["pops"],
                "cancels": last["cancels"],
            }
            if sim_seconds:
                heap["pushes_per_sim_s"] = round(last["pushes"] / sim_seconds, 3)
                heap["pops_per_sim_s"] = round(last["pops"] / sim_seconds, 3)
                heap["cancels_per_sim_s"] = round(last["cancels"] / sim_seconds, 3)
        return KernelProfile(
            total_ns=self.total_ns,
            untracked_ns=self.total_ns - tracked,
            events=self.events,
            windows=self.windows,
            sim_seconds=sim_seconds,
            categories=dict(sorted(self.category_ns.items())),
            counts=dict(sorted(self.category_counts.items())),
            heap=heap,
        )


# -- the frozen artifact ------------------------------------------------

def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


@dataclass
class KernelProfile:
    """A finished profile: category nanoseconds plus heap telemetry.

    :meth:`to_dict` is the run record's ``profile`` section and
    :meth:`from_dict` the record loader's check of it.
    """

    total_ns: int
    untracked_ns: int
    events: int
    windows: int
    sim_seconds: float | None
    categories: dict[str, int]
    counts: dict[str, int]
    heap: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_ns": self.total_ns,
            "untracked_ns": self.untracked_ns,
            "events": self.events,
            "windows": self.windows,
            "sim_seconds": self.sim_seconds,
            "categories": dict(sorted(self.categories.items())),
            "counts": dict(sorted(self.counts.items())),
            "heap": self.heap,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "KernelProfile":
        """Parse the :meth:`to_dict` form; ``ValueError`` says what is
        wrong: a key set, a field's type, a category outside the closed
        registry, or categories + untracked that do not sum to the total."""
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(doc, Mapping) or set(doc) != set(names):
            raise ValueError(f"profile is not an object with keys {', '.join(names)}")
        wrong = [name for name in ("total_ns", "untracked_ns", "events", "windows")
                 if not _is_int(doc[name])]
        wrong += [name for name in ("categories", "counts")
                  if not (isinstance(doc[name], Mapping)
                          and all(map(_is_int, doc[name].values())))]
        if not (doc["sim_seconds"] is None or _is_number(doc["sim_seconds"])):
            wrong.append("sim_seconds")
        if not (isinstance(doc["heap"], Mapping) and all(map(_is_number, doc["heap"].values()))):
            wrong.append("heap")
        if wrong:
            raise ValueError(f"profile field is malformed: {', '.join(wrong)}")
        unknown = sorted((set(doc["categories"]) | set(doc["counts"])) - _CATEGORY_SET)
        if unknown:
            raise ValueError(
                f"profile names categories outside the registry: {', '.join(unknown)}")
        profile = cls(**doc)
        if sum(profile.categories.values()) + profile.untracked_ns != profile.total_ns:
            raise ValueError("profile categories + untracked_ns do not sum to total_ns")
        return profile

    def table(self) -> str:
        """The attribution table, widest category first, then the heap line."""
        rows = sorted(self.categories.items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append(("untracked", self.untracked_ns))
        total = self.total_ns or 1
        lines = [f"{'category':<26} {'seconds':>10} {'share':>7} {'events':>9}"]
        for category, ns in rows:
            share = 100.0 * ns / total
            count = self.counts.get(category, 0)
            lines.append(f"{category:<26} {ns / 1e9:>10.4f} {share:>6.1f}% {count:>9}")
        lines.append(f"{'total':<26} {self.total_ns / 1e9:>10.4f} {100.0:>6.1f}% {self.events:>9}")
        if self.heap:
            lines.append("")
            lines.append("event heap: " + ", ".join(
                f"{k}={self.heap[k]}" for k in sorted(self.heap)))
        return "\n".join(lines)
