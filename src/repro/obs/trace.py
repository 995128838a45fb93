"""The event bus: :class:`Tracer` and the zero-cost :class:`NullTracer`.

Instrumentation sites follow one pattern::

    if self.tracer.enabled:
        self.tracer.emit(ProbeEvent, u=u, s=s, cycle=cycle)

With the default :class:`NullTracer` the hot path pays exactly one
attribute check — the event object is never constructed.  A real
:class:`Tracer` stamps each event with the simulation clock it was
handed at construction and, in the default **buffered** mode, appends it
to an in-memory list; the list is plain picklable dataclasses, so a
worker process can ship its trace back through
:func:`repro.harness.sweep.run_sweep` unchanged.

**Streaming** mode (``streaming=True``) is the active half of the
observability plane: each event is dispatched to the registered
:class:`TraceConsumer` subscribers and then *discarded*, so a long run
retains the consumers' aggregate state instead of O(events) of raw
trace.  Consumers observe the identical event sequence in either mode —
the byte-determinism guarantee extends to what subscribers see, so a
consumer fed a buffered trace's events in a loop ends in the state a
streaming run of the same seed leaves it in.

The tracer deliberately has no I/O of its own: :func:`write_events_jsonl`
writes a finished trace.  Keeping events in memory until the run ends is
what makes the serial and multi-process traces byte-identical (workers
cannot interleave writes into one file).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Protocol

from repro.obs.events import Event, events_to_jsonl

__all__ = [
    "NullTracer",
    "TraceConsumer",
    "Tracer",
    "TracerLike",
    "NULL_TRACER",
    "write_events_jsonl",
]


class TracerLike(Protocol):
    """What instrumented code needs from a tracer."""

    enabled: bool

    def emit(self, event_cls: type[Event], **payload: object) -> None:
        """Record one event (no-op when tracing is off)."""
        ...  # pragma: no cover - protocol signature


class TraceConsumer(Protocol):
    """A streaming subscriber on the tracer bus.

    Consumers receive every event in emission order (nondecreasing
    simulation time) and a final :meth:`finish` when the run ends, so
    they can flush open state.  Consumer state must be picklable: worker
    processes ship their consumers back whole, exactly as buffered
    tracers ship their event lists.
    """

    def on_event(self, event: Event) -> None:
        """Observe one event."""
        ...  # pragma: no cover - protocol signature

    def finish(self, end_time: float) -> None:
        """The run ended at simulated ``end_time``; flush open state."""
        ...  # pragma: no cover - protocol signature


class NullTracer:
    """Tracing disabled: ``enabled`` is False and ``emit`` is a no-op.

    Instrumentation sites guard on ``enabled`` before building the
    event, so a disabled run never pays for payload construction.
    """

    enabled: bool = False

    def emit(self, event_cls: type[Event], **payload: object) -> None:
        pass


#: Shared default instance — the tracer is stateless when disabled.
NULL_TRACER = NullTracer()


def write_events_jsonl(events: Iterable[Event], path: str | Path) -> Path:
    """Write ``events`` to ``path`` in canonical JSONL form.

    The single write path for traces: parent directories are created,
    the content is exactly :func:`~repro.obs.events.events_to_jsonl`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(events_to_jsonl(events), encoding="utf-8")
    return path


class Tracer:
    """Sim-time-stamped event collector with optional streaming dispatch.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time;
        typically ``lambda: sim.now``.  Defaults to a constant 0.0 for
        unit tests that construct events outside a simulation.
    streaming:
        When True, events are dispatched to ``consumers`` and then
        discarded instead of buffered — memory stays bounded by the
        consumers' aggregate state for arbitrarily long runs.
        ``events`` stays empty in this mode.
    consumers:
        Initial :class:`TraceConsumer` subscribers.  Consumers are
        notified in registration order on every emit, in both modes.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        streaming: bool = False,
        consumers: Iterable[TraceConsumer] = (),
    ) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else lambda: 0.0
        self.streaming = bool(streaming)
        self.consumers: list[TraceConsumer] = list(consumers)
        self.events: list[Event] = []
        self._closed = False

    def add_consumer(self, consumer: TraceConsumer) -> None:
        """Subscribe ``consumer`` to every subsequent event."""
        self.consumers.append(consumer)

    def emit(self, event_cls: type[Event], **payload: object) -> None:
        # Hot path: when streaming with no subscribers the event would
        # be constructed and immediately discarded, so skip construction
        # entirely; consumers observe identical sequences either way.
        consumers = self.consumers
        if self.streaming:
            if not consumers:
                return
            event = event_cls(time=self._clock(), **payload)  # type: ignore[arg-type]
            for consumer in consumers:
                consumer.on_event(event)
            return
        event = event_cls(time=self._clock(), **payload)  # type: ignore[arg-type]
        if consumers:
            for consumer in consumers:
                consumer.on_event(event)
        self.events.append(event)

    def close(self, end_time: float | None = None) -> None:
        """Notify consumers the run ended (idempotent).

        ``end_time`` defaults to the clock's current reading; pass the
        run's final sample time explicitly so window flushes do not
        depend on where the clock happened to stop.
        """
        if self._closed:
            return
        self._closed = True
        final = float(end_time) if end_time is not None else float(self._clock())
        for consumer in self.consumers:
            consumer.finish(final)

    def __len__(self) -> int:
        return len(self.events)
