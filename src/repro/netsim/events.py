"""Event queue for the discrete-event engine.

A classic binary-heap agenda with three properties the protocol code
relies on:

* **Stable ordering** — events at the same timestamp fire in insertion
  order (a monotone sequence number breaks ties), so simulations are
  exactly reproducible.
* **O(log n) cancellation** — cancelling marks the event dead and the pop
  loop skips corpses; the PROP timer logic cancels and reschedules
  constantly, so cancellation must be cheap.
* **No payload restrictions** — an event is just a callback plus
  positional arguments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf
from typing import Any, Callable

__all__ = ["Event", "EventHandle", "EventQueue"]


@dataclass(slots=True, eq=False)
class Event:
    """A scheduled callback.  Ordered by ``(time, seq)``.

    A plain record: the heap holds ``(time, seq, event)`` tuples, so
    sifting compares floats and ints in C and never reaches ``__lt__``.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    args: tuple[Any, ...] = ()
    cancelled: bool = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.push`.

    Holding a handle lets the owner cancel the event or ask whether it is
    still pending.
    """

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: "EventQueue") -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def pending(self) -> bool:
        return not self._event.cancelled

    def cancel(self) -> bool:
        """Mark the event dead.  Returns ``True`` if it was still live."""
        ev = self._event
        if ev.cancelled:
            return False
        ev.cancelled = True
        queue = self._queue
        queue._live -= 1
        queue.cancels += 1
        return True


class EventQueue:
    """Min-heap agenda of :class:`Event` objects, keyed ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Cumulative telemetry counters (never reset; the profiling
        #: plane samples them per window and differences as needed).
        self.pushes = 0
        self.pops = 0
        self.cancels = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical heap length, corpses included (``heap_size - len``
        is the corpse count)."""
        return len(self._heap)

    def push(self, time: float, callback: Callable[..., None],
             args: tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``, which
        must be finite and non-negative."""
        return EventHandle(self.post(time, callback, args), self)

    def post(self, time: float, callback: Callable[..., None],
             args: tuple[Any, ...] = ()) -> Event:
        """:meth:`push` for an event nobody will cancel: the same
        event, without allocating a handle for it."""
        if not 0.0 <= time < inf:
            raise ValueError(f"cannot schedule event at time {time}")
        time = float(time)
        seq = self._seq
        ev = Event(time, seq, callback, args)
        self._seq = seq + 1
        self._live += 1
        self.pushes += 1
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def pop_due(self, t: float) -> Event | None:
        """Remove and return the next live event due at or before ``t``.

        Returns ``None`` when no live event has ``time <= t``.  Corpses
        met at the head are discarded on the way.  The popped event is
        marked dead so a late ``cancel()`` through a retained handle is
        a no-op instead of corrupting the live count.
        """
        heap = self._heap
        while heap:
            time, _, ev = heap[0]
            if ev.cancelled:
                heapq.heappop(heap)
                continue
            if time > t:
                return None
            heapq.heappop(heap)
            self._live -= 1
            self.pops += 1
            ev.cancelled = True
            return ev
        return None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises :class:`IndexError` when no live events remain.
        """
        ev = self.pop_due(inf)
        if ev is None:
            raise IndexError("pop from empty EventQueue")
        return ev

    def clear(self) -> None:
        """Drop every event; retained handles see theirs as no longer
        pending, exactly as after :meth:`pop`."""
        for _, _, ev in self._heap:
            ev.cancelled = True
        self._heap.clear()
        self._live = 0
