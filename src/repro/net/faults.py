"""Fault injection: a transport decorator and named partitions.

:class:`FaultyTransport` wraps any :class:`~repro.net.transport.Transport`
and injects, from its own seeded RNG stream (draw order is deterministic
per seed, independent of the protocol streams):

* **per-link loss** — ``loss`` is a probability, a ``{(src, dst): p}``
  mapping (symmetric lookup), or a callable ``(src, dst) -> p``; every
  ``p`` must lie in ``[0, 1)`` (a mapping's values are checked at
  construction, a callable's result on each call);
* **extra delay and jitter** — a fixed ``extra_delay_ms`` plus a uniform
  draw in ``[0, jitter_ms)`` per message;
* **reordering** — with probability ``reorder_prob`` a message is held
  an extra uniform ``[0, reorder_ms)``, letting later sends overtake it;
* **named partitions** — while a partition is installed, messages
  crossing between its two groups are dropped (counted separately from
  random loss).  Partitions are installed/removed by name at any time,
  so a transient partition is ``partition(...)`` + a scheduled
  ``heal(...)``.

Every decision is drawn per message, ``VAR_PROBE`` pings included, so
the draw order does not depend on how pings travel: ``send_pings`` draws
each ping's fate and delay in the order ``send`` would, then forwards
the survivors without their delays (a ping's flight time is not
modelled, see :mod:`repro.net.transport`).

:class:`PartitionSpec` is the CLI/harness grammar for transient
partitions: ``a:b`` splits the overlay into named halves for the whole
run; ``a:b@120-300`` installs the split at t=120 s and heals it at
t=300 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Real
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.net.messages import Message, VarProbe
from repro.net.transport import Handler, Transport, TransportStats, trace_tag
from repro.netsim.engine import Simulator
from repro.obs.events import (
    MsgDropEvent,
    MsgSendEvent,
    SpanEndEvent,
    SpanStartEvent,
)
from repro.obs.trace import NULL_TRACER, TracerLike

__all__ = ["FaultyTransport", "PartitionSpec"]

LossSpec = float | Mapping[tuple[int, int], float] | Callable[[int, int], float]


def _check_loss(p: float, link: tuple[int, int] | None = None) -> float:
    """``p`` if it is a loss probability, else ``ValueError`` (NaN fails
    the comparison too)."""
    if not 0.0 <= p < 1.0:
        on = "" if link is None else f" for link {link}"
        raise ValueError(f"loss probability must be in [0, 1), got {p}{on}")
    return p


class FaultyTransport:
    """Transport decorator injecting seeded faults (see module docs)."""

    def __init__(
        self,
        inner: Transport,
        rng: np.random.Generator,
        *,
        loss: LossSpec = 0.0,
        extra_delay_ms: float = 0.0,
        jitter_ms: float = 0.0,
        reorder_prob: float = 0.0,
        reorder_ms: float = 50.0,
    ) -> None:
        #: The loss probability of every link, or ``None`` when it is
        #: looked up per link; resolved here because ``send`` asks per
        #: message.
        self._uniform_loss: float | None = None
        if isinstance(loss, Mapping):
            for link, p in loss.items():
                _check_loss(float(p), link)
        elif isinstance(loss, Real):
            self._uniform_loss = _check_loss(float(loss))
        if not all(0.0 <= d < inf for d in (extra_delay_ms, jitter_ms, reorder_ms)):
            raise ValueError("delays must be finite and non-negative")
        if not 0.0 <= reorder_prob <= 1.0:
            raise ValueError(f"reorder_prob must be in [0, 1], got {reorder_prob}")
        self.inner = inner
        self.rng = rng
        self.loss = loss
        self.extra_delay_ms = float(extra_delay_ms)
        self.jitter_ms = float(jitter_ms)
        self.reorder_prob = float(reorder_prob)
        self.reorder_ms = float(reorder_ms)
        self._partitions: dict[str, tuple[frozenset[int], frozenset[int]]] = {}

    @property
    def stats(self) -> TransportStats:
        return self.inner.stats

    @property
    def tracer(self) -> TracerLike:
        return getattr(self.inner, "tracer", NULL_TRACER)

    @property
    def partitions(self) -> dict[str, tuple[frozenset[int], frozenset[int]]]:
        return dict(self._partitions)

    # -- partition management -------------------------------------------

    def partition(self, name: str, group_a: frozenset[int] | set[int],
                  group_b: frozenset[int] | set[int]) -> None:
        """Install (or replace) the named partition between two groups."""
        a, b = frozenset(group_a), frozenset(group_b)
        if a & b:
            raise ValueError(f"partition {name!r} groups overlap: {sorted(a & b)}")
        self._partitions[name] = (a, b)

    def heal(self, name: str) -> None:
        """Remove the named partition; unknown names are a no-op."""
        self._partitions.pop(name, None)

    def _severed(self, src: int, dst: int) -> bool:
        for a, b in self._partitions.values():
            if (src in a and dst in b) or (src in b and dst in a):
                return True
        return False

    # -- transport interface --------------------------------------------

    def register(self, slot: int, handler: Handler) -> None:
        self.inner.register(slot, handler)

    def _loss_for(self, src: int, dst: int) -> float:
        loss = self.loss
        if callable(loss):
            return _check_loss(float(loss(src, dst)), (src, dst))
        if isinstance(loss, Mapping):
            return float(loss.get((src, dst), loss.get((dst, src), 0.0)))
        return float(loss)

    def _drop_reason(self, src: int, dst: int) -> str | None:
        """Why a message from ``src`` to ``dst`` is dropped — a severed
        link, else the seeded loss draw — or ``None`` if it goes on."""
        if self._severed(src, dst):
            return "partition"
        p = self._uniform_loss
        if p is None:
            p = self._loss_for(src, dst)
        if p > 0.0 and float(self.rng.random()) < p:
            return "loss"
        return None

    def _delay(self, delay: float) -> float:
        """``delay`` plus the fixed extra, the jitter draw and, when the
        reorder draw says so, the reorder hold."""
        delay += self.extra_delay_ms
        if self.jitter_ms > 0.0:
            delay += float(self.rng.random()) * self.jitter_ms
        if self.reorder_prob > 0.0 and float(self.rng.random()) < self.reorder_prob:
            delay += float(self.rng.random()) * self.reorder_ms
        return delay

    def send(self, msg: Message, extra_delay_ms: float = 0.0) -> None:
        reason = self._drop_reason(msg.src, msg.dst)
        if reason is not None:
            self._drop(msg, reason)
            return
        self.inner.send(msg, extra_delay_ms=self._delay(extra_delay_ms))

    def send_pings(self, src: int, dsts: Sequence[int], cycle: int, *,
                   trace_id: int = -1, span_id: int = -1, parent_id: int = -1) -> None:
        """Each ping's fault decisions in ``send``'s draw order, the
        survivors forwarded without their delays.  The survivors between
        two drops go on in one call, so the stats and trace records keep
        the order per-ping sends would give them."""
        step = 1 if span_id >= 0 else 0
        start = 0  # first ping of the current run of survivors
        for i, dst in enumerate(dsts):
            reason = self._drop_reason(src, dst)
            if reason is None:
                self._delay(0.0)  # drawn to keep the stream's order, unused
                continue
            if start < i:
                self.inner.send_pings(src, dsts[start:i], cycle, trace_id=trace_id,
                                      span_id=span_id + step * start, parent_id=parent_id)
            self._drop(VarProbe(src=src, dst=dst, cycle=cycle, trace_id=trace_id,
                                span_id=span_id + step * i, parent_id=parent_id), reason)
            start = i + 1
        if start < len(dsts):
            self.inner.send_pings(src, dsts[start:], cycle, trace_id=trace_id,
                                  span_id=span_id + step * start, parent_id=parent_id)

    def _drop(self, msg: Message, reason: str) -> None:
        """A dropped message never reaches the inner transport, so its
        send, its drop and both trace records are booked here."""
        stats = self.inner.stats
        stats.record_send(msg.type_name, msg.size_bytes())
        stats.record_drop(msg.type_name, reason)
        tracer = self.tracer
        if tracer.enabled:
            tag = trace_tag(msg)
            tracer.emit(MsgSendEvent, mtype=msg.type_name, src=msg.src,
                        dst=msg.dst, tag=tag)
            tracer.emit(MsgDropEvent, mtype=msg.type_name, src=msg.src,
                        dst=msg.dst, tag=tag, reason=reason)
            if msg.span_id >= 0:
                # the injected drop is observable: a zero-length message
                # span closed with status "drop" (real UDP loss, by
                # contrast, leaves the span half-open)
                tracer.emit(SpanStartEvent, trace=msg.trace_id,
                            span=msg.span_id, parent=msg.parent_id,
                            name=f"msg:{msg.type_name}", node=msg.src)
                tracer.emit(SpanEndEvent, trace=msg.trace_id,
                            span=msg.span_id, status="drop")


@dataclass(frozen=True)
class PartitionSpec:
    """Parsed ``--partition`` directive: ``NAME_A:NAME_B[@START-END]``.

    The overlay is split into two contiguous halves of slots (the first
    half labelled ``name_a``, the rest ``name_b``).  Without a time
    window the partition lasts the whole run; with ``@START-END`` it is
    installed at ``start`` seconds and healed at ``end``.
    """

    name_a: str
    name_b: str
    start: float | None = None
    end: float | None = None

    @property
    def name(self) -> str:
        return f"{self.name_a}:{self.name_b}"

    @classmethod
    def parse(cls, spec: str) -> "PartitionSpec":
        body, _, window = spec.partition("@")
        parts = body.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(
                f"partition spec must look like 'a:b' or 'a:b@120-300', got {spec!r}"
            )
        start: float | None = None
        end: float | None = None
        if window:
            lo, sep, hi = window.partition("-")
            try:
                start = float(lo)
                end = float(hi) if sep else None
            except ValueError:
                raise ValueError(f"bad partition window in {spec!r}") from None
            if end is not None and end <= start:
                raise ValueError(f"partition window must end after it starts: {spec!r}")
        return cls(parts[0], parts[1], start, end)

    def groups(self, n_slots: int) -> tuple[frozenset[int], frozenset[int]]:
        """The two slot halves: ``[0, n/2)`` and ``[n/2, n)``."""
        half = n_slots // 2
        return frozenset(range(half)), frozenset(range(half, n_slots))

    def install(
        self, transport: FaultyTransport, sim: Simulator, n_slots: int
    ) -> None:
        """Apply to ``transport`` now or on schedule via ``sim``."""
        a, b = self.groups(n_slots)
        if self.start is None or self.start <= sim.now:
            transport.partition(self.name, a, b)
        else:
            sim.schedule(self.start - sim.now, transport.partition, self.name, a, b)
        if self.end is not None:
            sim.schedule(self.end - sim.now, transport.heal, self.name)
