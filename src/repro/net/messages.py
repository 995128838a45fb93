"""Typed protocol messages.

The PROP message grammar (docs/protocol.md has the full exchange
diagrams).  Every message is a frozen dataclass carrying the source and
destination *slots* — the transport resolves slots to hosts through the
overlay embedding at send time, exactly like a real node resolving a
peer address.

Wire-size model: sizes are estimates for the telemetry layer (bytes on
the wire per message type), not a serialization format.  A message costs
``HEADER_BYTES`` (type tag, source/destination addresses, ids and a
timestamp — the paper's probe message carries "the IP address of u, a
timestamp, and a TTL value") plus ``INT_BYTES`` per integer payload
field and per element of each slot list it carries.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, ClassVar, TypeVar

__all__ = [
    "HEADER_BYTES",
    "INT_BYTES",
    "MSG_TYPES",
    "WIRE_TYPES",
    "ExchangeAbort",
    "ExchangeCommit",
    "ExchangePrepare",
    "Message",
    "Notify",
    "PingFanout",
    "VarProbe",
    "VarReply",
    "Walk",
]

HEADER_BYTES = 28
INT_BYTES = 4


#: Bytes per payload field, by declared annotation: a fixed width, or a
#: width per element for the two kinds sized by length at call time.
_FIXED_BYTES = {"bool": 1, "int": INT_BYTES, "float": INT_BYTES}
_ELEMENT_BYTES = {"str": 1, "tuple[int, ...]": INT_BYTES}

_SizePlan = tuple[int, tuple[tuple[str, int], ...]]
_T = TypeVar("_T")


def _size_plan(cls: type) -> _SizePlan:
    """``(fixed bytes, ((sized field, bytes per element), ...))`` for
    ``cls``, read once from the declared field types instead of
    reflecting over ``fields()`` and the values on every send."""
    fixed = HEADER_BYTES
    sized: list[tuple[str, int]] = []
    for f in fields(cls):
        if f.name in ("src", "dst", "trace_id", "span_id", "parent_id"):
            continue  # addressed in the header
        if f.type in _FIXED_BYTES:
            fixed += _FIXED_BYTES[f.type]
        else:
            sized.append((f.name, _ELEMENT_BYTES[f.type]))
    return fixed, tuple(sized)


def _message(cls: type[_T]) -> type[_T]:
    """Give a ``@dataclass(frozen=True)`` message class a leaner
    ``__init__``; it goes above the ``@dataclass`` line.

    The dataclass's frozen ``__init__`` pays one ``object.__setattr__``
    call per field; this one stores into the instance ``__dict__``
    directly, with the same signature and defaults, and builds a
    message in about half the time.  Equality, ``repr``, hashing,
    :func:`~dataclasses.fields` and the
    :class:`~dataclasses.FrozenInstanceError` on assignment stay the
    dataclass's own.  The class's wire-size plan is computed here, once,
    and a fixed-width type's ``size_bytes`` returns it as a constant.
    """
    params: list[str] = []
    kw_only: list[str] = []
    namespace: dict[str, Any] = {}
    for f in fields(cls):
        param = f.name
        if f.default is not MISSING:
            namespace[f"_default_{f.name}"] = f.default
            param += f"=_default_{f.name}"
        (kw_only if f.kw_only else params).append(param)
    if kw_only:
        params += ["*", *kw_only]
    stores = "".join(f"    d[{f.name!r}] = {f.name}\n" for f in fields(cls))
    # built from source, the way the dataclasses module builds its own
    exec(f"def __init__(self, {', '.join(params)}):\n    d = self.__dict__\n{stores}",
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    setattr(cls, "__init__", init)
    fixed, sized = _size_plan(cls)
    setattr(cls, "_fixed_bytes", fixed)
    setattr(cls, "_sized_fields", sized)
    if not sized and "size_bytes" not in vars(cls):
        # a fixed-width type (the base keeps the general method, which
        # its sized subclasses inherit)
        def size_bytes(self: object) -> int:
            return fixed

        size_bytes.__doc__ = getattr(cls, "size_bytes").__doc__
        size_bytes.__qualname__ = f"{cls.__qualname__}.size_bytes"
        setattr(cls, "size_bytes", size_bytes)
    return cls


@_message
@dataclass(frozen=True)
class Message:
    """Base protocol message between two overlay slots."""

    src: int
    dst: int

    #: Causality context (docs/observability.md, "Causal spans").  Every
    #: message carries the trace it belongs to, its own span id, and the
    #: span that caused it; ``-1`` means untraced.  Keyword-only so the
    #: defaults do not interleave with subclass payload fields.
    trace_id: int = field(default=-1, kw_only=True)
    span_id: int = field(default=-1, kw_only=True)
    parent_id: int = field(default=-1, kw_only=True)

    #: Wire-grammar tag; subclasses override.
    type_name: ClassVar[str] = "MESSAGE"

    #: Delivering this message changes nothing at the receiver: the
    #: engine's dispatch entry is ``None`` (``tests/net/test_engine.py``
    #: pins the two together), so the simulated plane counts such
    #: messages instead of delivering them
    #: (``SimTransport.send_pings``).
    inert: ClassVar[bool] = False

    #: The wire-size plan ``@_message`` reads off the declared fields:
    #: header plus fixed-width payload bytes, and the fields sized by
    #: length at call time (none for a fixed-width type).
    _fixed_bytes: ClassVar[int]
    _sized_fields: ClassVar[tuple[tuple[str, int], ...]]

    def size_bytes(self) -> int:
        """Estimated wire size: header + 4 bytes per integer payload.

        The span-context ids ride the header alongside src/dst (the
        paper's byte accounting in §4.3 predates tracing, so the
        telemetry size model keeps them out of the payload count; the
        real codec does charge for them — see ``repro.live.codec``).
        """
        size = self._fixed_bytes
        for name, width in self._sized_fields:
            size += width * len(getattr(self, name))
        return size


@_message
@dataclass(frozen=True)
class Walk(Message):
    """``WALK`` — the TTL random-walk probe (Section 3.2).

    ``path`` is the forwarding record ("any node that receives this
    message will add an identifier … to avoid repetitive forwarding");
    ``ttl`` counts the hops still allowed.  The node where the TTL hits
    zero is the exchange candidate.
    """

    origin: int
    ttl: int
    cycle: int
    path: tuple[int, ...]

    type_name: ClassVar[str] = "WALK"


@_message
@dataclass(frozen=True)
class VarProbe(Message):
    """``VAR_PROBE`` — one latency-measurement ping to a neighbor.

    Fire-and-forget: the measurement round-trip is modelled by the ping
    message alone (matching the §4.3 count of one message per collected
    latency); a lost ping degrades telemetry, not safety.  The receiver
    does nothing with it, hence ``inert``.
    """

    cycle: int

    type_name: ClassVar[str] = "VAR_PROBE"
    inert: ClassVar[bool] = True


@_message
@dataclass(frozen=True)
class VarReply(Message):
    """``VAR_REPLY`` — the walk terminal reports back to the origin.

    Carries the walk path (the connectivity guarantee of Theorem 1 —
    these slots must never be traded) and the candidate's neighbor
    snapshot, i.e. its half of the Var information collection.  ``ok``
    is False when the candidate refuses (structurally incompatible pair
    or candidate busy in another exchange).
    """

    cycle: int
    candidate: int
    ok: bool
    path: tuple[int, ...]
    cand_neighbors: tuple[int, ...]

    type_name: ClassVar[str] = "VAR_REPLY"


@_message
@dataclass(frozen=True)
class ExchangePrepare(Message):
    """``EXCHANGE_PREPARE`` — phase one of the exchange commit.

    The initiator proposes the exchange it evaluated: a position swap
    (PROP-G, empty give lists) or the selected equal-size neighbor
    trade (PROP-O).  The participant validates against its *current*
    state and votes ``EXCHANGE_COMMIT`` or ``EXCHANGE_ABORT``.
    """

    xid: int
    cycle: int
    policy: str
    var: float
    give_u: tuple[int, ...]
    give_v: tuple[int, ...]

    type_name: ClassVar[str] = "EXCHANGE_PREPARE"


@_message
@dataclass(frozen=True)
class ExchangeCommit(Message):
    """``EXCHANGE_COMMIT`` — the participant's yes-vote.

    The participant is now *prepared* (locked) and the initiator alone
    applies the exchange; a lost vote therefore leaves both sides
    unchanged, never half-swapped.
    """

    xid: int

    type_name: ClassVar[str] = "EXCHANGE_COMMIT"


@_message
@dataclass(frozen=True)
class ExchangeAbort(Message):
    """``EXCHANGE_ABORT`` — either side cancels exchange ``xid``."""

    xid: int
    reason: str

    type_name: ClassVar[str] = "EXCHANGE_ABORT"


@_message
@dataclass(frozen=True)
class Notify(Message):
    """``NOTIFY`` — post-exchange routing-state notification.

    Sent to every routing-table holder affected by a committed exchange
    (Section 3.2's "notify their neighbors").  The copy addressed to the
    exchange participant carries ``commit=True`` and doubles as the
    commit confirmation that releases its prepared lock.
    """

    xid: int
    commit: bool

    type_name: ClassVar[str] = "NOTIFY"


@_message
@dataclass(frozen=True)
class PingFanout(Message):
    """``PING_FANOUT`` — one side's ``VAR_PROBE`` pings in one frame.

    A datagram plane carries each ``Transport.send_pings`` call as one of
    these instead of one ``VarProbe`` per ping.  ``dsts`` names the
    pinged slots in fan-out order, and the ``i``-th ping has span id
    ``span_id + i`` (all stay ``-1`` when ``span_id`` is); ``dst`` is
    unused (``-1``).  It is booked as ``len(dsts)`` ``VAR_PROBE``
    messages, never under its own name, and is as ``inert`` as the pings
    it carries.
    """

    cycle: int
    dsts: tuple[int, ...]

    type_name: ClassVar[str] = "PING_FANOUT"
    inert: ClassVar[bool] = True


#: The protocol grammar: every message type the engine sends and books
#: one at a time, by tag.  The profiler's ``deliver:<T>`` categories and
#: the transport statistics are keyed by these names.
MSG_TYPES: tuple[str, ...] = (
    "WALK",
    "VAR_PROBE",
    "VAR_REPLY",
    "EXCHANGE_PREPARE",
    "EXCHANGE_COMMIT",
    "EXCHANGE_ABORT",
    "NOTIFY",
)

#: The wire grammar, by tag: the protocol types, then the frames that
#: carry several protocol messages in one datagram.  Appended, so no
#: protocol type's tag moves.
WIRE_TYPES: tuple[str, ...] = (*MSG_TYPES, "PING_FANOUT")
