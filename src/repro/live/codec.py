"""Datagram wire codec for the :mod:`repro.net.messages` grammar.

Every datagram is one encoded frame::

    +--------+--------+---------+---------+----------------------+
    | u8 ver | u8 tag | i32 src | i32 dst | payload fields ...   |
    +--------+--------+---------+---------+----------------------+

``ver`` is :data:`WIRE_VERSION` (a peer refuses frames from a different
protocol revision), ``tag`` indexes :data:`~repro.net.messages.WIRE_TYPES`
(the closed wire grammar: the protocol messages, then the
``PING_FANOUT`` frame that carries one side's pings), and ``src``/``dst``
are the overlay *slots* the message travels between — the same slot
addressing the simulated transport uses, so a decoded message is
byte-for-byte the dataclass the engine would have received in the
simulator.

Payload fields are encoded in dataclass declaration order, each by its
annotated type: ``int`` as a big-endian i64, ``float`` as an f64,
``bool`` as one byte, ``str`` as a u16 length plus UTF-8 bytes, and
``tuple[int, ...]`` as a u16 count plus i32 elements.  The field specs
are derived from the dataclasses themselves at import time, so adding a
message type (or a field) extends the codec automatically — the
round-trip property test in ``tests/live/test_codec.py`` pins this.
One frame travels per datagram, so the datagram length delimits it.

Relation to :meth:`Message.size_bytes() <repro.net.messages.Message.size_bytes>`:
``size_bytes`` is the *telemetry model* of the paper's §4.3 accounting
(a 28-byte nominal header plus 4 bytes per integer), while
``len(encode(msg))`` is the actual loopback wire cost of this codec
(10-byte header, 8-byte integers, explicit length counts).  They are
deliberately distinct — the model stays comparable to the paper's
closed forms; the codec favors an unambiguous self-describing layout —
but both grow identically per list element modulo word size, which the
property test asserts.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields
from typing import get_type_hints

from repro.net.messages import WIRE_TYPES, Message

__all__ = [
    "CodecError",
    "GRAMMAR_FINGERPRINT",
    "MESSAGE_CLASSES",
    "WIRE_VERSION",
    "decode",
    "encode",
    "grammar_fingerprint",
]

#: Protocol revision stamped on every frame; bump on any layout change.
#: v2: every message carries the span-context ids (trace_id, span_id,
#: parent_id) — three i64 payload fields inherited from ``Message``
#: (docs/protocol.md, "Wire causality context").
#: v3: tag 7 is the ``PING_FANOUT`` frame, one side's pings in one
#: datagram (its ``dsts`` slot list is the ``tuple[int, ...]`` layout).
WIRE_VERSION = 3

#: Acknowledged grammar fingerprint, "<WIRE_VERSION>:<sha256[:16]>" over
#: every message's name and annotated payload fields in wire-tag order.
#: tests/live/test_codec.py compares it with :func:`grammar_fingerprint`;
#: when it stops matching, the grammar changed — update it (the new
#: value is in the failure) and bump WIRE_VERSION above.
GRAMMAR_FINGERPRINT = "3:a47eedc8356f7d7a"

_HEADER = struct.Struct("!BBii")  # version, type tag, src slot, dst slot
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U16 = struct.Struct("!H")
_I32 = struct.Struct("!i")


class CodecError(ValueError):
    """A frame that cannot be encoded or decoded."""


#: The wire encodings: resolved field type hint -> codec kind.  A field
#: of any other type raises :class:`CodecError` at import, and every
#: kind has an arm in :func:`encode` and :func:`decode` (the round-trip
#: test draws every field of every message type).
_HINT_KINDS: dict[object, str] = {
    bool: "bool",
    int: "int",
    float: "float",
    str: "str",
    tuple[int, ...]: "int_tuple",
}


def _field_specs(cls: type[Message]) -> tuple[tuple[str, str], ...]:
    """(name, kind) per payload field, in dataclass declaration order."""
    hints = get_type_hints(cls)
    specs: list[tuple[str, str]] = []
    for f in fields(cls):
        if f.name in ("src", "dst"):
            continue  # addressed in the header
        hint = hints[f.name]
        kind = _HINT_KINDS.get(hint)
        if kind is None:  # pragma: no cover - a new field type needs a codec rule
            raise CodecError(
                f"{cls.__name__}.{f.name}: no wire encoding for {hint!r}"
            )
        specs.append((f.name, kind))
    return tuple(specs)


def grammar_fingerprint() -> str:
    """The live grammar's fingerprint, ``"<version>:<sha256[:16]>"``.

    Hashes every message's wire name and annotated payload fields in
    wire-tag order; the checked-in :data:`GRAMMAR_FINGERPRINT` must
    equal it.
    """
    parts = []
    for name in WIRE_TYPES:
        cls = MESSAGE_CLASSES[name]
        spec = " ".join(
            f"{f.name}:{f.type}"
            for f in fields(cls)
            if f.name not in ("src", "dst")
        )
        parts.append(f"{name} {spec}".rstrip())
    digest = hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()[:16]
    return f"{WIRE_VERSION}:{digest}"


def _message_classes() -> dict[str, type[Message]]:
    """The concrete grammar, keyed by ``type_name``, tag order pinned
    by :data:`~repro.net.messages.WIRE_TYPES`."""
    by_name: dict[str, type[Message]] = {}
    stack = [Message]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            by_name[sub.type_name] = sub
            stack.append(sub)
    missing = [t for t in WIRE_TYPES if t not in by_name]
    if missing:  # pragma: no cover - grammar/codec drift guard
        raise CodecError(f"WIRE_TYPES without a message class: {missing}")
    return {t: by_name[t] for t in WIRE_TYPES}


#: type_name -> class, in wire-tag order (index = tag byte).
MESSAGE_CLASSES: dict[str, type[Message]] = _message_classes()
_TAG_OF = {name: i for i, name in enumerate(WIRE_TYPES)}
_CLASS_OF_TAG = tuple(MESSAGE_CLASSES[name] for name in WIRE_TYPES)
_SPECS_OF = {cls: _field_specs(cls) for cls in _CLASS_OF_TAG}


def encode(msg: Message) -> bytes:
    """One message as a self-contained datagram payload."""
    tag = _TAG_OF.get(msg.type_name)
    if tag is None:
        raise CodecError(f"message type {msg.type_name!r} is not in the wire grammar")
    parts = [_HEADER.pack(WIRE_VERSION, tag, msg.src, msg.dst)]
    for name, kind in _SPECS_OF[type(msg)]:
        value = getattr(msg, name)
        if kind == "bool":
            parts.append(b"\x01" if value else b"\x00")
        elif kind == "int":
            parts.append(_I64.pack(value))
        elif kind == "float":
            parts.append(_F64.pack(value))
        elif kind == "str":
            raw = value.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CodecError(f"string field {name} too long ({len(raw)} bytes)")
            parts.append(_U16.pack(len(raw)))
            parts.append(raw)
        elif kind == "int_tuple":
            if len(value) > 0xFFFF:
                raise CodecError(f"slot list {name} too long ({len(value)} slots)")
            parts.append(_U16.pack(len(value)))
            parts.append(struct.pack(f"!{len(value)}i", *value))
        else:  # pragma: no cover - _HINT_KINDS names only the arms above
            raise CodecError(f"field {name}: unhandled wire kind {kind!r}")
    return b"".join(parts)


def decode(data: bytes) -> Message:
    """Rebuild the message a datagram carries (inverse of :func:`encode`)."""
    if len(data) < _HEADER.size:
        raise CodecError(f"frame truncated: {len(data)} bytes < header")
    version, tag, src, dst = _HEADER.unpack_from(data)
    if version != WIRE_VERSION:
        raise CodecError(f"wire version {version} != {WIRE_VERSION}")
    if tag >= len(_CLASS_OF_TAG):
        raise CodecError(f"unknown message tag {tag}")
    cls = _CLASS_OF_TAG[tag]
    offset = _HEADER.size
    payload: dict[str, object] = {"src": src, "dst": dst}
    try:
        for name, kind in _SPECS_OF[cls]:
            if kind == "bool":
                payload[name] = data[offset] != 0
                offset += 1
            elif kind == "int":
                payload[name] = _I64.unpack_from(data, offset)[0]
                offset += _I64.size
            elif kind == "float":
                payload[name] = _F64.unpack_from(data, offset)[0]
                offset += _F64.size
            elif kind == "str":
                (length,) = _U16.unpack_from(data, offset)
                offset += _U16.size
                raw = data[offset:offset + length]
                if len(raw) != length:
                    raise CodecError(f"string field {name} truncated")
                payload[name] = raw.decode("utf-8")
                offset += length
            elif kind == "int_tuple":
                (count,) = _U16.unpack_from(data, offset)
                offset += _U16.size
                payload[name] = struct.unpack_from(f"!{count}i", data, offset)
                offset += _I32.size * count
            else:  # pragma: no cover - _HINT_KINDS names only the arms above
                raise CodecError(f"field {name}: unhandled wire kind {kind!r}")
    except (struct.error, IndexError) as exc:  # IndexError: a cut before a bool
        raise CodecError(f"frame truncated decoding {cls.__name__}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"string field of {cls.__name__} is not UTF-8: {exc}") from None
    if offset != len(data):
        raise CodecError(
            f"{len(data) - offset} trailing bytes after {cls.__name__} payload"
        )
    return cls(**payload)  # type: ignore[arg-type]
