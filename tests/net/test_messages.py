"""Message grammar: immutability, tags, and the wire-size model."""

import dataclasses
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.messages import (
    HEADER_BYTES,
    INT_BYTES,
    MSG_TYPES,
    ExchangeAbort,
    ExchangeCommit,
    ExchangePrepare,
    Message,
    WIRE_TYPES,
    Notify,
    PingFanout,
    VarProbe,
    VarReply,
    Walk,
)

ONE_OF_EACH = [
    Walk(src=0, dst=1, origin=0, ttl=2, cycle=7, path=(0,)),
    VarProbe(src=1, dst=2, cycle=7),
    VarReply(src=1, dst=0, cycle=7, candidate=1, ok=True, path=(0, 1),
             cand_neighbors=(2, 3)),
    ExchangePrepare(src=0, dst=1, xid=9, cycle=7, policy="G", var=1.5,
                    give_u=(), give_v=()),
    ExchangeCommit(src=1, dst=0, xid=9),
    ExchangeAbort(src=1, dst=0, xid=9, reason="busy"),
    Notify(src=0, dst=3, xid=9, commit=False),
    PingFanout(src=1, dst=-1, cycle=7, dsts=(0, 2, 3)),
]


def test_grammar_covers_every_type():
    assert sorted(m.type_name for m in ONE_OF_EACH) == sorted(WIRE_TYPES)
    assert len(set(WIRE_TYPES)) == len(WIRE_TYPES)
    # the frame is appended after the protocol types, which keep their tags
    assert WIRE_TYPES[:-1] == MSG_TYPES


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=lambda m: m.type_name)
def test_messages_are_frozen(msg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.src = 99


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=lambda m: m.type_name)
def test_size_has_header_plus_payload(msg):
    assert msg.size_bytes() >= HEADER_BYTES


def test_size_scales_with_payload_lists():
    short = Walk(src=0, dst=1, origin=0, ttl=2, cycle=7, path=(0,))
    long = Walk(src=0, dst=1, origin=0, ttl=2, cycle=7, path=(0, 1, 2))
    assert long.size_bytes() - short.size_bytes() == 2 * INT_BYTES


def test_size_counts_scalars_and_strings():
    commit = ExchangeCommit(src=1, dst=0, xid=9)
    assert commit.size_bytes() == HEADER_BYTES + INT_BYTES  # xid only
    abort = ExchangeAbort(src=1, dst=0, xid=9, reason="busy")
    assert abort.size_bytes() == HEADER_BYTES + INT_BYTES + len("busy")


def reflective_size_bytes(msg: Message) -> int:
    """The original ``size_bytes``: reflect over the dataclass fields and
    size each *value* by its runtime type.  Kept as the reference the
    per-class plan (built from the *declared* types) must agree with."""
    size = HEADER_BYTES
    for f in dataclasses.fields(msg):
        if f.name in ("src", "dst", "trace_id", "span_id", "parent_id"):
            continue  # addressed in the header
        value = getattr(msg, f.name)
        if isinstance(value, bool):
            size += 1
        elif isinstance(value, (int, float)):
            size += INT_BYTES
        elif isinstance(value, tuple):
            size += INT_BYTES * len(value)
        elif isinstance(value, str):
            size += len(value)
    return size


_BY_HINT = {
    bool: st.booleans(),
    int: st.integers(-(2**62), 2**62),
    float: st.floats(allow_nan=True, allow_infinity=True),
    str: st.text(max_size=12),
    tuple[int, ...]: st.lists(st.integers(-(2**31), 2**31), max_size=8).map(tuple),
}


def _instances(cls: type[Message]) -> st.SearchStrategy[Message]:
    hints = get_type_hints(cls)
    return st.builds(cls, **{f.name: _BY_HINT[hints[f.name]] for f in dataclasses.fields(cls)})


_CLASS_OF = {cls.type_name: cls for cls in Message.__subclasses__()}


@pytest.mark.parametrize("type_name", WIRE_TYPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_size_plan_equals_reflective_definition(type_name, data):
    """Every grammar class, every declared payload kind — ``bool``,
    ``float`` (NaN/inf included), empty tuples and strings — sizes the
    same through the cached per-class plan as through reflection."""
    msg = data.draw(_instances(_CLASS_OF[type_name]))
    assert msg.size_bytes() == reflective_size_bytes(msg)
