"""Wire-codec properties: every wire type round-trips byte-exactly,
malformed frames are refused with :class:`CodecError` (a hostile
``PING_FANOUT`` frame, cut or bit-flipped anywhere, raises nothing else),
and the telemetry
size model (``size_bytes``) stays deliberately distinct from the actual
wire cost (``len(encode(msg))``) while growing identically per list
element.
"""

from __future__ import annotations

import random
from dataclasses import fields
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.codec import (
    GRAMMAR_FINGERPRINT,
    MESSAGE_CLASSES,
    WIRE_VERSION,
    CodecError,
    decode,
    encode,
    grammar_fingerprint,
)
from repro.net.messages import (
    INT_BYTES,
    MSG_TYPES,
    WIRE_TYPES,
    ExchangeAbort,
    Message,
    PingFanout,
    VarReply,
    Walk,
)

N_CASES = 50  # randomized instances per message type


def _random_instance(cls: type[Message], rng: random.Random) -> Message:
    """A randomized instance of ``cls``, fields drawn by annotated type."""
    hints = get_type_hints(cls)
    kwargs: dict[str, object] = {}
    for f in fields(cls):
        hint = hints[f.name]
        if hint is bool:
            kwargs[f.name] = rng.random() < 0.5
        elif hint is int:
            # src/dst are header i32; payload ints ride an i64 lane.
            bound = 2**31 - 1 if f.name in ("src", "dst") else 2**62
            kwargs[f.name] = rng.randint(-bound, bound)
        elif hint is float:
            kwargs[f.name] = rng.uniform(-1e9, 1e9)
        elif hint is str:
            kwargs[f.name] = "".join(
                rng.choice("abcdefg-πλ") for _ in range(rng.randint(0, 12))
            )
        elif hint == tuple[int, ...]:
            kwargs[f.name] = tuple(
                rng.randint(-(2**31) + 1, 2**31 - 1)
                for _ in range(rng.randint(0, 8))
            )
        else:  # pragma: no cover - new field type needs a generator rule
            raise AssertionError(f"no generator for {cls.__name__}.{f.name}: {hint}")
    return cls(**kwargs)


class TestRoundTrip:
    @pytest.mark.parametrize("type_name", WIRE_TYPES)
    def test_every_type_round_trips(self, type_name):
        """decode(encode(m)) == m for randomized instances of every
        message class in the wire grammar (frozen-dataclass equality)."""
        cls = MESSAGE_CLASSES[type_name]
        rng = random.Random(hash(type_name) & 0xFFFF)
        for _ in range(N_CASES):
            msg = _random_instance(cls, rng)
            data = encode(msg)
            again = decode(data)
            assert again == msg
            assert type(again) is cls

    def test_grammar_is_complete(self):
        """Every WIRE_TYPES tag has a codec-known class — adding a
        message type without a wire rule fails here, not in production —
        and the protocol types keep their tags: the fan-out frame is
        appended after them."""
        assert tuple(MESSAGE_CLASSES) == WIRE_TYPES
        assert WIRE_TYPES[:len(MSG_TYPES)] == MSG_TYPES

    def test_fingerprint_literal_matches_runtime(self):
        """A grammar change (a field added, retyped or reordered) must be
        acknowledged by editing the constant next to WIRE_VERSION, where
        the bump decision belongs; the failure shows the new value."""
        assert GRAMMAR_FINGERPRINT == grammar_fingerprint()


class TestMalformedFrames:
    GOOD = encode(Walk(src=0, dst=1, origin=0, ttl=5, cycle=2, path=(0, 3)))

    def test_wrong_version_refused(self):
        bad = bytes([WIRE_VERSION + 1]) + self.GOOD[1:]
        with pytest.raises(CodecError, match="wire version"):
            decode(bad)

    def test_unknown_tag_refused(self):
        bad = self.GOOD[:1] + bytes([200]) + self.GOOD[2:]
        with pytest.raises(CodecError, match="unknown message tag"):
            decode(bad)

    def test_truncation_refused_at_every_cut(self):
        for cut in range(len(self.GOOD)):
            with pytest.raises(CodecError, match="truncated"):
                decode(self.GOOD[:cut])

    def test_cut_before_a_bool_refused(self):
        # the last payload field of a VarReply is a tuple; ``ok`` is a
        # one-byte bool in the middle, read by indexing, not by struct
        reply = encode(VarReply(src=1, dst=0, cycle=2, candidate=1, ok=True, path=(),
                                cand_neighbors=()))
        bool_at = len(reply) - 2 * 2 - 1  # before the two empty tuples' counts
        with pytest.raises(CodecError, match="truncated"):
            decode(reply[:bool_at])

    def test_non_utf8_string_refused(self):
        abort = encode(ExchangeAbort(src=1, dst=0, xid=5, reason="ab"))
        with pytest.raises(CodecError, match="not UTF-8"):
            decode(abort[:-2] + b"\xff\xfe")

    def test_trailing_bytes_refused(self):
        with pytest.raises(CodecError, match="trailing bytes"):
            decode(self.GOOD + b"\x00")

    def test_unknown_message_class_refused_on_encode(self):
        class Rogue(Message):
            type_name = "ROGUE"

        with pytest.raises(CodecError, match="not in the wire grammar"):
            encode(Rogue(src=0, dst=1))


class TestSizeModelVsWire:
    """``size_bytes`` is the paper's §4.3 telemetry model; the encoded
    length is the actual codec cost.  Distinct by design, but both must grow
    per list element so message accounting scales the same way."""

    def test_models_are_distinct(self):
        msg = Walk(src=0, dst=1, origin=0, ttl=5, cycle=2, path=(1, 2, 3))
        assert msg.size_bytes() != len(encode(msg))

    def test_both_grow_per_path_element(self):
        short = Walk(src=0, dst=1, origin=0, ttl=5, cycle=2, path=())
        long = Walk(src=0, dst=1, origin=0, ttl=5, cycle=2, path=tuple(range(10)))
        assert long.size_bytes() - short.size_bytes() == 10 * INT_BYTES
        assert len(encode(long)) - len(encode(short)) == 10 * 4  # i32 lane


class TestHostileFanout:
    """A ``PING_FANOUT`` frame off a hostile wire: whatever is cut off or
    flipped, :func:`decode` returns a frame or raises :class:`CodecError`,
    never anything else."""

    FANOUT = encode(PingFanout(src=3, dst=-1, cycle=9, dsts=(4, 5, 6, 7), trace_id=2,
                               span_id=40, parent_id=39))

    @staticmethod
    def _decodes_or_refuses(data: bytes) -> None:
        try:
            decode(data)
        except CodecError:
            pass

    def test_layout_is_the_header_span_ids_cycle_and_slot_list(self):
        # 10-byte header, three span-context i64s, the cycle i64, then a
        # u16 count and one i32 per pinged slot
        assert len(self.FANOUT) == 10 + 3 * 8 + 8 + 2 + 4 * 4
        assert self.FANOUT[1] == WIRE_TYPES.index("PING_FANOUT")

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(FANOUT) - 1))
    def test_every_truncation_refused(self, cut):
        with pytest.raises(CodecError):
            decode(self.FANOUT[:cut])

    @settings(max_examples=400, deadline=None)
    @given(flips=st.lists(st.integers(min_value=0, max_value=8 * len(FANOUT) - 1),
                          min_size=1, max_size=4))
    def test_bit_flips_decode_or_raise_codec_error(self, flips):
        data = bytearray(self.FANOUT)
        for bit in flips:
            data[bit // 8] ^= 1 << (bit % 8)
        self._decodes_or_refuses(bytes(data))

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=64))
    def test_any_payload_after_a_fanout_header(self, tail):
        self._decodes_or_refuses(self.FANOUT[:2] + tail)
