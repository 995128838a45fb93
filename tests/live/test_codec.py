"""Wire-codec properties: every message type round-trips byte-exactly,
malformed frames are refused with :class:`CodecError`, and the telemetry
size model (``size_bytes``) stays deliberately distinct from the actual
wire cost (``len(encode(msg))``) while growing identically per list
element.
"""

from __future__ import annotations

import random
from dataclasses import fields
from typing import get_type_hints

import pytest

from repro.live.codec import (
    GRAMMAR_FINGERPRINT,
    MESSAGE_CLASSES,
    WIRE_VERSION,
    CodecError,
    decode,
    encode,
    grammar_fingerprint,
)
from repro.net.messages import INT_BYTES, MSG_TYPES, Message, Walk

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
    @pytest.mark.parametrize("type_name", MSG_TYPES)
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
        """Every MSG_TYPES tag has a codec-known class — adding a
        message type without a wire rule fails here, not in production."""
        assert tuple(MESSAGE_CLASSES) == MSG_TYPES

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
