"""Wire-protocol tests: framing codec units + hypothesis properties."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.protocol import (
    MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    decode_payload,
    encode_frame,
)

# JSON-object messages the protocol must carry losslessly.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
messages = st.dictionaries(st.text(max_size=16), json_values, max_size=6)


class TestEncode:
    def test_roundtrip_simple(self):
        message = {"op": "locate", "name": "/fs/0001", "id": 7}
        assert decode_payload(encode_frame(message)[4:]) == message

    def test_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="JSON objects"):
            encode_frame(["not", "a", "dict"])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_frame({"latency": float("nan")})

    def test_rejects_oversize(self):
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_length_prefix_is_big_endian_payload_length(self):
        frame = encode_frame({"op": "map"})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4


class TestDecoderUnits:
    def test_one_frame_one_message(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame({"op": "map"})) == [{"op": "map"}]
        assert decoder.buffered == 0

    def test_incomplete_frame_buffers_silently(self):
        decoder = FrameDecoder()
        frame = encode_frame({"op": "locate", "name": "/fs/1"})
        assert decoder.feed(frame[:3]) == []
        assert not decoder.poisoned
        assert decoder.feed(frame[3:]) == [{"op": "locate", "name": "/fs/1"}]

    def test_oversize_length_poisons(self):
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(ProtocolError, match="exceeds max_frame"):
            decoder.feed(struct.pack(">I", 65))
        assert decoder.poisoned
        # Every later feed re-raises: the stream is dead.
        with pytest.raises(ProtocolError):
            decoder.feed(b"")

    def test_garbage_payload_poisons(self):
        decoder = FrameDecoder()
        garbage = b"\xff\xfe not json"
        with pytest.raises(ProtocolError, match="undecodable"):
            decoder.feed(struct.pack(">I", len(garbage)) + garbage)
        assert decoder.poisoned

    def test_non_object_payload_poisons(self):
        decoder = FrameDecoder()
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decoder.feed(struct.pack(">I", len(payload)) + payload)

    def test_messages_before_the_bad_frame_are_delivered(self):
        decoder = FrameDecoder()
        good = encode_frame({"ok": True})
        bad = struct.pack(">I", 3) + b"}{o"
        with pytest.raises(ProtocolError):
            decoder.feed(good + bad)
        # The good message was lost with the raise — by design the
        # decoder refuses to hand back partial progress after an error,
        # because the caller must tear the connection down anyway.
        assert decoder.poisoned


class TestDecoderProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(messages, max_size=6))
    def test_concatenated_frames_roundtrip(self, msgs):
        stream = b"".join(encode_frame(m) for m in msgs)
        assert FrameDecoder().feed(stream) == msgs

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(messages, min_size=1, max_size=4),
        st.data(),
    )
    def test_arbitrary_chunking_roundtrips(self, msgs, data):
        """Any split of the byte stream yields the same messages."""
        stream = b"".join(encode_frame(m) for m in msgs)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)),
                max_size=6,
            ).map(sorted)
        )
        decoder = FrameDecoder()
        out = []
        last = 0
        for cut in cuts + [len(stream)]:
            out.extend(decoder.feed(stream[last:cut]))
            last = cut
        assert out == msgs
        assert decoder.buffered == 0

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_never_hang_or_yield_junk(self, blob):
        """Garbage either buffers, decodes, or raises — never hangs,
        and everything yielded is a dict (the wire contract)."""
        decoder = FrameDecoder(max_frame=1024)
        try:
            msgs = decoder.feed(blob)
        except ProtocolError:
            assert decoder.poisoned
        else:
            assert all(isinstance(m, dict) for m in msgs)

    @settings(max_examples=60, deadline=None)
    @given(messages)
    def test_truncated_frame_never_yields(self, msg):
        frame = encode_frame(msg)
        for cut in range(len(frame)):
            decoder = FrameDecoder()
            assert decoder.feed(frame[:cut]) == []


class TestNonFiniteNumbers:
    """``NaN`` and the infinities are not JSON: refused on both sides."""

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400"])
    def test_decode_refuses_non_finite(self, token):
        payload = b'{"op":"exec","work":' + token + b"}"
        with pytest.raises(ProtocolError):
            decode_payload(payload)
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", len(payload)) + payload)
        assert decoder.poisoned

    def test_decode_keeps_large_finite_numbers(self):
        assert decode_payload(b'{"a":1e308,"b":-2.5e-300,"c":12345678901234567890}') == {
            "a": 1e308,
            "b": -2.5e-300,
            "c": 12345678901234567890,
        }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_encode_refuses_non_finite(self, value):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode_frame({"op": "report", "latency": value})


class TestEncoderIsByteIdentical:
    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_matches_json_dumps(self, msg):
        """The module's one encoder writes what the per-call
        ``json.dumps`` with the same arguments wrote."""
        old = json.dumps(
            msg, separators=(",", ":"), ensure_ascii=False, allow_nan=False
        ).encode("utf-8")
        assert encode_frame(msg) == struct.pack(">I", len(old)) + old
