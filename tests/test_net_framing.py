"""Wire frame codec edges: truncation, CRC mismatch, oversize, magics.

Mirrors the journal torn-tail tests (test_mq_persistence) at the wire
layer: a stream that dies mid-frame must never yield a partial frame,
and corruption must poison the decoder rather than resync silently.
"""

import struct
import zlib

import pytest

from repro.net.framing import (
    FRAME_ACK,
    FRAME_HELLO,
    FRAME_MSG,
    HEADER_SIZE,
    FrameDecoder,
    FrameError,
    decode_payload,
    encode_frame,
    encode_json_frame,
)


def test_roundtrip_single_frame():
    frame = encode_frame(FRAME_MSG, b"hello wire")
    dec = FrameDecoder()
    frames = dec.feed(frame)
    assert frames == [(FRAME_MSG, b"hello wire")]
    dec.eof()  # clean stream end


def test_roundtrip_many_frames_one_chunk():
    data = b"".join(
        encode_frame(magic, bytes([i]) * i)
        for i, magic in enumerate((FRAME_MSG, FRAME_ACK, FRAME_HELLO), start=1)
    )
    frames = FrameDecoder().feed(data)
    assert [m for m, _ in frames] == [FRAME_MSG, FRAME_ACK, FRAME_HELLO]


def test_incremental_byte_at_a_time():
    frame = encode_frame(FRAME_ACK, b"x" * 37)
    dec = FrameDecoder()
    out = []
    for i in range(len(frame)):
        out.extend(dec.feed(frame[i : i + 1]))
    assert out == [(FRAME_ACK, b"x" * 37)]
    assert dec.buffered == 0


def test_split_across_header_boundary():
    frame = encode_frame(FRAME_MSG, b"abcdef")
    dec = FrameDecoder()
    assert dec.feed(frame[: HEADER_SIZE - 2]) == []
    assert dec.buffered == HEADER_SIZE - 2
    assert dec.feed(frame[HEADER_SIZE - 2 :]) == [(FRAME_MSG, b"abcdef")]


def test_truncated_frame_detected_at_eof():
    frame = encode_frame(FRAME_MSG, b"torn tail payload")
    dec = FrameDecoder()
    assert dec.feed(frame[:-5]) == []  # waits for the rest
    with pytest.raises(FrameError, match="mid-frame"):
        dec.eof()


def test_truncated_header_detected_at_eof():
    dec = FrameDecoder()
    assert dec.feed(b"\xc1\x03") == []
    with pytest.raises(FrameError):
        dec.eof()


def test_crc_mismatch_rejected_and_poisons_decoder():
    payload = b"payload bytes"
    frame = bytearray(encode_frame(FRAME_MSG, payload))
    frame[-1] ^= 0xFF  # flip a payload bit; CRC no longer matches
    dec = FrameDecoder()
    with pytest.raises(FrameError, match="CRC"):
        dec.feed(bytes(frame))
    # Poisoned: the decoder refuses further input instead of resyncing.
    with pytest.raises(FrameError, match="poisoned"):
        dec.feed(encode_frame(FRAME_MSG, b"ok"))


def test_corrupt_length_field_fails_crc_not_overread():
    frame = bytearray(encode_frame(FRAME_MSG, b"abcd"))
    # Shrink the declared length: CRC was computed over 4 bytes.
    struct.pack_into("<I", frame, 1, 2)
    with pytest.raises(FrameError, match="CRC"):
        FrameDecoder().feed(bytes(frame) + encode_frame(FRAME_ACK, b""))


def test_oversized_frame_rejected_by_decoder_before_buffering():
    # Header declares a payload beyond the limit; decoder must reject on
    # the header alone, never buffer toward it.
    header = struct.pack("<BII", FRAME_MSG, 1 << 30, 0)
    dec = FrameDecoder(max_frame_bytes=1024)
    with pytest.raises(FrameError, match="exceeds limit"):
        dec.feed(header)


def test_oversized_frame_rejected_by_encoder():
    with pytest.raises(FrameError, match="exceeds limit"):
        encode_frame(FRAME_MSG, b"x" * (8 * 1024 * 1024 + 1))


def test_bad_magic_rejected():
    # Journal magics (0xB1/0xB2) are not wire magics: a journal file
    # streamed down a socket is corruption, not a frame.
    payload = b"p"
    bogus = struct.pack("<BII", 0xB1, len(payload), zlib.crc32(payload)) + payload
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(bogus)
    with pytest.raises(FrameError, match="magic"):
        encode_frame(0xB1, payload)


def test_empty_payload_roundtrip():
    frames = FrameDecoder().feed(encode_frame(FRAME_ACK, b""))
    assert frames == [(FRAME_ACK, b"")]


def test_json_frame_roundtrip_and_bad_payloads():
    frame = encode_json_frame(FRAME_HELLO, {"manager": "QM.A", "resync": 3})
    ((magic, payload),) = FrameDecoder().feed(frame)
    assert magic == FRAME_HELLO
    assert decode_payload(payload) == {"manager": "QM.A", "resync": 3}
    with pytest.raises(FrameError, match="undecodable"):
        decode_payload(b"\xff\xfe not json")
    with pytest.raises(FrameError, match="undecodable"):  # not RecursionError
        decode_payload(b'{"a":' + b"[" * 200000 + b"]" * 200000 + b"}")
    with pytest.raises(FrameError, match="not a JSON object"):
        decode_payload(b"[1,2,3]")


def test_decoder_counters():
    dec = FrameDecoder()
    f1 = encode_frame(FRAME_MSG, b"a")
    f2 = encode_frame(FRAME_ACK, b"bb")
    dec.feed(f1 + f2)
    assert dec.frames_decoded == 2
    assert dec.bytes_fed == len(f1) + len(f2)
