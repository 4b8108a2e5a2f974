"""Wire frame codec edges: truncation, CRC mismatch, oversize, magics,
and the MSG payload: the journal's put row, read only after every opcode
and length in it has been checked.

Mirrors the journal torn-tail tests (test_mq_persistence) at the wire
layer: a stream that dies mid-frame must never yield a partial frame,
and corruption must poison the decoder rather than resync silently.
"""

import pickle
import pickletools
import struct
import time
import tracemalloc
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.mq.message import Message
from repro.mq.persistence import dump_data
from repro.net import framing
from repro.net.framing import (
    FRAME_ACK,
    FRAME_HELLO,
    FRAME_MSG,
    HEADER_SIZE,
    FrameDecoder,
    FrameError,
    check_data_pickle,
    decode_msg,
    decode_payload,
    encode_frame,
    encode_json_frame,
    encode_msg_frame,
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


# -- MSG payloads: the put row, checked before it is loaded ------------------


def msg_payload(message, queue="IN.Q", seq=1):
    ((magic, payload),) = FrameDecoder().feed(encode_msg_frame(queue, message, seq))
    assert magic == FRAME_MSG
    return payload


def test_msg_round_trip_carries_seq_queue_and_every_field():
    message = Message(
        body={"k": (1, b"\x00")}, correlation_id="c", properties={"p": 1.5},
        priority=9, expiry_ms=10**9, reply_to_manager="QM.X", reply_to_queue="R.Q",
        put_time_ms=5, backout_count=3, source_manager="QM.SRC",
    )  # fmt: skip
    seq, queue, decoded = decode_msg(msg_payload(message, seq=42))
    assert (seq, queue, vars(decoded)) == (42, "IN.Q", vars(message))


#: what ``dump_data`` may write into a MSG payload, by ``pickletools`` name
DATA_OPCODES = {
    "PROTO", "FRAME", "STOP", "NONE", "NEWTRUE", "NEWFALSE", "BININT",
    "BININT1", "BININT2", "LONG1", "LONG4", "BINFLOAT", "SHORT_BINUNICODE",
    "BINUNICODE", "SHORT_BINBYTES", "BINBYTES", "BYTEARRAY8", "EMPTY_TUPLE",
    "TUPLE", "TUPLE1", "TUPLE2", "TUPLE3", "EMPTY_LIST", "APPEND", "APPENDS",
    "EMPTY_DICT", "SETITEM", "SETITEMS", "EMPTY_SET", "ADDITEMS", "FROZENSET",
    "MARK", "POP", "POP_MARK", "MEMOIZE", "BINGET", "LONG_BINGET",
}  # fmt: skip


def test_the_checked_opcode_set_is_pinned():
    allowed = {framing._STOP, *framing._OPCODES}
    names = {op.code.encode("latin-1")[0]: op.name for op in pickletools.opcodes}
    assert {names[code] for code in allowed} == DATA_OPCODES


@pytest.mark.parametrize(
    "opcode",
    [op for op in pickletools.opcodes if op.name not in DATA_OPCODES],
    ids=lambda op: op.name,
)
def test_every_opcode_dump_data_never_writes_is_refused_by_name(opcode):
    # The check stops at the opcode itself, before it reads an argument,
    # so the refusal names it whatever bytes follow.
    code = opcode.code.encode("latin-1")
    for tail in (b".", b"\xff" * 9 + b"."):
        with pytest.raises(FrameError, match=f"opcode 0x{code[0]:02X}"):
            decode_msg(b"\x80\x05" + code + tail)


def self_list(item):
    looped = [item]
    looped.append(looped)
    return looped


def self_tuple(item, *rest):
    looped = ([item], {}, *rest)
    looped[0].append(looped)
    looped[1]["back"] = looped
    return looped


def self_long_tuple(item):
    return self_tuple(item, 3, 4)  # MARK ... TUPLE, not TUPLE2


scalars = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**100, -(2**3000)])
    | st.floats(allow_nan=False) | st.text() | st.text(min_size=256, max_size=300)
    | st.binary() | st.binary(min_size=256, max_size=300)
)  # fmt: skip
hashables = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)  # fmt: skip
bodies = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.tuples(inner, inner, inner, inner)
        | st.dictionaries(hashables, inner, max_size=4)
        | st.sets(hashables, max_size=4) | st.frozensets(hashables, max_size=4)
        | st.builds(bytearray, st.binary())
    ),
    max_leaves=20,
)  # fmt: skip


@settings(max_examples=300, deadline=None)
@given(bodies)
@example([str(n) for n in range(300)] * 2)  # memo references past 255
def test_every_data_body_passes_the_check_and_round_trips(body):
    seq, queue, decoded = decode_msg(msg_payload(Message(body=body), seq=7))
    assert (seq, queue) == (7, "IN.Q")
    assert decoded.body == body and type(decoded.body) is type(body)


@settings(max_examples=50, deadline=None)
@given(bodies, st.sampled_from([self_list, self_tuple, self_long_tuple]))
def test_recursive_bodies_pass_the_check_and_keep_their_loops(item, make):
    payload = msg_payload(Message(body=make(item)))
    body = decode_msg(payload)[2].body
    if make is self_list:
        assert body[1] is body
    else:
        # a tuple met again inside itself is popped off the stack and
        # fetched from the memo: POP per item, or POP_MARK past three
        ops = {op.name for op, _arg, _pos in pickletools.genops(payload)}
        assert ("POP_MARK" if make is self_long_tuple else "POP") in ops
        assert body[0][1] is body and body[1]["back"] is body


class NotData:
    def __reduce__(self):
        return (print, ("called",))


@pytest.mark.parametrize(
    "payload",
    [
        b"\x80\x05Nr" + (2**26).to_bytes(4, "little") + b".",  # LONG_BINPUT
        b"\x80\x05N\x8e" + (2**40).to_bytes(8, "little") + b".",  # BINBYTES8
        b"\x80\x05B" + (2**31).to_bytes(4, "little") + b".",  # BINBYTES past the end
        b"\x80\x05\x95" + (2**40).to_bytes(8, "little") + b"N.",  # FRAME past the end
        pickle.dumps(NotData(), 5),  # names a global
        dump_data(("put", "IN.Q", 1, "m1", "body")) + b"N",  # bytes after STOP
        dump_data(("put", "IN.Q", 1, "m1", "body"))[:-1],  # no STOP
        b'{"seq": 1, "queue": "IN.Q", "message": {}}',  # the JSON form
    ],
    ids=["memo index", "bytes8 length", "bytes length", "frame length", "global",
         "trailing byte", "no stop", "json"],
)  # fmt: skip
def test_a_hostile_payload_is_refused_before_the_loader_allocates(payload):
    tracemalloc.start()
    try:
        with pytest.raises(FrameError):
            decode_msg(payload)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "row",
    [
        ["put", "IN.Q", 1, "m1", "body"],  # a list
        ("get", "IN.Q", "m1"),  # not a put
        ("put", "IN.Q", "m1", "body", {}, None),  # no seq
        ("put", "IN.Q", 1, ["m1"], "body"),  # the id is not a str
        ("put", "IN.Q", 1, "m1"),  # no body
        ("put", "IN.Q", 1, "m1", "body", {"p": [1]}),  # a property that is not one
        ("put", "IN.Q", 1, "m1", "body", {}, None, None, None, None, None, 99),
    ],
)
def test_a_data_payload_that_is_no_put_row_is_a_frame_error(row):
    check_data_pickle(dump_data(row))  # data, so it gets as far as the row
    with pytest.raises(FrameError):
        decode_msg(dump_data(row))


def row(body_ops):
    """A MSG payload ``("put", "IN.Q", 1, "m1", <body_ops>)``."""
    return b"\x80\x05(\x8c\x03put\x8c\x04IN.QK\x01\x8c\x02m1" + body_ops + b"t."


#: t = (t, t) 64 times over, each level memoized: t_64 is at memo index 64
SHARED_TUPLE = b")\x94" + b"".join(b"h%ch%c\x86\x94" % (i, i) for i in range(64))
P61 = 2**61 - 1  # ints k * P61 all hash to 0


@pytest.mark.parametrize(
    "payload",
    [
        row(SHARED_TUPLE + b"\x8f(h@\x90"),  # in a set
        row(SHARED_TUPLE + b"(h@\x91"),  # in a frozenset
        row(SHARED_TUPLE + b"}h@N\x73"),  # a dict key
        row(b"\x8f(N" + b"\x85" * 5000 + b"\x90"),  # a key nested past the C stack's reach
        # no row, one tuple of 1,000 ints, hashed into a set 50,000 times
        b"\x80\x05(" + b"K\x01" * 1000 + b"t\x94\x8f(" + b"h\x00" * 50_000 + b"\x90.",
        dump_data(("put", "IN.Q", 1, "m1", {k * P61 for k in range(1, 100)})),
        dump_data(("put", "IN.Q", 1, "m1", {(k * P61, "x"): k for k in range(1, 100)})),
    ],
    ids=["set", "frozenset", "dict key", "deep key", "one tuple, many times", "colliding ints",
         "colliding tuples"],
)
def test_a_payload_that_would_hash_without_end_is_refused_at_once(payload):
    started = time.perf_counter()
    with pytest.raises(FrameError, match="hash"):
        decode_msg(payload)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize(
    "body",
    [
        [{tuple(range(50)): n} for n in range(200)],  # one tuple key, shared 200 times
        {n: str(n) for n in range(20_000)},
        {(n, str(n)) for n in range(5_000)},
        {-1: "a", -2: "b"},  # two keys, one hash
        frozenset({(1, 2), frozenset({3})}),
    ],
    ids=["shared key", "int keys", "tuple items", "hash pair", "nested frozenset"],
)
def test_data_that_shares_or_hashes_much_still_passes(body):
    assert decode_msg(msg_payload(Message(body=body)))[2].body == body


FIRST_MSG = msg_payload(Message(body=[(1, 2), {3: b"x"}, "y" * 40]))
STREAM = b"".join(
    [
        encode_json_frame(FRAME_HELLO, {"manager": "QM.A", "role": "sender"}),
        encode_frame(FRAME_MSG, FIRST_MSG),
        encode_msg_frame("IN.Q", Message(body={"n": {1, 2}}, source_manager="QM.A"), 2),
        encode_json_frame(FRAME_ACK, {"cum": 2, "window": 8}),
    ]
)
edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "cut", "insert"]),
        st.integers(min_value=0, max_value=len(STREAM)),
        st.binary(min_size=1, max_size=9),
    ),
    min_size=1,
    max_size=4,
)


def edit(data, ops):
    data = bytearray(data)
    for kind, at, blob in ops:
        if kind == "flip" and data:
            data[at % len(data)] ^= blob[0] or 1
        elif kind == "cut":
            del data[at:]
        else:
            data[at:at] = blob
    return bytes(data)


def decode_stream(data):
    """Every frame of ``data`` decoded as an engine would, or FrameError."""
    decoded = []
    for magic, payload in FrameDecoder().feed(data):
        decode = decode_msg if magic == FRAME_MSG else decode_payload
        decoded.append(decode(payload))
    return decoded


def test_the_unmutated_stream_decodes_whole():
    hello, first, second, ack = decode_stream(STREAM)
    assert (first[0], second[0], ack["cum"]) == (1, 2, 2)


@settings(max_examples=400, deadline=1000)
@given(edits, st.booleans())
def test_mutated_wire_bytes_give_values_or_frame_errors(ops, reframe):
    # A reframed edit keeps the CRC valid, so the mutated payload reaches
    # the opcode check and the loader instead of dying at the frame header.
    data = encode_frame(FRAME_MSG, edit(FIRST_MSG, ops)) if reframe else edit(STREAM, ops)
    tracemalloc.start()
    try:
        decode_stream(data)
    except FrameError:
        pass
    finally:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 4 * len(data) + 1_000_000
