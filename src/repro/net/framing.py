"""Binary length-prefixed wire framing.

The wire reuses the journal's ``BinaryRecordCodec`` frame format
(``persistence.py``): a ``struct("<BII")`` header of (magic byte,
payload length, CRC-32 of the payload) followed by the payload.  The
magics are wire-specific so a journal file can never be mistaken for a
socket stream and vice versa:

==========  ======  ==================================================
magic       name    payload
==========  ======  ==================================================
``0xC1``    MSG     the arrival's put row, data-only pickled:
                    ``("put", queue, seq, message_id, body, ...)``;
                    ``queue`` is the target queue, named nowhere else
``0xC2``    ACK     JSON object ``{"cum", "window", ...}``
``0xC3``    HELLO   JSON object ``{"manager", "resync", "window"}``
==========  ======  ==================================================

A MSG payload is the journal's own record of the put the receiver will
make (:func:`~repro.mq.persistence.put_row`, the channel seq in its
channel slot), so the wire carries exactly the bodies the journals
accept.  It is read by the journal's data-only loader, which can never
resolve a global, so never call one; and before that loader sees socket
bytes, :func:`check_data_pickle` refuses every opcode ``dump_data``
never writes and every length that runs past the payload, and replays
the loader's stack to bound the hashing it would do, so a hostile peer
can make the loader neither allocate more than the frame it sent nor
hash for longer than a few passes over it.

:class:`FrameDecoder` is incremental: feed it arbitrary byte chunks
and it yields complete ``(magic, payload)`` frames, holding partial
frames until more bytes arrive.  A bad magic, a CRC mismatch, or a
length above :data:`MAX_FRAME_BYTES` raises :class:`FrameError` — a
stream error is unrecoverable and the connection must be dropped
(retransmission then recovers the messages).  ``eof()`` reports a
truncated trailing frame, mirroring the journal's torn-tail handling.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from typing import Any, Dict, List, Tuple

from repro.errors import ChannelError
from repro.mq.message import Message
from repro.mq.persistence import (
    decode_message,
    dump_data,
    expand_row,
    load_data,
    put_row,
)

__all__ = [
    "FRAME_MSG",
    "FRAME_ACK",
    "FRAME_HELLO",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "decode_payload",
    "encode_json_frame",
    "encode_msg_frame",
    "decode_msg",
    "check_data_pickle",
    "FrameDecoder",
]

FRAME_MSG = 0xC1
FRAME_ACK = 0xC2
FRAME_HELLO = 0xC3

_WIRE_MAGICS = frozenset((FRAME_MSG, FRAME_ACK, FRAME_HELLO))

#: Upper bound on a single frame payload.  Large enough for any
#: realistic message batch, small enough that a corrupt length field
#: cannot make the decoder buffer gigabytes before the CRC check.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("<BII")
HEADER_SIZE = _HEADER.size


class FrameError(ChannelError):
    """Unrecoverable wire-stream corruption (magic/CRC/length)."""


def encode_frame(magic: int, payload: bytes) -> bytes:
    """Encode one frame: header(magic, len, crc32) + payload."""
    if magic not in _WIRE_MAGICS:
        raise FrameError(f"unknown wire frame magic 0x{magic:02X}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload {len(payload)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(magic, len(payload), zlib.crc32(payload)) + payload


def encode_json_frame(magic: int, obj: Dict[str, Any]) -> bytes:
    """Encode a JSON object payload as one frame."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return encode_frame(magic, payload)


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Decode a frame payload back to its JSON object."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack allows.
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("frame payload is not a JSON object")
    return obj


def encode_msg_frame(queue: str, message: Message, seq: int) -> bytes:
    """One MSG frame: the put row of ``message`` on ``queue`` with ``seq`` in
    its channel slot, bare (the peer is the connection's, not the row's)."""
    row = put_row(queue, message, (message.source_manager, seq))
    return encode_frame(FRAME_MSG, dump_data(row))


def decode_msg(payload: bytes) -> Tuple[int, str, Message]:
    """``(seq, queue, message)`` of a MSG payload, through the same
    row-to-``Message`` path the SQL store reads its rows with; anything
    else is a :class:`FrameError`."""
    check_data_pickle(payload)
    try:
        row = load_data(payload)
        if type(row) is not tuple or row[0] != "put" or type(row[2]) is not int:
            raise ValueError("not a put row with a channel seq")
        message = decode_message(expand_row(row)["message"])
    except Exception as exc:  # noqa: BLE001 - a peer's bad row is its error
        raise FrameError(f"undecodable MSG payload: {exc}") from exc
    if type(row[1]) is not str or type(message.message_id) is not str:
        raise FrameError("MSG payload names no queue or no message id")
    return row[2], row[1], message


#: Every opcode ``dump_data`` writes, ``STOP`` aside: the width of its
#: argument; whether that argument is the little-endian byte count of what
#: follows it (``FRAME``'s counts opcodes, which are checked, not skipped);
#: and what the loader does with it: push a scalar (a function of the
#: argument giving its stack entry, see :func:`check_data_pickle`), name a
#: stack action, or pop ``n`` items (``None``: to the mark), hash every one
#: (``True``) or every other one (``False``) into a dict or set (or the
#: frozenset it builds), and build a tuple or frozenset of them.
_OPCODES = {
    op[0]: (width, counted, action)
    for op, width, counted, action in (
        (pickle.PROTO, 1, False, "-"), (pickle.FRAME, 8, True, "-"),
        (pickle.NONE, 0, False, lambda a: (None, 1, 0)),
        (pickle.NEWTRUE, 0, False, lambda a: (True, 1, 0)),
        (pickle.NEWFALSE, 0, False, lambda a: (False, 1, 0)),
        (pickle.EMPTY_TUPLE, 0, False, lambda a: ((), 1, 1)),
        (pickle.BININT1, 1, False, lambda a: _BYTE_ENTRIES[a[0]]),
        (pickle.BININT2, 2, False, lambda a: (int.from_bytes(a, "little"), 1, 0)),
        (pickle.BININT, 4, False, lambda a: (int.from_bytes(a, "little", signed=True), 1, 0)),
        # an int's hash is not cached: it costs a step per 8 bytes each time
        (pickle.LONG1, 1, True, lambda a: (int.from_bytes(a, "little", signed=True), 1 + len(a) // 8, 0)),
        (pickle.LONG4, 4, True, lambda a: (int.from_bytes(a, "little", signed=True), 1 + len(a) // 8, 0)),
        (pickle.BINFLOAT, 8, False, lambda a: (struct.unpack(">d", a)[0], 1, 0)),
        (pickle.SHORT_BINUNICODE, 1, True, lambda a: (a.decode("utf-8", "surrogatepass"), 1, 0)),
        (pickle.BINUNICODE, 4, True, lambda a: (a.decode("utf-8", "surrogatepass"), 1, 0)),
        (pickle.SHORT_BINBYTES, 1, True, lambda a: (a, 1, 0)),
        (pickle.BINBYTES, 4, True, lambda a: (a, 1, 0)),
        (pickle.BYTEARRAY8, 8, True, "new"), (pickle.EMPTY_LIST, 0, False, "new"),
        (pickle.EMPTY_DICT, 0, False, "new"), (pickle.EMPTY_SET, 0, False, "new"),
        (pickle.MARK, 0, False, "mark"), (pickle.POP, 0, False, "pop"),
        (pickle.MEMOIZE, 0, False, "memoize"),
        (pickle.BINGET, 1, False, "get"), (pickle.LONG_BINGET, 4, False, "get"),
        (pickle.APPEND, 0, False, (1, None, None)), (pickle.APPENDS, 0, False, (None, None, None)),
        (pickle.POP_MARK, 0, False, (None, None, None)),
        (pickle.SETITEM, 0, False, (2, False, None)), (pickle.SETITEMS, 0, False, (None, False, None)),
        (pickle.ADDITEMS, 0, False, (None, True, None)),
        (pickle.FROZENSET, 0, False, (None, True, frozenset)),
        (pickle.TUPLE, 0, False, (None, None, tuple)), (pickle.TUPLE1, 0, False, (1, None, tuple)),
        (pickle.TUPLE2, 0, False, (2, None, tuple)), (pickle.TUPLE3, 0, False, (3, None, tuple)),
    )
}  # fmt: skip
_BYTE_ENTRIES = [(n, 1, 0) for n in range(256)]
#: Opcodes that build a tuple or frozenset, and those plus the scalars whose
#: hash an attacker can aim (arbitrary ints and floats): a payload with none
#: of the latter but one build, at its end, cannot hash without bound.
_BUILDS = {op[0] for op in (pickle.EMPTY_TUPLE, pickle.TUPLE, pickle.TUPLE1, pickle.TUPLE2,
                            pickle.TUPLE3, pickle.FROZENSET)}  # fmt: skip
_RISKY = _BUILDS | {pickle.LONG1[0], pickle.LONG4[0], pickle.BINFLOAT[0]}
_STOP = pickle.STOP[0]
#: Hash steps a payload may cost the loader per byte, on top of a floor;
#: how deep a key it may hash (CPython's tuple hash recurses unguarded); and
#: how many keys of one dict or set may share a hash (each compares with all
#: the others).  What ``dump_data`` writes for a body stays far inside them.
_HASH_STEPS_PER_BYTE, _HASH_STEPS_FLOOR, _KEY_DEPTH, _SAME_HASH = 4, 1 << 16, 1000, 8


def check_data_pickle(payload: bytes) -> None:
    """Refuse a payload the data-only loader must not see.

    CPython's unpickler sizes buffers from the arguments it reads: a
    ``LONG_BINPUT`` index grows the memo to it, a ``BINBYTES8`` length is
    allocated before the bytes are read.  So before socket bytes reach
    :func:`~repro.mq.persistence.load_data`, every opcode must be one
    ``dump_data`` writes (no ``PUT`` family: it memoizes with ``MEMOIZE``)
    and every length must end inside the payload, which must end at its
    ``STOP``.  Beyond one pass over the bytes, the loader's only work is
    hashing dict keys and set items, which memo sharing makes unbounded: a
    tuple's hash is not cached, so ``t = (t, t)`` sixty times over costs
    2**60 steps.  So the check replays the loader's stack, holding each
    hashable value as itself (a tuple of its items' keys for a tuple), and
    refuses a payload whose hashing outgrows its length, reaches too deep,
    or piles keys onto one hash.  It replays only a payload that may: one
    with an int or float key an attacker can aim, or with a tuple or
    frozenset other than the row itself.  Raises :class:`FrameError`.
    """
    end, at, steps, built, replay = len(payload), 0, 0, -1, False
    budget = _HASH_STEPS_PER_BYTE * end + _HASH_STEPS_FLOOR
    # An entry per value the loader holds: (key, hash steps, depth).  The key
    # has the loaded value's hash; a list, dict, set or bytearray is a dict
    # counting the hashes put into it (unhashable, as the loaded value is).
    stack: List[tuple] = []
    marks: List[int] = []
    memo: List[tuple] = []
    try:
        while at < end:
            op = payload[at]
            at += 1
            if op == _STOP:
                if at != end:
                    break
                if replay or built < 0 or payload[built:] in (b".", b"\x94."):
                    return
                replay, at = True, 0  # the build is not the row's: replay
                continue
            spec = _OPCODES.get(op)
            if spec is None:
                raise FrameError(f"MSG payload holds pickle opcode 0x{op:02X}")
            width, counted, action = spec
            count = int.from_bytes(payload[at : at + width], "little") if counted else 0
            if at + width + count > end:
                break
            if not replay:
                at += width if action == "-" else width + count
                if op in _RISKY:
                    if built < 0 and op in _BUILDS:
                        built = at
                    else:
                        replay, at = True, 0
                continue
            arg = payload[at + width : at + width + count] if counted else payload[at : at + width]
            at += width if action == "-" else width + count
            if callable(action):
                stack.append(action(arg))
            elif action == "memoize":
                memo.append(stack[-1])
            elif action == "mark":
                marks.append(len(stack))
            elif action == "new":
                stack.append(({}, 1, 0))
            elif action == "get":
                stack.append(memo[int.from_bytes(arg, "little")])
            elif action == "pop":
                marks.pop() if marks and marks[-1] == len(stack) else stack.pop()
            elif action != "-":
                n, every, build = action
                cut = marks.pop() if n is None else len(stack) - n
                items = stack[cut:]
                del stack[cut:]
                if every is not None:
                    counts = {} if build else stack[-1][0]
                    for key, cost, _depth in items if every else items[::2]:
                        steps += cost
                        if steps > budget:
                            raise FrameError("MSG payload costs its loader too much hashing")
                        h = hash(key)
                        counts[h] = counts.get(h, 0) + 1
                        if counts[h] > _SAME_HASH:
                            raise FrameError("MSG payload piles keys onto one hash")
                if build is not None:
                    keys, costs, depths = zip(*items) if items else ((), (), (0,))
                    if max(depths) >= _KEY_DEPTH:
                        raise FrameError("MSG payload nests a key deeper than its loader hashes")
                    stack.append((build(keys), 1 + sum(costs), 1 + max(depths)))
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise FrameError(f"MSG payload would fail its loader: {exc!r}") from exc
    raise FrameError("MSG payload runs past its end or on past its STOP")


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    ``feed(chunk)`` returns the list of complete ``(magic, payload)``
    frames that the chunk completed; a partial frame is buffered until
    the rest arrives.  Corruption raises :class:`FrameError` and
    poisons the decoder — the caller must discard it along with the
    connection.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False
        self.frames_decoded = 0
        self.bytes_fed = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Tuple[int, bytes]]:
        if self._poisoned:
            raise FrameError("decoder poisoned by earlier stream corruption")
        self.bytes_fed += len(chunk)
        self._buffer.extend(chunk)
        frames: List[Tuple[int, bytes]] = []
        offset = 0
        buf = self._buffer
        try:
            while len(buf) - offset >= HEADER_SIZE:
                magic, length, crc = _HEADER.unpack_from(buf, offset)
                if magic not in _WIRE_MAGICS:
                    raise FrameError(f"bad wire frame magic 0x{magic:02X}")
                if length > self.max_frame_bytes:
                    raise FrameError(
                        f"frame length {length} exceeds limit "
                        f"{self.max_frame_bytes}"
                    )
                end = offset + HEADER_SIZE + length
                if len(buf) < end:
                    break  # partial frame — wait for more bytes
                payload = bytes(buf[offset + HEADER_SIZE : end])
                if zlib.crc32(payload) != crc:
                    raise FrameError("frame CRC mismatch")
                frames.append((magic, payload))
                self.frames_decoded += 1
                offset = end
        except FrameError:
            self._poisoned = True
            raise
        if offset:
            del buf[:offset]
        return frames

    def eof(self) -> None:
        """Signal end of stream; raises if a frame was truncated mid-air.

        A truncated trailing frame on a closed connection is *expected*
        during crashes (like a torn journal tail) — callers that treat
        it as routine catch :class:`FrameError` and rely on
        retransmission; the raise exists so nothing silently drops
        bytes.
        """
        if self._buffer:
            raise FrameError(
                f"stream ended mid-frame with {len(self._buffer)} trailing bytes"
            )
