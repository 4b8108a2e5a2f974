"""Binary length-prefixed wire framing.

The wire reuses the journal's ``BinaryRecordCodec`` frame format
(``persistence.py``): a ``struct("<BII")`` header of (magic byte,
payload length, CRC-32 of the payload) followed by the payload.  The
magics are wire-specific so a journal file can never be mistaken for a
socket stream and vice versa:

==========  ======  =====================================
magic       name    payload
==========  ======  =====================================
``0xC1``    MSG     JSON object ``{"seq", "queue", "message"}``
``0xC2``    ACK     JSON object ``{"cum", "window", ...}``
``0xC3``    HELLO   JSON object ``{"manager", "resync", "window"}``
==========  ======  =====================================

Payloads are JSON (``encode_message`` already produces JSON-safe
dicts); pickle never crosses a process boundary.

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
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ChannelError

__all__ = [
    "FRAME_MSG",
    "FRAME_ACK",
    "FRAME_HELLO",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "decode_payload",
    "encode_json_frame",
    "peek_frame",
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


def peek_frame(
    buf: bytes, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, bytes, int]]:
    """Parse the first frame of ``buf`` without consuming it.

    Returns ``(magic, payload, bytes_spanned)`` or ``None`` if the frame
    is still incomplete.  Used by the server accept path to read the
    peer's HELLO before it knows which channel engine owns the
    connection (the full byte stream, HELLO included, is then replayed
    into that engine's own decoder).
    """
    if len(buf) < HEADER_SIZE:
        return None
    magic, length, crc = _HEADER.unpack_from(buf, 0)
    if magic not in _WIRE_MAGICS:
        raise FrameError(f"bad wire frame magic 0x{magic:02X}")
    if length > max_frame_bytes:
        raise FrameError(f"frame length {length} exceeds limit {max_frame_bytes}")
    end = HEADER_SIZE + length
    if len(buf) < end:
        return None
    payload = bytes(buf[HEADER_SIZE:end])
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return magic, payload, end


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
