"""Sans-IO channel protocol engine.

:class:`ChannelEngine` is one endpoint of one store-and-forward
channel, written as a pure state machine: bytes and timer ticks go in,
bytes and events come out, and nothing here touches a socket or a
clock.  The asyncio transport (:mod:`repro.net.wire`) drives it over
real connections; the chaos suite (:mod:`repro.chaos.wire`) drives the
*same* code over a simulated lossy pipe, so retransmission, resync and
dedup logic is tested deterministically before it ever sees a socket.

Channel model
-------------

A channel is unidirectional for application messages: the *sender*
engine emits MSG frames carrying per-channel sequence numbers, the
*receiver* engine emits cumulative ACK frames that double as credit
grants.  Both ends open every connection with a HELLO frame:

- sender HELLO identifies the channel (``manager`` name) so a server
  hosting many inbound channels can bind the connection;
- receiver HELLO carries ``resync`` — the highest sequence number it
  has *durably* accepted — and the current credit ``window``.

On reconnect the sender drops every in-flight entry at or below
``resync`` (they were delivered; the transfers are resolved) and
retransmits the rest in order.  Retransmission within a live
connection is timer-driven: the retransmit timer is RFC 6298
(:class:`repro.net.rtt.RttEstimator`), samples are taken only from
never-retransmitted sends (Karn's rule) and the timeout doubles on
each expiry.

Exactly-once is two-tier, mirroring ``MessageNetwork``: sequence
numbers suppress duplicates within a connection epoch, and the
delivery layer's message-id dedup suppresses redeliveries across
reconnects for the life of the receiving process.  Across a receiver
*restart* the delivery layer reseeds its dedup ledger from the
recovered queues, so a message that was journaled but not yet consumed
is still dropped by id when the sender retransmits it; a message that
was journaled, *consumed*, and whose ack then died with the crash
leaves no trace to dedup against, and is redelivered (at-least-once at
that edge — see SEMANTICS.md §11).

Acks are deliberately decoupled from the stream cursor: the engine
only acknowledges sequence numbers whose delivery the embedding layer
has *confirmed* (journaled), via :meth:`ChannelEngine.confirm_delivery`.
The sender therefore never resolves its durable spool copy before the
receiver holds the message durably — journal-before-ack across
processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ChannelError
from repro.mq.message import Message
from repro.net.framing import (
    FRAME_ACK,
    FRAME_HELLO,
    FRAME_MSG,
    FrameDecoder,
    MAX_FRAME_BYTES,
    decode_msg,
    decode_payload,
    encode_json_frame,
    encode_msg_frame,
)
from repro.net.rtt import RttEstimator

__all__ = ["ChannelEngine", "EngineEvent", "ProtocolError", "DEFAULT_WINDOW"]

#: Default credit window (max unconfirmed messages in flight per channel).
DEFAULT_WINDOW = 64


class ProtocolError(ChannelError):
    """Peer violated the channel protocol; connection must be dropped."""


class EngineEvent:
    """One event produced by the engine for the embedding layer.

    Kinds
    -----
    ``message``    receiver: in-order MSG arrived (``seq``, ``queue``,
                   ``message`` — the decoded :class:`Message`).
    ``delivered``  sender: peer durably accepted a send (``seq``,
                   ``message_id``) — resolve the spool copy now.
    ``hello``      receiver: peer identified itself (``manager``).
    ``handshaken`` sender: peer HELLO processed; sending may begin.
    ``window``     sender: peer credit changed (``window``).
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, **data: Any) -> None:
        self.kind = kind
        self.data = data

    def __getattr__(self, name: str) -> Any:
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineEvent({self.kind!r}, {self.data!r})"


class _InFlight:
    """One unacknowledged send; ``frame`` is what a retransmit re-emits."""

    __slots__ = ("seq", "frame", "message_id", "sent_at", "retransmitted")

    def __init__(self, seq: int, frame: bytes, message_id: str) -> None:
        self.seq = seq
        self.frame = frame
        self.message_id = message_id
        self.sent_at = 0.0
        self.retransmitted = False


class ChannelEngine:
    """Sans-IO endpoint of one channel (``role`` is sender or receiver)."""

    def __init__(
        self,
        manager_name: str,
        role: str,
        *,
        window: int = DEFAULT_WINDOW,
        rtt: Optional[RttEstimator] = None,
        initial_rto_ms: float = 1000.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if role not in ("sender", "receiver"):
            raise ValueError("role must be 'sender' or 'receiver'")
        self.manager_name = manager_name
        self.role = role
        self.rtt = rtt if rtt is not None else RttEstimator(initial_rto=initial_rto_ms)
        self.max_frame_bytes = max_frame_bytes

        self.connected = False
        self.handshaken = False
        self._ever_connected = False
        self.peer_manager: Optional[str] = None

        # --- sender state ---------------------------------------------
        self._next_seq = 1
        self._unacked: Deque[_InFlight] = deque()
        self.peer_window = 0
        self._backoff_active = False

        # --- receiver state -------------------------------------------
        self._cursor = 0  # highest in-order seq seen this epoch
        self._confirmed = 0  # highest seq durably accepted (ackable)
        self._delivered_high = 0  # highest seq ever handed to the app
        self.local_window = window
        self._ack_pending = False

        self._decoder = FrameDecoder(max_frame_bytes)
        self._outbox = bytearray()

        self.metrics: Dict[str, int] = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "frames_sent": 0,
            "frames_received": 0,
            "retransmits": 0,
            "duplicates": 0,
            "reconnects": 0,
        }

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connection_established(self, now_ms: float) -> None:
        if self.connected:
            raise ProtocolError("connection_established while already connected")
        self.connected = True
        self.handshaken = False
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self._outbox = bytearray()
        if self._ever_connected:
            self.metrics["reconnects"] += 1
        self._ever_connected = True
        if self.role == "sender":
            self._emit_frame(
                FRAME_HELLO, {"manager": self.manager_name, "role": "sender"}
            )
        else:
            # A receiver epoch restarts from the durable watermark: any
            # seq the embedding layer never confirmed must be resent.
            self._cursor = self._confirmed
            self._emit_frame(
                FRAME_HELLO,
                {
                    "manager": self.manager_name,
                    "role": "receiver",
                    "resync": self._confirmed,
                    "window": self.local_window,
                },
            )

    def connection_lost(self, now_ms: float) -> None:
        self.connected = False
        self.handshaken = False
        self._outbox = bytearray()
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self._ack_pending = False

    # ------------------------------------------------------------------
    # byte I/O
    # ------------------------------------------------------------------
    def data_to_send(self) -> bytes:
        """Drain bytes queued for the wire."""
        if not self._outbox:
            return b""
        data = bytes(self._outbox)
        self._outbox = bytearray()
        return data

    def receive_bytes(self, data: bytes, now_ms: float) -> List[EngineEvent]:
        """Feed wire bytes; returns engine events for the embedding layer.

        Raises :class:`FrameError`/:class:`ProtocolError` on stream
        corruption or protocol violation — drop the connection.
        """
        if not self.connected:
            raise ProtocolError("receive_bytes while disconnected")
        self.metrics["bytes_received"] += len(data)
        events: List[EngineEvent] = []
        for magic, payload in self._decoder.feed(data):
            self.metrics["frames_received"] += 1
            if magic == FRAME_MSG:
                events.extend(self._on_msg(*decode_msg(payload)))
            elif magic == FRAME_HELLO:
                events.extend(self._on_hello(decode_payload(payload), now_ms))
            elif magic == FRAME_ACK:
                events.extend(self._on_ack(decode_payload(payload), now_ms))
        if self._ack_pending:
            self._flush_ack()
        return events

    # ------------------------------------------------------------------
    # sender API
    # ------------------------------------------------------------------
    def can_send(self) -> bool:
        return (
            self.role == "sender"
            and self.connected
            and self.handshaken
            and len(self._unacked) < self.peer_window
        )

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

    def send_message(
        self, queue: str, message: Message, message_id: str, now_ms: float
    ) -> int:
        """Queue one message frame; returns its seq.  A retransmit re-sends it."""
        if self.role != "sender":
            raise ProtocolError("send_message on a receiver engine")
        if not self.can_send():
            raise ChannelError("channel not writable (no credit or not connected)")
        seq = self._next_seq
        entry = _InFlight(seq, encode_msg_frame(queue, message, seq), message_id)
        self._next_seq += 1
        entry.sent_at = now_ms
        self._unacked.append(entry)
        self._emit(entry.frame)
        return seq

    # ------------------------------------------------------------------
    # receiver API
    # ------------------------------------------------------------------
    def confirm_delivery(self, seq: int) -> None:
        """Mark ``seq`` (and everything before it) durably accepted.

        Called by the embedding layer *after* the message is journaled
        locally; only confirmed sequence numbers are ever acknowledged,
        so the sender cannot resolve its spool copy for a message the
        receiver might lose in a crash.
        """
        if self.role != "receiver":
            raise ProtocolError("confirm_delivery on a sender engine")
        if seq > self._delivered_high:
            raise ProtocolError(
                f"confirming seq {seq} never delivered "
                f"(high watermark {self._delivered_high})"
            )
        if seq > self._confirmed:
            self._confirmed = seq
            if self._confirmed > self._cursor:
                # A deferred confirmation (group commit holding the
                # durability callback) landed after a reconnect reset the
                # cursor: the message was delivered in an earlier epoch
                # and is durable now, so skip ahead — the sender's
                # in-flight retransmits of these seqs arrive as ordinary
                # duplicates and are re-acked.
                self._cursor = self._confirmed
            self._ack_pending = True
            if self.connected:
                self._flush_ack()

    @property
    def confirmed(self) -> int:
        """Highest sequence number durably accepted (receiver role).

        Seqs at or below this watermark are never redelivered as
        ``message`` events — within an epoch they fall under the
        cursor, and across a reconnect the HELLO resync makes the
        sender drop them — so the embedding layer can prune any
        per-delivery dedup state it keeps for them.
        """
        return self._confirmed

    def advertise_window(self, window: int) -> None:
        """Update the credit window granted to the peer.

        Any change is announced with a standalone ACK frame: a re-open
        wakes a stalled sender, a shrink stops it promptly instead of
        waiting for the next delivery ack.
        """
        window = max(0, int(window))
        changed = window != self.local_window
        self.local_window = window
        if self.role == "receiver" and self.connected and changed:
            self._ack_pending = True
            self._flush_ack()

    # ------------------------------------------------------------------
    # timers (sender retransmission)
    # ------------------------------------------------------------------
    def next_timer(self, now_ms: float) -> Optional[float]:
        """Absolute ms when the retransmit timer fires, or None."""
        if self.role != "sender" or not self.connected or not self._unacked:
            return None
        return self._unacked[0].sent_at + self.rtt.rto

    def on_timer(self, now_ms: float) -> int:
        """Fire the retransmission timer if due; returns frames resent.

        Go-back-N: the full in-flight window is retransmitted in order,
        the RTO doubles (RFC 6298 §5.5), and — Karn — none of the
        resent entries may later produce an RTT sample.
        """
        due = self.next_timer(now_ms)
        if due is None or now_ms < due:
            return 0
        resent = self._resend_unacked(now_ms)
        self.rtt.backoff()
        self._backoff_active = True
        return resent

    def _resend_unacked(self, now_ms: float) -> int:
        """Re-emit every in-flight frame, in order, marked retransmitted
        (Karn: none of them may later produce an RTT sample)."""
        for entry in self._unacked:
            entry.retransmitted = True
            entry.sent_at = now_ms
            self._emit(entry.frame)
        self.metrics["retransmits"] += len(self._unacked)
        return len(self._unacked)

    # ------------------------------------------------------------------
    # frame handlers
    # ------------------------------------------------------------------
    def _on_hello(self, obj: Dict[str, Any], now_ms: float) -> List[EngineEvent]:
        peer = obj.get("manager")
        if not isinstance(peer, str) or not peer:
            raise ProtocolError("HELLO missing manager name")
        self.peer_manager = peer
        if self.role == "sender":
            resync = obj.get("resync", 0)
            window = obj.get("window", 0)
            if not isinstance(resync, int) or not isinstance(window, int):
                raise ProtocolError("HELLO resync/window must be integers")
            events = self._resolve_acked(resync, None)
            self.peer_window = window
            self.handshaken = True
            # Everything the peer never durably accepted goes again.
            self._resend_unacked(now_ms)
            events.append(EngineEvent("handshaken", manager=peer, window=window))
            return events
        else:
            self.handshaken = True
            return [EngineEvent("hello", manager=peer)]

    def _on_ack(self, obj: Dict[str, Any], now_ms: float) -> List[EngineEvent]:
        if self.role != "sender":
            raise ProtocolError("ACK frame received by receiver engine")
        cum = obj.get("cum")
        window = obj.get("window", self.peer_window)
        if not isinstance(cum, int) or not isinstance(window, int):
            raise ProtocolError("ACK cum/window must be integers")
        events = self._resolve_acked(cum, now_ms)
        if window != self.peer_window:
            self.peer_window = window
            events.append(EngineEvent("window", window=window))
        return events

    def _on_msg(self, seq: int, queue: str, message: Message) -> List[EngineEvent]:
        if self.role != "receiver":
            raise ProtocolError("MSG frame received by sender engine")
        if seq <= self._cursor:
            # Duplicate (retransmit raced our ack) — count and re-ack so
            # the sender converges.
            self.metrics["duplicates"] += 1
            self._ack_pending = True
            return []
        if seq != self._cursor + 1:
            raise ProtocolError(
                f"sequence gap: expected {self._cursor + 1}, got {seq}"
            )
        self._cursor = seq
        if seq > self._delivered_high:
            self._delivered_high = seq
        return [EngineEvent("message", seq=seq, queue=queue, message=message)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_acked(
        self, cum: int, now_ms: Optional[float]
    ) -> List[EngineEvent]:
        events: List[EngineEvent] = []
        sample_entry: Optional[_InFlight] = None
        while self._unacked and self._unacked[0].seq <= cum:
            entry = self._unacked.popleft()
            if not entry.retransmitted:
                sample_entry = entry  # newest never-retransmitted ack wins
            events.append(
                EngineEvent("delivered", seq=entry.seq, message_id=entry.message_id)
            )
        if sample_entry is not None and now_ms is not None:
            self.rtt.observe(max(0.0, now_ms - sample_entry.sent_at))
            if self._backoff_active:
                self._backoff_active = False
                self.rtt.reset_backoff()
        return events

    def _flush_ack(self) -> None:
        self._ack_pending = False
        self._emit_frame(
            FRAME_ACK, {"cum": self._confirmed, "window": self.local_window}
        )

    def _emit_frame(self, magic: int, obj: Dict[str, Any]) -> None:
        self._emit(encode_json_frame(magic, obj))

    def _emit(self, frame: bytes) -> None:
        self._outbox.extend(frame)
        self.metrics["frames_sent"] += 1
        self.metrics["bytes_sent"] += len(frame)
