"""Receiver-side conditional messaging service (paper section 2.4, Fig. 7).

Final recipients read conditional messages through this service, which:

* generates the **implicit acknowledgments** — an acknowledgment of
  non-transactional read immediately after the get, or an acknowledgment
  of transactional read *bound to the commit* of the receiver's
  transaction (via the demarcation facade ``begin_tx``/``commit_tx``/
  ``abort_tx``);
* routes acknowledgments back to the sender's acknowledgment queue using
  the routing information the sender stamped on the message;
* logs every consumed message to the persistent receiver log queue
  ``DS.RLOG.Q``;
* implements the compensation read rules of section 2.6: an original and
  its compensation that are both still in the queue cancel each other
  out; a compensation whose original *was* consumed from the same queue
  (RLOG entry exists) is delivered to the application flagged as
  compensation; any other compensation is discarded.

A receiver "can also be a sender of a conditional message" — nothing here
prevents attaching a :class:`~repro.core.service.ConditionalMessagingService`
to the same queue manager.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core import control
from repro.core.acks import Acknowledgment, AckKind, acks_to_message, ack_to_message
from repro.core.logqueues import RECEIVER_LOG_QUEUE, ReceiverLogEntry
from repro.errors import NoTransactionError, TransactionActiveError
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.transactions import MQTransaction
from repro.obs.trace import STAGE_ACK


@dataclass(frozen=True)
class ReceivedMessage:
    """What the application sees for one consumed message."""

    body: Any
    cmid: Optional[str]
    kind: str  # control.KIND_* or "plain" for non-conditional traffic
    queue: str
    read_time_ms: int
    message: Message
    processing_required: bool = False

    @property
    def is_conditional(self) -> bool:
        """True if the message came from a conditional messaging sender."""
        return self.cmid is not None

    @property
    def is_compensation(self) -> bool:
        """True for a delivered compensation message."""
        return self.kind == control.KIND_COMPENSATION

    @property
    def is_success_notification(self) -> bool:
        """True for a success notification."""
        return self.kind == control.KIND_SUCCESS_NOTIFICATION


@dataclass
class ReceiverStats:
    """Counters for tests and benchmark reporting."""

    reads: int = 0
    transactional_reads: int = 0
    acks_sent: int = 0
    cancellations: int = 0
    compensations_delivered: int = 0
    compensations_discarded: int = 0


class ConditionalMessagingReceiver:
    """Receiver-side facade over a queue manager."""

    def __init__(
        self,
        manager: QueueManager,
        recipient_id: Optional[str] = None,
        rlog_queue: str = RECEIVER_LOG_QUEUE,
    ) -> None:
        self.manager = manager
        #: Identity carried in acknowledgments.  Explicit ids let senders
        #: name this recipient in conditions; anonymous receivers get a
        #: generated consumer id (still needed for distinct-recipient
        #: counting of anonymous conditions).
        self.recipient_id = recipient_id or f"anon-{uuid.uuid4().hex[:10]}"
        self.rlog_queue = rlog_queue
        self.manager.ensure_queue(rlog_queue)
        self._transaction: Optional[MQTransaction] = None
        #: Open ack batch: target (ack manager, ack queue) -> pending acks.
        #: ``None`` when no batch is open; see :meth:`ack_batch`.
        self._ack_buffer: Optional[
            Dict[Tuple[str, str], List[Acknowledgment]]
        ] = None
        self.stats = ReceiverStats()

    # -- transaction demarcation facade (paper: begin_tx / commit_tx) ---------

    def begin_tx(self) -> MQTransaction:
        """Begin a messaging transaction for subsequent reads."""
        if self._transaction is not None and self._transaction.active:
            raise TransactionActiveError("a receiver transaction is already active")
        self._transaction = self.manager.begin()
        return self._transaction

    def commit_tx(self) -> None:
        """Commit; acknowledgments for transactional reads fire now."""
        if self._transaction is None or not self._transaction.active:
            raise NoTransactionError("no active receiver transaction")
        transaction = self._transaction
        self._transaction = None
        # A transaction's on_commit hooks fire one PROCESSED ack per
        # transactional read; batching folds them into one ack message
        # per target, so committing an N-read transaction costs one
        # remote put instead of N.
        with self.ack_batch():
            transaction.commit()

    def abort_tx(self) -> None:
        """Roll back; consumed messages return to their queues, no acks."""
        if self._transaction is None or not self._transaction.active:
            raise NoTransactionError("no active receiver transaction")
        transaction = self._transaction
        self._transaction = None
        transaction.rollback()

    @property
    def in_transaction(self) -> bool:
        """True while a receiver transaction is active."""
        return self._transaction is not None and self._transaction.active

    # -- reading ----------------------------------------------------------------

    @contextmanager
    def ack_batch(self) -> Iterator[None]:
        """Coalesce acknowledgments generated inside the block.

        While open, :meth:`_send_ack` buffers acknowledgments instead of
        putting each on the wire; on exit one batched ack message is sent
        per distinct (ack manager, ack queue) target.  With a journaled
        sender-side manager that turns N acks into one journal flush.
        Logical counters (``stats.acks_sent``), per-ack traces, and
        metrics are unaffected — only the wire framing changes.

        Nested batches join the outermost one.  The buffer is flushed
        even if the block raises: buffered acks correspond to reads that
        already happened, so dropping them would leak pending conditions.
        """
        if self._ack_buffer is not None:
            yield
            return
        self._ack_buffer = {}
        try:
            yield
        finally:
            buffered, self._ack_buffer = self._ack_buffer, None
            for (ack_manager, ack_queue), acks in buffered.items():
                self.manager.put_remote(
                    ack_manager, ack_queue, acks_to_message(acks)
                )

    def read_message(
        self, queue_name: str, *, _scan_pairs: bool = True
    ) -> Optional[ReceivedMessage]:
        """Read the next message from ``queue_name`` (the paper's readMessage).

        Returns ``None`` when no deliverable message is available.  The
        special compensation behaviour (cancellation, conditional
        delivery) happens transparently inside this call.

        The whole read is one commit group: the pair-cancellation
        removals, the get, the receiver-log entry and the acknowledgment
        spooled for the sender (unless an :meth:`ack_batch` holds it for
        the batch's exit) flush together, so a crash leaves the message
        either unread or consumed, logged and acknowledged.  The
        acknowledgment's transfer waits for that flush.
        """
        with self.manager.group_commit():
            self.manager.ensure_queue(queue_name)
            if _scan_pairs:
                self._cancel_pairs(queue_name)
            while True:
                message = self.manager.get_wait(
                    queue_name, transaction=self._transaction
                )
                if message is None:
                    return None
                if not control.is_conditional(message):
                    self.stats.reads += 1
                    return ReceivedMessage(
                        body=message.body,
                        cmid=None,
                        kind="plain",
                        queue=queue_name,
                        read_time_ms=self.manager.clock.now_ms(),
                        message=message,
                    )
                info = control.extract_control(message)
                if info.kind == control.KIND_ORIGINAL:
                    return self._deliver_original(queue_name, message, info)
                if info.kind == control.KIND_COMPENSATION:
                    delivered = self._handle_compensation(queue_name, message, info)
                    if delivered is not None:
                        return delivered
                    continue  # discarded; keep reading
                if info.kind == control.KIND_SUCCESS_NOTIFICATION:
                    self.stats.reads += 1
                    return ReceivedMessage(
                        body=message.body,
                        cmid=info.cmid,
                        kind=info.kind,
                        queue=queue_name,
                        read_time_ms=self.manager.clock.now_ms(),
                        message=message,
                    )
                # Unknown conditional kind: deliver as-is rather than lose it.
                self.stats.reads += 1
                return ReceivedMessage(
                    body=message.body,
                    cmid=info.cmid,
                    kind=info.kind,
                    queue=queue_name,
                    read_time_ms=self.manager.clock.now_ms(),
                    message=message,
                )

    def read_all(self, queue_name: str, limit: Optional[int] = None) -> List[ReceivedMessage]:
        """Drain all currently deliverable messages (up to ``limit``).

        The cancellation scan runs once for the whole drain (nothing new
        can land mid-drain in the synchronous loop), and the drain's
        acknowledgments are batched into one ack message per target.
        """
        self.manager.ensure_queue(queue_name)
        received: List[ReceivedMessage] = []
        with self.ack_batch():
            self._cancel_pairs(queue_name)
            while limit is None or len(received) < limit:
                message = self.read_message(queue_name, _scan_pairs=False)
                if message is None:
                    break
                received.append(message)
        return received

    # -- internals: original delivery -----------------------------------------------

    def _deliver_original(
        self, queue_name: str, message: Message, info: control.ControlInfo
    ) -> ReceivedMessage:
        read_time = self.manager.clock.now_ms()
        self.stats.reads += 1
        if self._transaction is not None and self._transaction.active:
            self.stats.transactional_reads += 1
            transaction = self._transaction
            # The receiver log entry joins the receiver's transaction: if
            # the transaction rolls back, the message returns to the queue
            # and the consumption was never logged.
            log_entry = ReceiverLogEntry(
                cmid=info.cmid,
                original_message_id=message.message_id,
                queue=queue_name,
                recipient=self.recipient_id,
                read_time_ms=read_time,
                transactional=True,
            )
            self.manager.put(
                self.rlog_queue, log_entry.to_message(), transaction=transaction
            )
            transaction.on_commit(
                lambda commit_ms: self._send_ack(
                    info,
                    AckKind.PROCESSED,
                    queue_name,
                    read_time,
                    commit_ms,
                    message.message_id,
                )
            )
        else:
            log_entry = ReceiverLogEntry(
                cmid=info.cmid,
                original_message_id=message.message_id,
                queue=queue_name,
                recipient=self.recipient_id,
                read_time_ms=read_time,
                transactional=False,
            )
            self.manager.put(self.rlog_queue, log_entry.to_message())
            self._send_ack(
                info, AckKind.READ, queue_name, read_time, None, message.message_id
            )
        return ReceivedMessage(
            body=message.body,
            cmid=info.cmid,
            kind=control.KIND_ORIGINAL,
            queue=queue_name,
            read_time_ms=read_time,
            message=message,
            processing_required=info.processing_required,
        )

    def _send_ack(
        self,
        info: control.ControlInfo,
        kind: AckKind,
        queue_name: str,
        read_time_ms: int,
        commit_time_ms: Optional[int],
        original_message_id: str,
    ) -> None:
        # Acknowledge against the destination the SENDER addressed (from
        # the control properties), not the physical queue consumed from:
        # for plain queues they coincide, but a topic's fan-out copies are
        # consumed from per-subscription queues while the condition names
        # the topic.
        addressed_queue = info.dest_queue or queue_name
        addressed_manager = info.dest_manager or self.manager.name
        ack = Acknowledgment(
            cmid=info.cmid,
            kind=kind,
            queue=addressed_queue,
            manager=addressed_manager,
            recipient=self.recipient_id,
            read_time_ms=read_time_ms,
            commit_time_ms=commit_time_ms,
            original_message_id=original_message_id,
        )
        if self._ack_buffer is not None:
            self._ack_buffer.setdefault(
                (info.ack_manager, info.ack_queue), []
            ).append(ack)
        else:
            self.manager.put_remote(
                info.ack_manager, info.ack_queue, ack_to_message(ack)
            )
        self.stats.acks_sent += 1
        tracer = self.manager.tracer
        if tracer.enabled:
            tracer.emit(
                STAGE_ACK,
                at_ms=self.manager.clock.now_ms(),
                cmid=info.cmid,
                manager=self.manager.name,
                queue=addressed_queue,
                message_id=original_message_id,
                kind=kind.value,
                recipient=self.recipient_id,
            )
        if self.manager.metrics is not None:
            self.manager.metrics.incr(f"acks_sent.{self.manager.name}")

    # -- internals: compensation rules -------------------------------------------------

    def _cancel_pairs(self, queue_name: str) -> int:
        """Cancel original/compensation pairs still co-resident in the queue.

        "In case that both the original message and the compensation
        message are in the queue ... both messages cancel each other out
        and will be deleted from the queue."

        An original and its compensation share ``correlation_id = cmid``,
        so only messages whose correlation id is shared within the queue
        are inspected; an inbox without such a collision costs one
        counter check however deep it is.
        """
        originals: Dict[str, List[str]] = {}
        compensations: Dict[str, List[str]] = {}
        for message in self.manager.queue(queue_name).find_collisions():
            if not control.is_conditional(message):
                continue
            kind = control.message_kind(message)
            cmid = str(message.get_property(control.PROP_CMID))
            if kind == control.KIND_ORIGINAL:
                originals.setdefault(cmid, []).append(message.message_id)
            elif kind == control.KIND_COMPENSATION:
                compensations.setdefault(cmid, []).append(message.message_id)
        cancelled = 0
        for cmid, comp_ids in compensations.items():
            orig_ids = originals.get(cmid, [])
            for comp_id, orig_id in zip(comp_ids, orig_ids):
                # Journaled removals: a recovered receiver must not
                # resurrect a cancelled original/compensation pair.
                self.manager.get_by_id(queue_name, comp_id)
                self.manager.get_by_id(queue_name, orig_id)
                cancelled += 1
        self.stats.cancellations += cancelled
        return cancelled

    def _consumed_here(self, cmid: str, queue_name: str) -> bool:
        """True if DS.RLOG.Q records a consumption of ``cmid`` from
        ``queue_name`` (log entries carry ``correlation_id = cmid``).

        The queue matters: a manager may host several destination queues
        of one conditional message, and a compensation is delivered only
        where *its* original was consumed.
        """
        for message in self.manager.find_correlated(self.rlog_queue, cmid):
            body = message.body
            if isinstance(body, dict) and body.get("queue") == queue_name:
                return True
        return False

    def _handle_compensation(
        self, queue_name: str, message: Message, info: control.ControlInfo
    ) -> Optional[ReceivedMessage]:
        """Apply the delivery rule for a compensation we just consumed.

        The co-resident case was handled by :meth:`_cancel_pairs` before
        the get; reaching here means no matching original remains in the
        queue.  Deliver only if the original was consumed from this queue.
        """
        if self._consumed_here(info.cmid, queue_name):
            self.stats.compensations_delivered += 1
            return ReceivedMessage(
                body=message.body,
                cmid=info.cmid,
                kind=control.KIND_COMPENSATION,
                queue=queue_name,
                read_time_ms=self.manager.clock.now_ms(),
                message=message,
            )
        self.stats.compensations_discarded += 1
        return None
