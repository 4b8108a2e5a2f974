"""Queue manager: names and hosts queues, routes puts/gets, owns the journal.

A :class:`QueueManager` corresponds to one MQSeries queue manager or one
JMS provider instance.  Every application endpoint in the paper's
architecture (the sender, each receiver) connects to *its own* queue
manager; managers are wired together by
:class:`~repro.mq.network.MessageNetwork`.

Responsibilities:

* queue definition/deletion, with a system dead-letter queue
  (``SYSTEM.DEAD.LETTER.QUEUE``) that collects expired and poisoned
  messages;
* non-transactional put/get/browse with journal records for persistent
  messages;
* syncpoint transactions (see :mod:`repro.mq.transactions`);
* backout-threshold handling: a message whose transactional consumption
  has been rolled back too many times is moved to the dead-letter queue
  rather than poisoning consumers forever;
* the sequence state of its channels (:mod:`repro.mq.sequence`): the last
  seq stamped toward each peer, and the watermark of seqs accepted from
  each, durable in the commit groups of the parks and arrivals they number;
* crash/restart: :meth:`recover` rebuilds a manager from its journal.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import (
    EmptyQueueError,
    MQError,
    PersistenceError,
    QueueExistsError,
    QueueNotFoundError,
)
from repro.mq.message import Message
from repro.mq.persistence import Journal, journal_for
from repro.mq.sqlstore import SqlMessageQueue, SqlQueueStore
from repro.mq.queue import DEFAULT_MAX_DEPTH, MessageQueue
from repro.mq.sequence import PROP_ROUTE_SEQ, XMIT_PREFIX, SeqWatermark
from repro.mq.transactions import MQTransaction
from repro.mq import reports as reports_mod
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    STAGE_ARRIVAL,
    STAGE_COMMIT,
    STAGE_DEAD_LETTER,
    STAGE_GET,
    STAGE_ROLLBACK,
    Tracer,
    cmid_of,
)
from repro.sim.clock import Clock

#: Name of the automatically defined dead-letter queue.
DEAD_LETTER_QUEUE = "SYSTEM.DEAD.LETTER.QUEUE"

#: The context of a put whose queue has no listeners: no group of its own.
_NO_GROUP = nullcontext()


class _Group:
    """:meth:`QueueManager.group_commit`'s context: the durable store's
    group, then auto-compaction once it is written."""

    __slots__ = ("manager", "inner")

    def __init__(self, manager: "QueueManager", inner: ContextManager) -> None:
        self.manager = manager
        self.inner = inner

    def __enter__(self) -> "QueueManager":
        self.inner.__enter__()
        return self.manager

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.inner.__exit__(exc_type, exc, tb)
        if exc_type is None:
            self.manager._maybe_autocompact()


class QueueManager:
    """A named queue manager hosting local queues.

    Args:
        name: Network-unique manager name (e.g. ``"QM.SENDER"``).
        clock: Time source shared with the rest of the simulation.
        journal: Optional durable store — a :class:`Journal` or
            :class:`SqlQueueStore` instance, or a backend URL
            (``"memory:"`` / ``"binfile:<path>"`` / ``"sqlstore:<path>"``,
            resolved via
            :func:`~repro.mq.persistence.journal_for`); without one the
            manager is volatile (all messages behave as non-persistent on
            restart).
        backout_threshold: When a message's backout count reaches this
            value, the next transactional get moves it to the dead-letter
            queue instead of delivering it.  ``None`` disables the check.
        tracer: Lifecycle tracer (see :mod:`repro.obs.trace`); the
            default no-op tracer keeps the hot path at one flag check.
            Components layered on this manager (receiver, evaluation,
            compensation) inherit it.
        metrics: Optional shared registry for counters and per-queue
            depth gauges; ``None`` (default) records nothing.
    """

    def __init__(
        self,
        name: str,
        clock: Clock,
        journal: "Optional[Journal | str]" = None,
        backout_threshold: Optional[int] = 5,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not name:
            raise MQError("queue manager name must be non-empty")
        if isinstance(journal, str):
            journal = journal_for(journal)
        if journal is not None and metrics is not None and journal.metrics is None:
            # The journal or store reports flush/record metrics through
            # the owning manager's registry.
            journal.metrics = metrics
        self.name = name
        self.clock = clock
        #: SQL-backed live state (``sqlstore:`` URLs / :class:`SqlQueueStore`
        #: passed as the journal).  In store mode the database *is* the
        #: queue content, so there is nothing to journal: ``self.journal``
        #: stays ``None`` and queue operations run through
        #: :class:`SqlMessageQueue` wrappers.
        self.store: Optional[SqlQueueStore] = None
        if isinstance(journal, SqlQueueStore):
            self.store = journal
            journal = None
        self.journal = journal
        self.backout_threshold = backout_threshold
        self.tracer = tracer
        self.metrics = metrics
        self._compacting = False
        self._queues: Dict[str, MessageQueue] = {}
        #: local alias -> (remote manager, remote queue) — MQ "remote
        #: queue definitions"
        self._remote_definitions: Dict[str, tuple] = {}
        self._remote_put_handler: Optional[Callable[[str, str, Message], None]] = None
        #: peer -> last seq stamped on a copy parked for it
        self._sent: Dict[str, int] = {}
        #: peer -> watermark of the seqs accepted from it
        self._accepted: Dict[str, SeqWatermark] = {}
        self.define_queue(DEAD_LETTER_QUEUE, journal_definition=False)
        if self.store is not None:
            self._restore_channels(self.store.channels(name))
            # Attaching to a shared store: pick up queues that already
            # exist there (defined by a previous incarnation or by
            # another manager sharing the store).
            for queue_name in self.store.queue_names():
                if queue_name not in self._queues:
                    self.define_queue(queue_name, journal_definition=False)

    # -- queue administration --------------------------------------------------

    def define_queue(
        self,
        queue_name: str,
        max_depth: int = DEFAULT_MAX_DEPTH,
        journal_definition: bool = True,
    ) -> MessageQueue:
        """Create a local queue; raises :class:`QueueExistsError` if taken."""
        if queue_name in self._queues or queue_name in self._remote_definitions:
            raise QueueExistsError(queue_name)
        # Bind the queue name so expiry can journal the removal from
        # the right source queue.
        on_expired = lambda message, _q=queue_name: self._route_expired(
            _q, message
        )
        if self.store is not None:
            queue: MessageQueue = SqlMessageQueue(
                self.store,
                queue_name,
                self.clock,
                max_depth=max_depth,
                on_expired=on_expired,
                tracer=self.tracer,
                metrics=self.metrics,
                owner=self.name,
            )
        else:
            queue = MessageQueue(
                queue_name,
                self.clock,
                max_depth=max_depth,
                on_expired=on_expired,
                tracer=self.tracer,
                metrics=self.metrics,
                owner=self.name,
            )
        self._queues[queue_name] = queue
        if self.journal is not None and journal_definition:
            self.journal.log_queue_defined(queue_name)
        return queue

    def ensure_queue(self, queue_name: str, max_depth: int = DEFAULT_MAX_DEPTH) -> MessageQueue:
        """Return the queue, defining it first if absent (idempotent).

        Remote queue definitions are not local queues; ensuring one is an
        error (resolve it with :meth:`resolve_remote` instead).
        """
        if queue_name in self._remote_definitions:
            raise MQError(
                f"{queue_name!r} is a remote queue definition, not a local queue"
            )
        if queue_name in self._queues:
            return self._queues[queue_name]
        return self.define_queue(queue_name, max_depth=max_depth)

    def delete_queue(self, queue_name: str) -> None:
        """Remove a queue and discard its content."""
        if queue_name == DEAD_LETTER_QUEUE:
            raise MQError("the dead-letter queue cannot be deleted")
        if queue_name not in self._queues:
            raise QueueNotFoundError(queue_name)
        del self._queues[queue_name]
        if self.store is not None:
            self.store.delete_queue(queue_name)
        if self.journal is not None:
            self.journal.log_queue_deleted(queue_name)

    def define_remote_queue(
        self, local_name: str, remote_manager: str, remote_queue: str
    ) -> None:
        """Define a local alias for a queue on another manager.

        Real MQSeries "remote queue definitions": applications put to the
        local name; the manager routes to the remote destination.  The
        alias shares the namespace with local queues.
        """
        if local_name in self._queues or local_name in self._remote_definitions:
            raise QueueExistsError(local_name)
        self._remote_definitions[local_name] = (remote_manager, remote_queue)

    def resolve_remote(self, local_name: str) -> "Optional[tuple]":
        """The (manager, queue) behind a remote definition, or ``None``."""
        return self._remote_definitions.get(local_name)

    def queue(self, queue_name: str) -> MessageQueue:
        """Look up a local queue; raises :class:`QueueNotFoundError`."""
        try:
            return self._queues[queue_name]
        except KeyError:
            queue = self._attach_store_queue(queue_name)
            if queue is not None:
                return queue
            raise QueueNotFoundError(queue_name) from None

    def _attach_store_queue(self, queue_name: str) -> Optional[MessageQueue]:
        """Late-attach a queue another manager defined on the shared store.

        Construction picks up the store's queues, but a manager sharing
        the store may define new ones afterwards; a lookup miss re-checks
        the store registry so those appear without re-attaching.
        """
        if self.store is None or queue_name in self._remote_definitions:
            return None
        if queue_name not in self.store.queue_names():
            return None
        return self.define_queue(queue_name, journal_definition=False)

    def has_queue(self, queue_name: str) -> bool:
        """True if a local queue with that name exists."""
        if queue_name in self._queues:
            return True
        return self._attach_store_queue(queue_name) is not None

    def queue_names(self) -> List[str]:
        """Names of all local queues (dead-letter queue included)."""
        return list(self._queues)

    # -- put ------------------------------------------------------------------------

    def put(
        self,
        queue_name: str,
        message: Message,
        transaction: Optional[MQTransaction] = None,
    ) -> Message:
        """Put ``message`` on a local queue, optionally under syncpoint.

        A put to a remote queue definition routes to its remote
        destination transparently.
        """
        remote = self._remote_definitions.get(queue_name)
        if remote is not None:
            self.put_remote(remote[0], remote[1], message, transaction=transaction)
            return message
        self.queue(queue_name)  # raises QueueNotFoundError early
        if transaction is not None:
            transaction.record_put(queue_name, message)
            return message
        return self._deliver_local(queue_name, message)

    def put_many(
        self,
        queue_name: str,
        messages: Iterable[Message],
        transaction: Optional[MQTransaction] = None,
    ) -> List[Message]:
        """Put a batch of messages on one queue with one journal flush.

        The whole batch is stored with a single sorted splice
        (:meth:`MessageQueue.put_many`) and its persistent members are
        journaled as one group-committed write (:meth:`Journal.log_put_many`),
        so a fan-out of N costs one flush instead of N.  Semantics per
        message are identical to :meth:`put` (reports, traces, metrics);
        batches to a remote queue definition route message-by-message
        and — like :meth:`put` on a remote definition — return the
        caller's messages unchanged (the stored copies, stamped with
        ``put_time_ms``, live on the remote manager).  The local path
        returns the stored copies.
        """
        messages = list(messages)
        remote = self._remote_definitions.get(queue_name)
        if remote is not None:
            for message in messages:
                self.put_remote(remote[0], remote[1], message, transaction=transaction)
            return messages
        self.queue(queue_name)  # raises QueueNotFoundError early
        if transaction is not None:
            for message in messages:
                transaction.record_put(queue_name, message)
            return messages
        queue = self.queue(queue_name)
        # As in _deliver_local: listeners run inside the batch's group.
        with self.group_commit() if queue.has_put_listeners else _NO_GROUP:
            stored_batch = queue.put_many(messages, notify=False)
            if self.journal is not None:
                persistent = [
                    (queue_name, stored)
                    for stored in stored_batch
                    if stored.is_persistent()
                ]
                if persistent:
                    self.journal.log_put_many(persistent)
            # Listeners fire only after the puts are staged: a push
            # consumer may journal-visibly get the message inside the
            # listener, and a get logged before its put replays the
            # message back to life on recovery.
            for stored in stored_batch:
                queue.notify_put(stored)
            for stored in stored_batch:
                self._after_deliver(queue_name, stored)
        if self.metrics is not None:
            self.metrics.incr(f"puts.{self.name}", len(stored_batch))
        self._maybe_autocompact()
        return stored_batch

    def group_commit(self) -> "ContextManager":
        """Batch every journal record written inside the block into one flush.

        Every durable event is one group: a conditional send (data
        messages parked on transmission queues, staged compensations, the
        sender-log entry), a receiver's read (get, receiver-log entry,
        spooled ack), an arrival together with the work its put listeners
        do, and a decision.  A volatile manager returns a no-op context.
        """
        durable = self.journal or self.store
        if durable is None:
            return nullcontext(self)
        return _Group(self, durable.batch())

    def post_durable(self, callback: "Callable[[], None]") -> None:
        """Run ``callback`` once the current commit group is durable.

        Journal mode defers to :meth:`Journal.post_commit`, store mode to
        :meth:`SqlQueueStore.post_commit`; a volatile manager runs the
        callback immediately.  The network layer hangs transfer attempts
        off this hook so a transmission never races its own durability.
        """
        durable = self.journal or self.store
        if durable is not None:
            durable.post_commit(callback)
        else:
            callback()

    # -- channels ---------------------------------------------------------------

    def next_spool_seq(self, peer: str, message: Message) -> Optional[int]:
        """The seq to stamp on ``message``, about to be parked for ``peer``.

        ``None`` for a copy no restart could re-drive — a non-persistent
        one on a log store — which then travels without a seq: numbering
        it would hand out a seq the recovered counter cannot know of.  The
        counter is durable with the park: the copy's own journal record
        carries its seq, and on ``sqlstore`` the channels row joins the
        park's transaction.
        """
        if self.store is None and not message.is_persistent():
            return None
        seq = self._sent[peer] = self._sent.get(peer, 0) + 1
        if self.store is not None:
            self._note_channel(peer)
        return seq

    def put_inbound(
        self,
        queue_name: str,
        message: Message,
        channel: Optional[Tuple[str, int]] = None,
    ) -> Optional[Message]:
        """Put an arrival over a channel, at most once per seq.

        ``channel`` is ``(peer, seq)``: the manager the hop came from and
        the seq it stamped (``None``: a copy without one, put as it is).
        Returns ``None`` and stores nothing when the peer's watermark
        covers the seq already — consumed messages included.  Otherwise
        the put and the watermark's advance are one commit group: the
        journal's arrival record carries ``(peer, seq)``, and on
        ``sqlstore`` the channels row joins the put's transaction.
        """
        if channel is not None and self.has_accepted(*channel):
            return None
        return self._deliver_local(queue_name, message, channel)

    def has_accepted(self, peer: str, seq: int) -> bool:
        """True if ``peer``'s watermark covers ``seq``."""
        accepted = self._accepted.get(peer)
        return accepted is not None and accepted.covers(seq)

    def last_spool_seq(self, peer: str) -> int:
        """The last seq stamped on a copy parked for ``peer`` (0: none)."""
        return self._sent.get(peer, 0)

    def settle_inbound(self, peer: str, floor: int) -> None:
        """Accept every seq from ``peer`` below ``floor``.

        The network calls this when ``peer`` holds no parked copy for
        this manager below ``floor``: a seq down there was delivered, or
        left the spool without a transfer (expired) and never will be,
        so a hole it left in the watermark is closed instead of holding
        every later seq in the out-of-order set.  Durable with the next
        snapshot or channels row; losing it only reopens the hole.
        """
        if floor <= 1:
            return
        self._accepted.setdefault(peer, SeqWatermark()).settle(floor)
        if self.store is not None:
            self._note_channel(peer)

    def accepted_out_of_order(self) -> int:
        """Seqs accepted above their channel's cumulative watermark."""
        return sum(len(accepted.above) for accepted in self._accepted.values())

    def resolve_spooled(self, peer: str, message_id: str) -> None:
        """Drop a transferred copy from ``peer``'s transmission queue.

        It leaves the visible queue (depth, browse, lookups, counts) now.
        The durable removal joins the next commit group this manager
        writes anyway: on a log store as one ``resolve`` record per group
        (:meth:`Journal.log_resolved`), on ``sqlstore`` as a row delete in
        that group's transaction (:meth:`SqlQueueStore.deferred`).
        :meth:`checkpoint` and closing the store write what is left; a
        crash in between re-drives the copy, and the target's watermark
        drops it.
        """
        queue = self.queue(XMIT_PREFIX + peer)
        if self.store is not None:
            self.store.deferred(lambda: queue.get_by_id(message_id))
            return
        message = queue.get_by_id(message_id)
        seq = message.properties.get(PROP_ROUTE_SEQ)
        if self.journal is not None and seq is not None:
            self.journal.log_resolved(peer, seq)

    def _note_channel(self, peer: str) -> None:
        """Stage ``peer``'s channel row for the store's next commit."""
        self.store.note_channel(
            self.name,
            peer,
            self._sent.get(peer, 0),
            self._accepted.get(peer) or SeqWatermark(),
        )

    def _channel_rows(self) -> List[tuple]:
        """``(peer, sent, accepted, above)`` per peer: a snapshot's channels."""
        return [
            (
                peer,
                self._sent.get(peer, 0),
                *self._accepted.get(peer, SeqWatermark()).state(),
            )
            for peer in sorted(self._sent.keys() | self._accepted.keys())
        ]

    def _restore_channels(
        self, channels: Dict[str, Tuple[int, SeqWatermark]]
    ) -> None:
        for peer, (sent, accepted) in channels.items():
            self._sent[peer] = sent
            self._accepted[peer] = accepted

    def _deliver_local(
        self,
        queue_name: str,
        message: Message,
        channel: Optional[Tuple[str, int]] = None,
    ) -> Message:
        """Store a committed put: journal, arrival report, trace.

        Shared by the non-transactional put path, transaction commit and
        channel arrivals, so syncpoint puts get identical durability and
        COA behaviour.
        """
        queue = self.queue(queue_name)
        # A queue with put listeners opens the commit group before the
        # put: the listeners run inside it, so an arrival and the work it
        # triggers (an ack's evaluation and decision) flush together.  On
        # sqlstore an arrival over a channel opens it too, so its channels
        # row commits with the put (a journal's arrival row carries it).
        grouped = queue.has_put_listeners or (
            channel is not None and self.store is not None
        )
        with self.group_commit() if grouped else _NO_GROUP:
            stored = queue.put(message, notify=False)
            if self.journal is not None and stored.is_persistent():
                try:
                    self.journal.log_put(queue_name, stored, channel)
                except PersistenceError:
                    queue.get_by_id(stored.message_id)  # a refused put leaves nothing
                    raise
            if channel is not None:
                peer, seq = channel
                accepted = self._accepted.get(peer)
                if accepted is None:
                    accepted = self._accepted[peer] = SeqWatermark()
                accepted.accept(seq)
                if self.store is not None:
                    self._note_channel(peer)
            # Listeners fire only after the put is staged: a push consumer
            # may journal-visibly get the message inside the listener, and
            # a get logged before its put replays the message on recovery.
            queue.notify_put(stored)
            self._after_deliver(queue_name, stored)
        if self.metrics is not None:
            self.metrics.incr(f"puts.{self.name}")
        self._maybe_autocompact()
        return stored

    def _after_deliver(self, queue_name: str, stored: Message) -> None:
        """Post-storage effects of one committed put: report and trace."""
        self._maybe_report_arrival(queue_name, stored)
        # Transit parking is traced as ``xmit`` by the network layer.
        if self.tracer.enabled and not queue_name.startswith(XMIT_PREFIX):
            self.tracer.emit(
                STAGE_ARRIVAL,
                at_ms=self.clock.now_ms(),
                cmid=cmid_of(stored),
                manager=self.name,
                queue=queue_name,
                message_id=stored.message_id,
                persistent=stored.is_persistent(),
            )

    def put_remote(
        self,
        manager_name: str,
        queue_name: str,
        message: Message,
        transaction: Optional[MQTransaction] = None,
    ) -> None:
        """Send ``message`` to a queue on another manager via the network.

        Requires this manager to be attached to a
        :class:`~repro.mq.network.MessageNetwork`.  If ``manager_name`` is
        this manager, the put is local.
        """
        if manager_name == self.name:
            self.put(queue_name, message, transaction=transaction)
            return
        if transaction is not None:
            transaction.record_remote_put(manager_name, queue_name, message)
            return
        if self._remote_put_handler is None:
            raise MQError(
                f"queue manager {self.name!r} is not attached to a network;"
                f" cannot reach {manager_name!r}"
            )
        self._remote_put_handler(manager_name, queue_name, message)

    # -- get ------------------------------------------------------------------------

    def get(
        self,
        queue_name: str,
        selector: Optional[Callable[[Message], bool]] = None,
        transaction: Optional[MQTransaction] = None,
    ) -> Message:
        """Get the next message from a local queue.

        Under syncpoint the message is locked (redelivered on rollback);
        otherwise it is removed immediately and journaled.  Poisoned
        messages (backout count at threshold) are diverted to the
        dead-letter queue transparently.

        Raises :class:`EmptyQueueError` when nothing matches.
        """
        queue = self.queue(queue_name)
        while True:
            if transaction is not None:
                message = queue.get(selector=selector, lock_owner=transaction.tx_id)
            else:
                message = queue.get(selector=selector)
            if (
                self.backout_threshold is not None
                and queue_name != DEAD_LETTER_QUEUE
                and message.backout_count >= self.backout_threshold
            ):
                # Poison message: do not deliver; move to the DLQ and retry.
                if transaction is not None:
                    queue.remove_locked(transaction.tx_id, message.message_id)
                self._dead_letter(message, reason="backout-threshold")
                self._log_get(queue_name, message)
                continue
            break
        if transaction is not None:
            transaction.record_locked(queue_name)
        else:
            if self._log_get(queue_name, message):
                self._maybe_autocompact()
            self._maybe_report_delivery(queue_name, message)
        if self.metrics is not None:
            self.metrics.incr(f"gets.{self.name}")
        if self.tracer.enabled:
            self.tracer.emit(
                STAGE_GET,
                at_ms=self.clock.now_ms(),
                cmid=cmid_of(message),
                manager=self.name,
                queue=queue_name,
                message_id=message.message_id,
                transactional=transaction is not None,
            )
        return message

    def get_wait(
        self,
        queue_name: str,
        selector: Optional[Callable[[Message], bool]] = None,
        transaction: Optional[MQTransaction] = None,
    ) -> Optional[Message]:
        """Like :meth:`get` but returns ``None`` instead of raising."""
        try:
            return self.get(queue_name, selector=selector, transaction=transaction)
        except EmptyQueueError:
            return None

    def get_by_id(self, queue_name: str, message_id: str) -> Message:
        """Destructively get a specific message by id, journaling the removal.

        System components (compensation release/discard, pair
        cancellation, DLQ administration) pull specific messages out of
        queues.  The queue-level :meth:`MessageQueue.get_by_id` bypasses
        durability, so recovery would resurrect the removed message; this
        wrapper journals the removal of persistent messages like any
        destructive get.  No delivery reports fire — these removals are
        administrative, not application consumption.
        """
        message = self.queue(queue_name).get_by_id(message_id)
        if self._log_get(queue_name, message):
            self._maybe_autocompact()
        if self.metrics is not None:
            self.metrics.incr(f"gets.{self.name}")
        return message

    def browse(
        self,
        queue_name: str,
        selector: Optional[Callable[[Message], bool]] = None,
    ) -> Iterator[Message]:
        """Non-destructive scan of a local queue."""
        return self.queue(queue_name).browse(selector=selector)

    def find_correlated(self, queue_name: str, correlation_id: str) -> List[Message]:
        """Visible messages on a local queue carrying ``correlation_id``.

        A keyed lookup (hash index or SQL index seek), not a browse: the
        conditional layer finds a message's log entries and staged
        compensations this way at a cost independent of queue depth.
        """
        return self.queue(queue_name).find_correlated(correlation_id)

    def depth(self, queue_name: str) -> int:
        """Visible depth of a local queue."""
        return self.queue(queue_name).depth()

    # -- transactions ------------------------------------------------------------

    def begin(self) -> MQTransaction:
        """Start a syncpoint transaction on this manager."""
        return MQTransaction(self)

    def apply_commit(self, transaction: MQTransaction) -> None:
        """Apply a transaction's effects (called by ``MQTransaction.commit``).

        All journal records of the unit of work (gets of consumed
        messages, puts becoming visible) are group-committed as one flush.
        """
        with self.group_commit():
            self._apply_commit_effects(transaction)

    def _apply_commit_effects(self, transaction: MQTransaction) -> None:
        # 1. Destroy transactionally read messages and journal their removal.
        for queue_name in transaction.locked_queues():
            queue = self.queue(queue_name)
            for message in queue.commit_locked(transaction.tx_id):
                self._log_get(queue_name, message)
                # COD for syncpoint reads fires at commit (a rolled-back
                # read produces no report, like MQ under syncpoint).
                self._maybe_report_delivery(queue_name, message)
                if self.tracer.enabled:
                    self.tracer.emit(
                        STAGE_COMMIT,
                        at_ms=self.clock.now_ms(),
                        cmid=cmid_of(message),
                        manager=self.name,
                        queue=queue_name,
                        message_id=message.message_id,
                    )
        # 2. Publish buffered puts.  COA for syncpoint puts likewise fires
        # at commit — the arrival becomes visible only now.
        local_puts, remote_puts = transaction.drain_pending()
        for queue_name, message in local_puts:
            self._deliver_local(queue_name, message)
        for manager_name, queue_name, message in remote_puts:
            if self._remote_put_handler is None:
                raise MQError(
                    f"queue manager {self.name!r} is not attached to a network"
                )
            self._remote_put_handler(manager_name, queue_name, message)

    def apply_rollback(self, transaction: MQTransaction) -> None:
        """Undo a transaction's effects (called by ``MQTransaction.rollback``)."""
        for queue_name in transaction.locked_queues():
            rolled_back = self.queue(queue_name).rollback_locked(transaction.tx_id)
            if self.tracer.enabled:
                for message in rolled_back:
                    self.tracer.emit(
                        STAGE_ROLLBACK,
                        at_ms=self.clock.now_ms(),
                        cmid=cmid_of(message),
                        manager=self.name,
                        queue=queue_name,
                        message_id=message.message_id,
                        backout_count=message.backout_count,
                    )
        transaction.drain_pending()  # discard buffered puts

    # -- durability -----------------------------------------------------------------

    def checkpoint(self) -> None:
        """Compact the journal to a snapshot of current persistent state."""
        if self.store is not None:
            # Nothing to compact — the store has no replay log.  Commit
            # deferred resolutions and fold the WAL back into the main
            # database file instead.
            self.store.sync()
            return
        if self.journal is None:
            return
        # The dead-letter queue is included: persistent poisoned/expired
        # messages must survive a crash for the DLQ handler to inspect.
        snapshot = {
            name: queue.snapshot() for name, queue in self._queues.items()
        }
        self.journal.checkpoint(snapshot, self._channel_rows())

    @classmethod
    def recover(
        cls,
        name: str,
        clock: Clock,
        journal: "Journal | str",
        backout_threshold: Optional[int] = 5,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "QueueManager":
        """Rebuild a queue manager from its journal after a crash.

        ``journal`` may be a :class:`Journal` or a backend URL (resolved
        via :func:`~repro.mq.persistence.journal_for` — the natural
        restart shape: point the URL at the surviving store).  Only
        persistent, committed messages reappear; in-flight transactions
        are presumed aborted (their gets were never journaled, so the
        messages are still live; their puts were never journaled, so they
        never existed).

        A restart costs what its live state costs: the replay decodes only
        the messages that survive it (see :meth:`Journal.recover`), and
        the log is rewritten only when that pays or heals — when at least
        half of what was replayed is dead (``journal.size()`` is twice
        what a checkpoint would write: two markers, one ``define`` per
        queue, one ``put`` per live message, one ``channel`` per peer), or
        when the replay skipped a corrupt tail.  Resolutions the crashed
        incarnation had not written are dropped, and the channels' seqs
        come back with the queues.  Otherwise the log is left exactly as
        found, and is compacted again by the rule that applies mid-run:
        once it holds ``compaction_threshold`` records and twice what a
        checkpoint would write now.
        What the restart did is on the journal (``recover_records``,
        ``recover_live``, ``recover_compacted``) and, with a registry, on
        ``journal.recover.*``.
        """
        started = time.perf_counter()
        if isinstance(journal, str):
            journal = journal_for(journal)
        # Resolutions no group wrote died with the crashed incarnation.
        journal.discard_pending()
        if isinstance(journal, SqlQueueStore):
            # Store mode: recovery is opening the database.  No replay —
            # the rows are the state.  Presumed abort releases only THIS
            # manager's locks (other managers sharing the store keep
            # theirs) without bumping backout counts, exactly as journal
            # recovery resurfaces locked messages with pre-crash counts.
            # Unlike journal recovery, non-persistent messages survive:
            # the store outlived the manager, so nothing was lost.
            manager = cls(
                name,
                clock,
                journal=journal,
                backout_threshold=backout_threshold,
                tracer=tracer,
                metrics=metrics,
            )
            journal.release_locks(name)
            return manager
        manager = cls(
            name,
            clock,
            journal=None,
            backout_threshold=backout_threshold,
            tracer=tracer,
            metrics=metrics,
        )
        queue_names, live_messages = journal.recover()
        for queue_name in queue_names:
            if not manager.has_queue(queue_name):
                manager.define_queue(queue_name, journal_definition=False)
        for queue_name, messages in live_messages.items():
            if not manager.has_queue(queue_name):
                manager.define_queue(queue_name, journal_definition=False)
            manager.queue(queue_name).restore(messages)
        manager._restore_channels(journal.recovered_channels)
        # Re-attach the journal only after restore so recovery itself is
        # not re-journaled.
        manager.journal = journal
        if metrics is not None and journal.metrics is None:
            journal.metrics = metrics
        # Rewriting a log that is mostly live removes little and costs a
        # full re-encode; from half dead on, the rewrite at least halves
        # every later replay.  A skipped tail is rewritten away as well.
        snapshot_records = (
            2
            + len(manager._queues)
            + len(journal.recovered_channels)
            + journal.recover_live
        )
        # A log left as found is compacted again only once it doubles what
        # is live now (``Journal.needs_compaction``), as if it had just
        # been rewritten; a rewrite here sets the count itself.
        journal.snapshot_records = snapshot_records
        journal.recover_compacted = int(
            journal.skipped_trailing_records != 0
            or journal.size() >= 2 * snapshot_records
        )
        if journal.recover_compacted:
            manager.checkpoint()
        if metrics is not None:
            metrics.incr("journal.recover.records", journal.recover_records)
            metrics.incr("journal.recover.live", journal.recover_live)
            metrics.incr("journal.recover.compacted", journal.recover_compacted)
            metrics.observe(
                "journal.recover.ms", (time.perf_counter() - started) * 1e3
            )
        return manager

    # -- internals --------------------------------------------------------------------

    def _log_get(self, queue_name: str, message: Message) -> bool:
        """Journal a committed destructive get; true if a record was written."""
        if self.journal is None or not message.is_persistent():
            return False
        self.journal.log_get(queue_name, message.message_id)
        return True

    def _maybe_autocompact(self) -> None:
        """Checkpoint when the journal asks for it (``needs_compaction``).

        Called after journaled mutations; re-entrancy guarded because the
        checkpoint itself runs through journal machinery.  Compaction is
        skipped inside a group-commit batch (``needs_compaction`` is false
        while batching) so a snapshot never interleaves with a half-built
        commit group.
        """
        journal = self.journal
        if journal is None or self._compacting or not journal.needs_compaction():
            return
        self._compacting = True
        try:
            self.checkpoint()
        finally:
            self._compacting = False

    def attach_network(
        self, remote_put_handler: Callable[[str, str, Message], None]
    ) -> None:
        """Install the network layer's remote-put handler (network use only)."""
        self._remote_put_handler = remote_put_handler

    # -- report options (see repro.mq.reports) ----------------------------------

    def _maybe_report_arrival(self, queue_name: str, message: Message) -> None:
        if queue_name.startswith(XMIT_PREFIX):
            return  # arrival means the *destination* queue, not transit
        if reports_mod.wants_coa(message):
            self._send_report(reports_mod.KIND_COA, queue_name, message)

    def _maybe_report_delivery(self, queue_name: str, message: Message) -> None:
        if reports_mod.wants_cod(message):
            self._send_report(reports_mod.KIND_COD, queue_name, message)

    def _send_report(self, kind: str, queue_name: str, message: Message) -> None:
        if message.reply_to_manager is None or message.reply_to_queue is None:
            return  # nowhere to send the report
        report = reports_mod.build_report(
            kind, message, queue_name, self.name, self.clock.now_ms()
        )
        if message.reply_to_manager == self.name:
            self.ensure_queue(message.reply_to_queue)
            self.put(message.reply_to_queue, report)
        elif self._remote_put_handler is not None:
            self.put_remote(
                message.reply_to_manager, message.reply_to_queue, report
            )

    def _route_expired(self, queue_name: str, message: Message) -> None:
        # The sweep removed the message from its queue; journal that
        # removal, or recovery would resurrect the message on the source
        # queue *and* restore the dead-lettered copy.
        self._log_get(queue_name, message)
        self._dead_letter(message, reason="expired")

    def _dead_letter(self, message: Message, reason: str) -> None:
        dlq = self._queues[DEAD_LETTER_QUEUE]
        # Strip the expiry: a dead-lettered message must rest in the DLQ
        # for inspection, not expire out of it (which would also recurse
        # through the expiry handler).
        dead = message.with_properties(DLQ_REASON=reason).copy(expiry_ms=None)
        stored = dlq.put(dead)
        # Dead-lettering is a put like any other: persistent dead messages
        # are journaled so they survive crash recovery (the put bypasses
        # ``self.put`` because a DLQ arrival must not fire COA reports).
        if self.journal is not None and stored.is_persistent():
            self.journal.log_put(DEAD_LETTER_QUEUE, stored)
        if self.metrics is not None:
            self.metrics.incr(f"dead_letters.{self.name}")
        if self.tracer.enabled:
            self.tracer.emit(
                STAGE_DEAD_LETTER,
                at_ms=self.clock.now_ms(),
                cmid=cmid_of(stored),
                manager=self.name,
                queue=DEAD_LETTER_QUEUE,
                message_id=stored.message_id,
                reason=reason,
            )

    def __repr__(self) -> str:
        return f"QueueManager({self.name!r}, queues={len(self._queues)})"
