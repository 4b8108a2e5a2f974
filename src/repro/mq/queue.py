"""A single message queue: priority ordering, expiry, browse, locking.

Ordering follows JMS/MQSeries: higher priority first, FIFO within equal
priority.  Expired messages are swept to the owner's dead-letter handling
on access rather than eagerly, matching how real queue managers discover
expiry lazily.

Transactional (syncpoint) gets do not remove a message outright; they
**lock** it under the transaction id.  Commit destroys locked messages,
rollback unlocks them in place with an incremented backout count, so the
message is redelivered in its original order — the behaviour the paper's
receiver-side relies on ("the message is put back to the queue by the
messaging middleware", section 2.4).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import EmptyQueueError, MQError, QueueFullError
from repro.mq.message import Message
from repro.obs.trace import NULL_TRACER, STAGE_EXPIRED, Tracer, cmid_of
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import Clock

#: Default maximum queue depth; generous but finite, as in real queue managers.
DEFAULT_MAX_DEPTH = 100_000


@dataclass
class QueueStats:
    """Counters a queue maintains over its lifetime."""

    puts: int = 0
    gets: int = 0
    browses: int = 0
    expired: int = 0
    backouts: int = 0
    high_water_depth: int = 0


class _Entry:
    """One stored message; (negated priority, arrival seq) sorts first.

    A plain slotted class: a queue holds one per message, and the key
    indexes compare entries by identity.
    """

    __slots__ = ("sort_key", "message", "locked_by")

    def __init__(self, sort_key: tuple, message: Message) -> None:
        self.sort_key = sort_key
        self.message = message
        self.locked_by: Optional[str] = None

    def __lt__(self, other: "_Entry") -> bool:
        return self.sort_key < other.sort_key


#: A key index maps a key to the entry carrying it, or — only while two
#: or more stored entries share the key — to their list in delivery
#: order.  Most keys are unique, so most messages cost no list.
_KeyIndex = Dict[str, Union[_Entry, List[_Entry]]]


def _share_key(index: _KeyIndex, key: str, entry: _Entry) -> bool:
    """File ``entry`` under a key already held; true if the key was
    unique until now."""
    held = index[key]
    if type(held) is list:
        insort(held, entry)
        return False
    index[key] = [held, entry] if held < entry else [entry, held]
    return True


def _unshare_key(index: _KeyIndex, key: str, entry: _Entry) -> bool:
    """Unfile ``entry`` from a shared key; true if the key is unique again."""
    held = index[key]
    held.remove(entry)
    if len(held) > 1:
        return False
    index[key] = held[0]
    return True


def _index_get(index: _KeyIndex, key: Optional[str]) -> Sequence[_Entry]:
    """Entries filed under ``key``, in delivery order."""
    held = index.get(key)
    if held is None:
        return ()
    return held if type(held) is list else (held,)


class MessageQueue:
    """A named queue owned by a queue manager.

    The queue keeps a single list in delivery order; an ordered get
    scans from the front for the first visible (unlocked, unexpired,
    selector-matching) entry.  Callers that know *which* message they
    want do not scan: two hash indexes, ``message_id -> entry`` and
    ``correlation_id -> entries``, are maintained through every mutation
    and answer :meth:`get_by_id`, :meth:`find_by_id`, :meth:`contains_id`,
    :meth:`find_correlated` and :meth:`find_collisions` at a cost that
    does not depend on depth (Gray, *Queues Are Databases*: a queue read
    by key as well as in order is a table with secondary indexes).  Each
    lock owner's entries are tracked where the lock is taken, so commit
    and rollback touch only those.
    """

    def __init__(
        self,
        name: str,
        clock: Clock,
        max_depth: int = DEFAULT_MAX_DEPTH,
        on_expired: Optional[Callable[[Message], None]] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        owner: str = "",
    ) -> None:
        if not name:
            raise MQError("queue name must be non-empty")
        if max_depth <= 0:
            raise MQError("max_depth must be positive")
        self.name = name
        self._clock = clock
        self._max_depth = max_depth
        self._entries: List[_Entry] = []
        #: message_id -> stored entry (locked ones included)
        self._by_id: _KeyIndex = {}
        #: correlation_id -> stored entries (``None`` is not indexed)
        self._by_corr: _KeyIndex = {}
        #: Correlation ids currently shared by two or more stored entries:
        #: zero means no original/compensation pair can be co-resident.
        self._shared_corr = 0
        #: lock owner -> the entries it holds, in the order it took them
        self._locked: Dict[str, List[_Entry]] = {}
        self._seq = itertools.count(1)
        #: Count of visible (unlocked) entries, maintained on every
        #: put/get/lock/unlock so :meth:`depth` never scans the list.
        self._visible = 0
        #: A lower bound on the earliest expiry among **unlocked** stored
        #: messages, or ``None`` when nothing visible can expire.  The
        #: per-access expiry sweep skips scanning until the clock passes
        #: this watermark (the common case on hot paths).  Puts pull it
        #: down; a get or a lock leaves it where it is — recomputing the
        #: minimum there would cost a pass over the queue per get — so it
        #: can be stale-low, which costs one sweep that removes nothing
        #: when the clock passes it, and that sweep makes it exact again.
        #: Locked entries never feed it — the sweep cannot remove them, so
        #: a locked-but-expired message in the watermark would force a
        #: full no-op scan on every access for as long as the lock is held.
        self._next_expiry_ms: Optional[int] = None
        self._on_expired = on_expired
        self._put_listeners: List[Callable[[Message], None]] = []
        self.stats = QueueStats()
        self.tracer = tracer
        self.metrics = metrics
        #: owning manager name, qualifying this queue's metric names
        self.owner = owner
        self._depth_gauge = f"depth.{owner}.{name}" if owner else f"depth.{name}"

    def subscribe(self, listener: Callable[[Message], None]) -> None:
        """Register a callback fired after every successful put.

        Listeners power push-style consumers (the conditional messaging
        evaluation manager subscribes to the acknowledgment queue).  They
        run synchronously at put time and must not raise.
        """
        self._put_listeners.append(listener)

    @property
    def has_put_listeners(self) -> bool:
        """True once anything has subscribed to this queue's puts."""
        return bool(self._put_listeners)

    # -- depth and inspection ------------------------------------------------

    def depth(self) -> int:
        """Visible depth: messages neither locked nor expired.

        Like get/browse, taking the depth sweeps expired messages to the
        dead-letter handler (lazy expiry on any queue access).  The count
        itself is maintained incrementally, so depth checks on hot paths
        cost one watermark comparison, not a scan.
        """
        self._sweep_expired()
        return self._visible

    def total_depth(self) -> int:
        """All stored messages, including ones locked under transactions."""
        return len(self._entries)

    @property
    def max_depth(self) -> int:
        """Configured depth limit of this queue."""
        return self._max_depth

    def capacity_remaining(self) -> int:
        """Messages that can still be stored before ``max_depth``.

        Counts locked entries (they occupy slots) after sweeping expired
        ones.  The broker pre-checks fan-out batches against this so a
        multi-queue publish is all-or-nothing on capacity.
        """
        self._sweep_expired()
        return self._max_depth - len(self._entries)

    def is_empty(self) -> bool:
        """True if no visible message is available."""
        return self.depth() == 0

    # -- put -------------------------------------------------------------------

    def put(self, message: Message, notify: bool = True) -> Message:
        """Append ``message`` in priority order; returns the stored message.

        The stored message is stamped with ``put_time_ms``.  Raises
        :class:`QueueFullError` when the queue is at ``max_depth``.

        ``notify=False`` skips the put listeners; the caller must fire
        :meth:`notify_put` itself.  The queue manager does this to
        notify only *after* journaling the put: a push consumer may
        destructively (and journal-visibly) get the message inside the
        listener, and a journal holding that get before the put would
        replay the message back to life after a crash.
        """
        self._sweep_expired()
        if len(self._entries) >= self._max_depth:
            raise QueueFullError(self.name, self._max_depth)
        stored = message.copy(put_time_ms=self._clock.now_ms())
        entry = _Entry((-stored.priority, next(self._seq)), stored)
        # Entries arrive mostly in order (same priority): append, and
        # bisect only for a message that outranks the tail.
        entries = self._entries
        if entries and entries[-1].sort_key > entry.sort_key:
            insort(entries, entry)
        else:
            entries.append(entry)
        self._index(entry)
        self._visible += 1
        self._expiry_added(stored)
        self.stats.puts += 1
        self.stats.high_water_depth = max(
            self.stats.high_water_depth, len(self._entries)
        )
        self._note_depth()
        if notify:
            self.notify_put(stored)
        return stored

    def notify_put(self, stored: Message) -> None:
        """Fire the put listeners for an already-stored message."""
        for listener in self._put_listeners:
            listener(stored)

    def put_many(
        self, messages: List[Message], notify: bool = True
    ) -> List[Message]:
        """Append a batch of messages with one sorted splice.

        All-or-nothing against ``max_depth``: either the whole batch fits
        or :class:`QueueFullError` is raised and nothing is stored.  The
        expiry sweep, ordering maintenance, and depth-gauge update run
        once for the batch instead of once per message; put listeners
        still fire per stored message, after the whole batch is in place
        (unless ``notify=False`` — see :meth:`put`).
        """
        self._sweep_expired()
        messages = list(messages)
        if len(self._entries) + len(messages) > self._max_depth:
            raise QueueFullError(self.name, self._max_depth)
        if not messages:
            return []
        now = self._clock.now_ms()
        new_entries = [
            _Entry((-m.priority, next(self._seq)), m.copy(put_time_ms=now))
            for m in messages
        ]
        # Returned, indexed and announced in call order, as successive
        # puts would; only the stored order follows priority.
        stored_batch = [entry.message for entry in new_entries]
        for entry in new_entries:
            self._index(entry)
            self._expiry_added(entry.message)
        new_entries.sort()
        if not self._entries or self._entries[-1].sort_key <= new_entries[0].sort_key:
            self._entries.extend(new_entries)
        else:
            # Two sorted runs; timsort merges them in linear time.
            self._entries.extend(new_entries)
            self._entries.sort()
        self._visible += len(new_entries)
        self.stats.puts += len(new_entries)
        self.stats.high_water_depth = max(
            self.stats.high_water_depth, len(self._entries)
        )
        self._note_depth()
        if notify:
            for stored in stored_batch:
                self.notify_put(stored)
        return stored_batch

    # -- get -------------------------------------------------------------------

    def get(
        self,
        selector: Optional[Callable[[Message], bool]] = None,
        lock_owner: Optional[str] = None,
    ) -> Message:
        """Remove (or lock) and return the first matching visible message.

        Args:
            selector: Optional predicate over messages (compiled selector
                or any callable).
            lock_owner: If given, the message is locked under this
                transaction id instead of removed; see
                :meth:`commit_locked` / :meth:`rollback_locked`.

        Raises:
            EmptyQueueError: No visible matching message.
        """
        self._sweep_expired()
        for i, entry in enumerate(self._entries):
            if entry.locked_by is not None:
                continue
            if selector is not None and not selector(entry.message):
                continue
            self._take(entry, lock_owner, i)
            return entry.message
        raise EmptyQueueError(self.name)

    def _take(
        self, entry: _Entry, lock_owner: Optional[str], index: Optional[int] = None
    ) -> None:
        """Remove a visible entry, or lock it under ``lock_owner``.

        ``index`` is the entry's position when the caller already knows it.
        """
        self.stats.gets += 1
        if lock_owner is None:
            if index is None:
                index = self._position(entry)
            del self._entries[index]
            self._unindex(entry)
            self._note_depth()
        else:
            entry.locked_by = lock_owner
            self._locked.setdefault(lock_owner, []).append(entry)
        self._visible -= 1

    def _position(self, entry: _Entry) -> int:
        """Index of a stored entry in ``_entries``.

        Keyed removals mostly take the oldest message (a resolved spool
        copy, the staged compensations of the message just decided), so
        the front is checked before bisecting on the sort key.
        """
        entries = self._entries
        if entries[0] is entry:
            return 0
        return bisect_left(entries, entry)

    def get_by_id(self, message_id: str, lock_owner: Optional[str] = None) -> Message:
        """Destructively get a specific message by id (expired or not).

        Used by the receiver-side compensation logic, which must be able to
        pull a specific original message out of the queue to cancel it
        against its compensation message.  Answered from the id index.
        """
        for entry in _index_get(self._by_id, message_id):
            if entry.locked_by is None:
                self._take(entry, lock_owner)
                return entry.message
        raise EmptyQueueError(self.name)

    def find_by_id(self, message_id: str) -> Optional[Message]:
        """Return the visible (unlocked, unexpired) message with
        ``message_id`` without removing it, or ``None``.

        The non-destructive sibling of :meth:`get_by_id`; the network
        layer uses it to locate a parked transmission.
        """
        self._sweep_expired()
        now = self._clock.now_ms()
        for entry in _index_get(self._by_id, message_id):
            if entry.locked_by is None and not entry.message.is_expired(now):
                return entry.message
        return None

    def contains_id(self, message_id: str) -> bool:
        """True if any stored message — locked and expired-but-unswept
        ones included, as in :meth:`snapshot` — has ``message_id``."""
        return message_id in self._by_id

    def find_correlated(self, correlation_id: str) -> List[Message]:
        """Visible messages carrying ``correlation_id``, in delivery order.

        A keyed lookup, not a browse: it costs the handful of entries
        filed under the key whatever the depth, and ``stats.browses``
        does not move.
        """
        self._sweep_expired()
        now = self._clock.now_ms()
        return [
            entry.message
            for entry in _index_get(self._by_corr, correlation_id)
            if entry.locked_by is None and not entry.message.is_expired(now)
        ]

    def find_collisions(self) -> List[Message]:
        """Visible messages whose correlation id another stored message
        shares, in delivery order.

        Empty — at the cost of one counter check — on a queue where every
        correlation id is unique, which is how the receiver's pair
        cancellation skips an inbox that cannot hold a pair.
        """
        self._sweep_expired()
        if not self._shared_corr:
            return []
        now = self._clock.now_ms()
        shared = [
            entry
            for held in self._by_corr.values()
            if type(held) is list
            for entry in held
            if entry.locked_by is None and not entry.message.is_expired(now)
        ]
        shared.sort()
        return [entry.message for entry in shared]

    # -- browse ------------------------------------------------------------------

    def browse(
        self, selector: Optional[Callable[[Message], bool]] = None
    ) -> Iterator[Message]:
        """Yield visible messages in delivery order without removing them."""
        self._sweep_expired()
        self.stats.browses += 1
        now = self._clock.now_ms()
        for entry in list(self._entries):
            if entry.locked_by is not None or entry.message.is_expired(now):
                continue
            if selector is None or selector(entry.message):
                yield entry.message

    def peek(self) -> Optional[Message]:
        """Return (without removing) the next visible message, or ``None``.

        Counts as a browse but stops at the first visible entry instead
        of copying the list.
        """
        self._sweep_expired()
        self.stats.browses += 1
        now = self._clock.now_ms()
        for entry in self._entries:
            if entry.locked_by is None and not entry.message.is_expired(now):
                return entry.message
        return None

    # -- transactional locking -----------------------------------------------

    def locked_messages(self, lock_owner: str) -> List[Message]:
        """Messages currently locked under ``lock_owner``, in queue order."""
        return [e.message for e in sorted(self._locked.get(lock_owner, ()))]

    def commit_locked(self, lock_owner: str) -> List[Message]:
        """Destroy all messages locked by ``lock_owner``; returns them.

        Locked entries were already dropped from the visible count when
        they were locked, so destroying them needs no further
        bookkeeping.  Each is found by bisection and contiguous runs leave
        in one slice, so the cost follows the transaction's size, not the
        queue's depth.
        """
        doomed = sorted(self._locked.pop(lock_owner, ()))
        entries = self._entries
        stop = len(entries)
        run_start = run_stop = None
        for entry in reversed(doomed):
            index = bisect_left(entries, entry, 0, stop)
            if index + 1 == run_start:
                run_start = index
            else:
                if run_start is not None:
                    del entries[run_start:run_stop]
                run_start, run_stop = index, index + 1
            stop = index
            self._unindex(entry)
        if run_start is not None:
            del entries[run_start:run_stop]
        self._note_depth()
        return [entry.message for entry in doomed]

    def remove_locked(self, lock_owner: str, message_id: str) -> Message:
        """Destroy one specific message locked by ``lock_owner``.

        Used for poison-message diversion: the dead-lettered message must
        leave the queue without committing the rest of the transaction's
        locked set.
        """
        for entry in _index_get(self._by_id, message_id):
            if entry.locked_by == lock_owner:
                owned = self._locked[lock_owner]
                owned.remove(entry)
                if not owned:
                    del self._locked[lock_owner]
                del self._entries[self._position(entry)]
                self._unindex(entry)
                self._note_depth()
                return entry.message
        raise EmptyQueueError(self.name)

    def rollback_locked(self, lock_owner: str) -> List[Message]:
        """Unlock ``lock_owner``'s messages in place, bumping backout counts."""
        rolled_back: List[Message] = []
        for entry in sorted(self._locked.pop(lock_owner, ())):
            entry.locked_by = None
            # Same ids on the backout copy: the key indexes hold the
            # entry, not the message, and stay as they are.
            entry.message = entry.message.copy(
                backout_count=entry.message.backout_count + 1
            )
            self.stats.backouts += 1
            self._visible += 1
            self._expiry_added(entry.message)
            rolled_back.append(entry.message)
        return rolled_back

    # -- maintenance ---------------------------------------------------------------

    def purge(self) -> int:
        """Discard every unlocked message; returns how many were removed."""
        before = len(self._entries)
        self._entries = sorted(
            entry for owned in self._locked.values() for entry in owned
        )
        self._reindex()
        # Everything visible is gone; only locked entries remain, and
        # those never participate in the expiry watermark.
        self._visible = 0
        self._next_expiry_ms = None
        self._note_depth()
        return before - len(self._entries)

    def snapshot(self) -> List[Message]:
        """All stored messages (for journaling/recovery), locked included."""
        return [e.message for e in self._entries]

    def restore(self, messages: List[Message]) -> None:
        """Reload queue content from a recovery snapshot (replaces content)."""
        self._seq = itertools.count(1)
        self._entries = [
            _Entry((-message.priority, next(self._seq)), message)
            for message in messages
        ]
        self._entries.sort()
        self._locked = {}
        self._reindex()
        expiries = [
            e.message.expiry_ms
            for e in self._entries
            if e.message.expiry_ms is not None
        ]
        self._next_expiry_ms = min(expiries) if expiries else None
        self._visible = len(self._entries)  # restored entries are unlocked
        self._note_depth()

    def _note_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(self._depth_gauge, len(self._entries))

    # -- key-index bookkeeping ----------------------------------------------------

    # Every put and get passes through these two: the unique-key case is
    # inline, and only a shared key pays a helper call.

    def _index(self, entry: _Entry) -> None:
        """A new entry joined the stored set."""
        message = entry.message
        message_id = message.message_id
        if message_id in self._by_id:
            _share_key(self._by_id, message_id, entry)
        else:
            self._by_id[message_id] = entry
        correlation_id = message.correlation_id
        if correlation_id is None:
            return
        if correlation_id not in self._by_corr:
            self._by_corr[correlation_id] = entry
        elif _share_key(self._by_corr, correlation_id, entry):
            self._shared_corr += 1

    def _unindex(self, entry: _Entry) -> None:
        """An entry left the stored set (removed, committed or swept)."""
        message = entry.message
        message_id = message.message_id
        if self._by_id[message_id] is entry:
            del self._by_id[message_id]
        else:
            _unshare_key(self._by_id, message_id, entry)
        correlation_id = message.correlation_id
        if correlation_id is None:
            return
        if self._by_corr[correlation_id] is entry:
            del self._by_corr[correlation_id]
        elif _unshare_key(self._by_corr, correlation_id, entry):
            self._shared_corr -= 1

    def _reindex(self) -> None:
        """Rebuild both key indexes from ``_entries`` (purge, restore)."""
        self._by_id = {}
        self._by_corr = {}
        self._shared_corr = 0
        for entry in self._entries:
            self._index(entry)

    # -- expiry-watermark bookkeeping ------------------------------------------

    def _expiry_added(self, message: Message) -> None:
        """A message joined the visible set; pull the watermark down."""
        expiry = message.expiry_ms
        if expiry is not None and (
            self._next_expiry_ms is None or expiry < self._next_expiry_ms
        ):
            self._next_expiry_ms = expiry

    def _sweep_expired(self) -> None:
        if self._next_expiry_ms is None:
            return  # nothing stored can expire; skip the scan
        now = self._clock.now_ms()
        if now <= self._next_expiry_ms:
            return  # earliest deadline not crossed yet; skip the scan
        survivors: List[_Entry] = []
        swept: List[Message] = []
        next_expiry: Optional[int] = None
        for entry in self._entries:
            if entry.locked_by is None and entry.message.is_expired(now):
                self.stats.expired += 1
                swept.append(entry.message)
                self._unindex(entry)
            else:
                survivors.append(entry)
                # Only unlocked survivors feed the watermark: the sweep
                # can never remove a locked entry, so including one that
                # is already past its deadline would drag the watermark
                # permanently into the past and force a full scan on
                # every access while the lock is held.
                if entry.locked_by is None:
                    expiry = entry.message.expiry_ms
                    if expiry is not None and (
                        next_expiry is None or expiry < next_expiry
                    ):
                        next_expiry = expiry
        self._next_expiry_ms = next_expiry
        if not swept:
            return
        self._entries = survivors
        self._visible -= len(swept)
        self._note_depth()
        for message in swept:
            if self.tracer.enabled:
                self.tracer.emit(
                    STAGE_EXPIRED,
                    at_ms=now,
                    cmid=cmid_of(message),
                    manager=self.owner or None,
                    queue=self.name,
                    message_id=message.message_id,
                )
            if self._on_expired is not None:
                self._on_expired(message)

    def __repr__(self) -> str:
        return f"MessageQueue({self.name!r}, depth={self.depth()})"
