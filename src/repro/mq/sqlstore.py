"""SQL-backed live queue store: the database *is* the queue manager state.

Gray's "Queues Are Databases" argument, applied to this repo: instead of
keeping queues as Python lists over a recovery log
(:class:`~repro.mq.persistence.FileJournal`), a :class:`SqlQueueStore`
keeps every stored message as a row in one WAL-mode SQLite database.  The
queue manager's live representation and its durable representation are
the same thing, which buys three properties at once:

* **Indexed gets.** ``get(selector=...)`` becomes an index scan over
  ``(queue, priority DESC, seq)`` with the selector lowered to a SQL
  ``WHERE`` clause by :meth:`repro.mq.selectors.Selector.to_sql` — no
  O(depth) Python scan.  Selectors (or selector residues) that cannot be
  pushed down fall back to decoding rows in delivery order and applying
  the Python predicate, preserving exact three-valued-logic semantics.
* **Recovery = open.** :meth:`QueueManager.recover` on a store does no
  replay: it opens the database, clears the crashed manager's locks
  (presumed abort — backout counts are *not* bumped, matching journal
  recovery), and is done.  Restart cost is one indexed ``COUNT`` per
  queue, not O(journal).
* **Shared stores.** One :class:`SqlQueueStore` instance owns its file
  (``PRAGMA locking_mode=EXCLUSIVE``: a second open is a
  :class:`PersistenceError` at once).  Managers attached to it (the MSMQ
  multi-branch-synchronization scenario) share its per-queue depth,
  locked count and expiry watermark, counted from the rows at attach and
  kept in memory, so a commit group writes only the messages it stores or
  removes.  Locks are qualified by the owning manager's name so one
  manager's crash recovery releases only its own in-flight transactions.

The scheme table in :mod:`repro.mq.persistence` lists the store under
``sqlstore:``, so ``QueueManager(..., journal="sqlstore:/path.db")`` just
works; the manager detects the store and routes queue operations through
:class:`SqlMessageQueue` wrappers instead of journaling.

Durability model vs. journals: messages live in the database the moment
the enclosing transaction commits, so in store mode even *non-persistent*
messages survive a manager restart — the store outlives the manager, like
a database server outlives its clients.  Delivery mode still matters for
the read-only :meth:`SqlQueueStore.recover` fold used by the chaos
invariant checker, which (like journal replay) only reports persistent
messages.
"""

from __future__ import annotations

import json
import os
import sqlite3
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import EmptyQueueError, MQError, PersistenceError, QueueFullError
from repro.mq.message import Message
from repro.mq.persistence import (
    _check_sync_policy,
    decode_message,
    dump_data,
    expand_row,
    load_data,
    put_row,
)
from repro.mq.queue import DEFAULT_MAX_DEPTH, QueueStats
from repro.mq.selectors import Selector
from repro.mq.sequence import PROP_ROUTE_SEQ, SeqWatermark
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, STAGE_EXPIRED, Tracer, cmid_of
from repro.sim.clock import Clock

#: SQLite signed-integer range; larger Python ints cannot round-trip.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS queues (
        name      TEXT PRIMARY KEY,
        max_depth INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS messages (
        seq            INTEGER PRIMARY KEY,
        queue          TEXT NOT NULL,
        message_id     TEXT NOT NULL,
        correlation_id TEXT,
        priority       INTEGER NOT NULL,
        put_time_ms    INTEGER,
        expiry_ms      INTEGER,
        delivery_mode  TEXT NOT NULL,
        persistent     INTEGER NOT NULL,
        lock_owner     TEXT,
        lock_manager   TEXT,
        backout_count  INTEGER NOT NULL DEFAULT 0,
        properties     TEXT,
        encoded        BLOB NOT NULL
    )
    """,
    # Delivery order: one scan per get/browse, priority first, FIFO within.
    """
    CREATE INDEX IF NOT EXISTS ix_messages_order
        ON messages (queue, priority DESC, seq)
    """,
    "CREATE INDEX IF NOT EXISTS ix_messages_id ON messages (queue, message_id)",
    """
    CREATE INDEX IF NOT EXISTS ix_messages_corr
        ON messages (queue, correlation_id)
    """,
    # Partial indexes behind the counts taken at attach: the MIN(expiry)
    # watermark, over unlocked rows only because the sweep cannot remove
    # locked ones (mirrors the linear queue), and the locked count.
    """
    CREATE INDEX IF NOT EXISTS ix_messages_expiry
        ON messages (queue, expiry_ms)
        WHERE expiry_ms IS NOT NULL AND lock_owner IS NULL
    """,
    """
    CREATE INDEX IF NOT EXISTS ix_messages_locked
        ON messages (queue, lock_manager, lock_owner)
        WHERE lock_owner IS NOT NULL
    """,
    # Typed side index of property values: one entry per (message, key)
    # for every value the selector type rules can match (strings, bools,
    # int64-range ints, finite floats).  Selector index hints seek here
    # (``seq IN (SELECT ...)``) so an equality/range/IN conjunct drives
    # the scan from a B-tree instead of parsing the JSON document per
    # row.  Entries are written even when the message's ``properties``
    # column is opaque — each *individual* clean value is still
    # indexable, and a hint must see it to stay a necessary condition.
    # The table is its own covering index (the hint subqueries read
    # nothing but seq); the seq index serves the delete trigger.
    """
    CREATE TABLE IF NOT EXISTS message_props (
        queue TEXT NOT NULL,
        key   TEXT NOT NULL,
        kind  TEXT NOT NULL,
        val   NOT NULL,
        seq   INTEGER NOT NULL,
        PRIMARY KEY (queue, key, kind, val, seq)
    ) WITHOUT ROWID
    """,
    "CREATE INDEX IF NOT EXISTS ix_props_seq ON message_props (seq)",
    # Every removal path is a plain DELETE on messages (get, sweep,
    # purge, restore, delete_queue); the trigger keeps the side index
    # in lock-step without each call site knowing it exists.
    """
    CREATE TRIGGER IF NOT EXISTS tg_message_props_gc
        AFTER DELETE ON messages
        BEGIN
            DELETE FROM message_props WHERE seq = OLD.seq;
        END
    """,
    # Per (manager, peer): the last seq stamped on a copy parked for the
    # peer, and the watermark of seqs accepted from it — its cumulative
    # seq and, as a JSON list, the ones above (repro.mq.sequence).
    """
    CREATE TABLE IF NOT EXISTS channels (
        owner    TEXT NOT NULL,
        peer     TEXT NOT NULL,
        sent     INTEGER NOT NULL,
        accepted INTEGER NOT NULL,
        above    TEXT,
        PRIMARY KEY (owner, peer)
    ) WITHOUT ROWID
    """,
)


def _queryable_properties(properties: Dict[str, Any]) -> Optional[str]:
    """JSON for the ``properties`` column, or ``None`` for opaque rows.

    A row's properties are stored queryably only when *every* top-level
    value round-trips through JSON1 with the exact semantics the Python
    evaluators implement: strings, bools, in-range ints, finite floats.
    Anything else — ``None`` values, containers, nan/inf, ints beyond
    int64, non-string keys — makes the whole row opaque (column NULL):
    pushed-down clauses skip it and the caller rechecks it in Python, so
    the SQL path can never disagree with ``Selector.matches``.
    """
    if not properties:
        return "{}"
    for key, value in properties.items():
        if not isinstance(key, str):
            return None
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            if not _INT64_MIN <= value <= _INT64_MAX:
                return None
        elif isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                return None
        elif not isinstance(value, str):
            return None
    try:
        return json.dumps(properties)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return None


def _index_rows(
    queue: str, seq: int, properties: Dict[str, Any]
) -> List[Tuple[str, str, str, Any, int]]:
    """(queue, key, kind, val, seq) entries for the typed property index.

    Kinds mirror the selector comparison rules — ``'n'`` numbers,
    ``'s'`` strings, ``'b'`` booleans (stored as 1/0) — so an index seek
    on (key, kind, value) matches exactly the rows where the
    corresponding selector conjunct can be TRUE.  Values the SQL type
    system cannot represent faithfully (out-of-int64 ints, nan/inf) are
    skipped: selector literals with those values never lower, so no hint
    can ask for them.
    """
    rows: List[Tuple[str, str, str, Any, int]] = []
    for key, value in properties.items():
        if not isinstance(key, str) or key == PROP_ROUTE_SEQ:
            continue  # the channel seq is not a selector property
        if isinstance(value, bool):
            rows.append((queue, key, "b", 1 if value else 0, seq))
        elif isinstance(value, int):
            if _INT64_MIN <= value <= _INT64_MAX:
                rows.append((queue, key, "n", value, seq))
        elif isinstance(value, float):
            if value == value and value not in (float("inf"), float("-inf")):
                rows.append((queue, key, "n", value, seq))
        elif isinstance(value, str):
            rows.append((queue, key, "s", value, seq))
    return rows


def _encode(message: Message) -> bytes:
    """The ``encoded`` column: the journal's data-only put row."""
    try:
        return dump_data(put_row("", message))
    except Exception as exc:  # noqa: BLE001 - report what message failed
        raise PersistenceError(
            f"message {message.message_id} is not journalable: {exc}"
        ) from exc


def _decode(encoded: bytes) -> Message:
    """Inverse of :func:`_encode`: whatever the column holds, nothing runs,
    and anything but a put row is a :class:`PersistenceError`."""
    row = load_data(encoded)
    if type(row) is not tuple or row[:1] != ("put",):
        raise PersistenceError("queue store row holds no message")
    return decode_message(expand_row(row)["message"])


#: Exact minimum expiry over a queue's unlocked rows (``None``: none expires).
_WATERMARK = (
    "SELECT MIN(expiry_ms) FROM messages WHERE queue = ?1"
    " AND expiry_ms IS NOT NULL AND lock_owner IS NULL"
)
#: A queue's live counts, each answered from an index.
_COUNTS = (
    "SELECT (SELECT COUNT(*) FROM messages WHERE queue = ?1),"
    " (SELECT COUNT(*) FROM messages WHERE queue = ?1"
    f" AND lock_owner IS NOT NULL), ({_WATERMARK})"
)


def _earlier(watermark: Optional[int], expiry_ms: Optional[int]) -> Optional[int]:
    """The watermark once a row expiring at ``expiry_ms`` becomes visible."""
    if expiry_ms is None:
        return watermark
    return expiry_ms if watermark is None else min(watermark, expiry_ms)


class _Transaction:
    """:meth:`SqlQueueStore.transaction`'s context: a depth counter."""

    __slots__ = ("store",)

    def __init__(self, store: "SqlQueueStore") -> None:
        self.store = store

    def __enter__(self) -> "SqlQueueStore":
        self.store._tx_depth += 1
        return self.store

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        store = self.store
        store._tx_depth -= 1
        if store._tx_depth == 0:
            store._finish_transaction()


class SqlQueueStore:
    """One WAL-mode SQLite database holding queues as tables.

    The store plays the journal's role in the manager constructor
    (``QueueManager(..., journal=store)`` or ``journal="sqlstore:path"``)
    but is not a journal: there is no replay log, the rows *are* the
    state.  It exposes the journal-shaped surface the harnesses rely on —
    ``recover()`` (read-only fold for the chaos invariant checker),
    ``close()``, ``post_commit()``, ``on_pre_flush``/``on_post_flush``
    fault-injection hooks (a group boundary is a real SQL transaction
    here) — so chaos episodes and the workload testbed can swap it in
    for a journal unchanged.

    The only instance open on its file; several managers may attach to
    it, single-threaded (simulated-time) use assumed.  :attr:`counts`
    holds each attached queue's ``total``, ``locked`` and ``watermark``
    (exact minimum expiry of its unlocked rows), shared by its wrappers.
    """

    def __init__(
        self,
        path: str,
        sync: str = "always",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = path
        self.sync_policy = _check_sync_policy(sync)
        self.metrics = metrics
        self.flush_count = 0
        self.records_written = 0
        self.bytes_written = 0
        self.skipped_trailing_records = 0
        self.compaction_threshold: Optional[int] = None
        #: Fault-injection hooks (see ``FaultInjector.attach_journal``):
        #: ``on_pre_flush`` fires before COMMIT — if it raises, the whole
        #: transaction rolls back (the group is lost, like a crash before
        #: the journal write).  ``on_post_flush`` fires after COMMIT.
        self.on_pre_flush: Optional[Callable[[int], None]] = None
        self.on_post_flush: Optional[Callable[[int], None]] = None
        #: queue name -> live counts (``total``, ``locked``, ``watermark``)
        self.counts: Dict[str, SimpleNamespace] = {}
        self._tx_depth = 0
        self._tx_ops = 0
        #: writes made under :meth:`deferred`: they commit with the next
        #: transaction that writes anything else (or :meth:`sync` / close)
        self._deferred_ops = 0
        self._deferring = 0
        #: (owner, peer) -> channels row, written by the next commit
        self._channel_rows: Dict[Tuple[str, str], tuple] = {}
        self._transaction = _Transaction(self)
        self._post_commit_hooks: List[Callable[[], None]] = []
        #: records_written high-water at the last ANALYZE (see
        #: :meth:`_maybe_analyze`).
        self._analyzed_at = 0
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            # No busy wait: the file has one live instance, and a second
            # open is refused at once instead of diverging from the first.
            self._con = sqlite3.connect(path, timeout=0)
            self._con.isolation_level = None  # explicit BEGIN/COMMIT
            self._con.execute("PRAGMA locking_mode=EXCLUSIVE")
            self._con.execute("PRAGMA journal_mode=WAL")
            synchronous = {"always": "FULL", "batch": "NORMAL", "none": "OFF"}
            self._con.execute(
                f"PRAGMA synchronous={synchronous[self.sync_policy]}"
            )
            # The selector grammar's LIKE is case-sensitive (JMS/SQL-92);
            # SQLite's default LIKE is not.  Required for pushdown parity.
            self._con.execute("PRAGMA case_sensitive_like=ON")
            for statement in _SCHEMA:
                self._con.execute(statement)
        except (sqlite3.Error, OSError) as exc:
            self.close()
            raise PersistenceError(f"cannot open queue store {path}: {exc}")

    # -- transactions ---------------------------------------------------------

    def transaction(self) -> _Transaction:
        """Group mutations into one SQL transaction (re-entrant).

        The SQL transaction begins at the group's first mutation, so a
        group that only reads costs no ``BEGIN``/``COMMIT``.  Matches
        :meth:`Journal.batch` semantics: the outermost exit commits even
        when the body raised (partially-applied state is the body's
        business; durability of what *was* applied is ours), but a
        raising ``on_pre_flush`` hook rolls the whole group back — that is
        the chaos injector's "crash before the group hit disk" model.
        The context is one object per store and a depth counter.
        """
        return self._transaction

    def batch(self) -> _Transaction:
        """:meth:`transaction` under :meth:`Journal.batch`'s name (resolved per
        call, so a tracer wrapping :meth:`transaction` sees these groups too)."""
        return self.transaction()

    def deferred(self, write: Callable[[], Any]) -> Any:
        """Run ``write``; what it writes stays uncommitted — yet visible to
        every query — until the next transaction that writes anything else
        commits it, so it costs no transaction of its own."""
        self._deferring += 1
        try:
            return write()
        finally:
            self._deferring -= 1

    def _finish_transaction(self) -> None:
        ops, self._tx_ops = self._tx_ops, 0
        # A group that wrote nothing of its own leaves deferred writes be.
        if self._con.in_transaction and (ops or not self._deferred_ops):
            ops, self._deferred_ops = ops + self._deferred_ops, 0
            if self._channel_rows:
                self._execute(
                    "INSERT OR REPLACE INTO channels"
                    " (owner, peer, sent, accepted, above) VALUES (?, ?, ?, ?, ?)",
                    list(self._channel_rows.values()),
                    many=True,
                )
                self._channel_rows.clear()
            if ops and self.on_pre_flush is not None:
                try:
                    self.on_pre_flush(ops)
                except BaseException:
                    self._rollback()
                    self._post_commit_hooks.clear()
                    raise
            self._execute("COMMIT")
        if ops:
            try:
                if self.on_post_flush is not None:
                    self.on_post_flush(ops)
            except BaseException:
                self._post_commit_hooks.clear()
                raise
            finally:
                self.flush_count += 1
                self.records_written += ops
                if self.metrics is not None:
                    self.metrics.incr("journal.flushes")
                    self.metrics.incr("journal.records", ops)
            self._maybe_analyze()
        # Run (and clear) post-commit hooks; a hook may enqueue more.
        while self._post_commit_hooks:
            hooks, self._post_commit_hooks = self._post_commit_hooks, []
            for hook in hooks:
                hook()

    def _rollback(self) -> None:
        """Undo the open transaction and recount what it had changed."""
        self._execute("ROLLBACK")
        self._deferred_ops = 0
        self._channel_rows.clear()
        for name in self.counts:
            self._recount(name)

    def flush_pending(self) -> None:
        """Commit deferred writes now (outside any transaction)."""
        if self._deferred_ops and not self._tx_depth:
            self._tx_ops, self._deferred_ops = self._deferred_ops, 0
            self._finish_transaction()

    def discard_pending(self) -> None:
        """Roll deferred writes back: what a crash of the process loses."""
        if self._deferred_ops and not self._tx_depth:
            self._rollback()

    def _maybe_analyze(self) -> None:
        """Refresh planner statistics on an amortized doubling schedule.

        Without ``sqlite_stat1`` rows the planner walks the delivery-order
        index and evaluates selector clauses row by row; with them it
        drives selector gets from the ``message_props`` typed index
        (candidates by rowid, then sort) — the plan the pushdown is for.
        Re-analyzing once the store has written ``max(1000, analyzed)``
        records since the last pass keeps the cost logarithmic in total
        writes while catching every order-of-magnitude depth change.
        """
        written = self.records_written
        if written - self._analyzed_at >= max(1000, self._analyzed_at):
            self._execute("ANALYZE")
            self._analyzed_at = written

    def post_commit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` after the enclosing transaction commits.

        Outside a transaction the work is already durable, so the
        callback runs immediately — the same contract as
        :meth:`Journal.post_commit`.
        """
        if self._tx_depth > 0:
            self._post_commit_hooks.append(callback)
        else:
            callback()

    def _execute(
        self, sql: str, params: Any = (), many: bool = False
    ) -> sqlite3.Cursor:
        try:
            if many:
                return self._con.executemany(sql, params)
            return self._con.execute(sql, params)
        except sqlite3.Error as exc:
            raise PersistenceError(f"queue store {self.path}: {exc}")

    def _mutate(self, sql: str, params: Tuple = ()) -> sqlite3.Cursor:
        """A counted write; the first one of a group opens its transaction
        (callers hold :meth:`transaction`)."""
        if not self._con.in_transaction:
            self._execute("BEGIN IMMEDIATE")
        cursor = self._execute(sql, params)
        if cursor.rowcount > 0:
            if self._deferring:
                self._deferred_ops += cursor.rowcount
            else:
                self._tx_ops += cursor.rowcount
        return cursor

    def _recount(self, name: str) -> None:
        """Set ``name``'s live counts from its rows."""
        counts = self.counts.setdefault(name, SimpleNamespace())
        counts.total, counts.locked, counts.watermark = self._execute(
            _COUNTS, (name,)
        ).fetchone()

    def _refresh_watermark(self, name: str) -> None:
        self.counts[name].watermark = self._execute(_WATERMARK, (name,)).fetchone()[0]

    # -- channels ---------------------------------------------------------------

    def note_channel(
        self, owner: str, peer: str, sent: int, accepted: SeqWatermark
    ) -> None:
        """Stage ``owner``'s channel row for ``peer``; the next commit writes it."""
        cumulative, above = accepted.state()
        self._channel_rows[owner, peer] = (
            owner, peer, sent, cumulative, json.dumps(above) if above else None,
        )  # fmt: skip

    def channels(self, owner: str) -> Dict[str, Tuple[int, SeqWatermark]]:
        """``owner``'s channels: peer -> (last seq sent, accepted watermark)."""
        rows = self._execute(
            "SELECT peer, sent, accepted, above FROM channels WHERE owner = ?",
            (owner,),
        ).fetchall()
        return {
            peer: (sent, SeqWatermark(accepted, json.loads(above) if above else ()))
            for peer, sent, accepted, above in rows
        }

    # -- queue registry -------------------------------------------------------

    def define_queue(self, name: str, max_depth: int) -> int:
        """Register a queue (idempotent); returns the effective max depth.

        When the queue already exists — another manager attached to the
        shared store defined it first — the stored ``max_depth`` wins, so
        every attached manager enforces the same limit.  The first attach
        counts the queue's rows into :attr:`counts`.
        """
        row = self._execute(
            "SELECT max_depth FROM queues WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            with self.transaction():
                self._mutate(
                    "INSERT INTO queues (name, max_depth) VALUES (?, ?)",
                    (name, max_depth),
                )
            row = (max_depth,)
        if name not in self.counts:
            self._recount(name)
        return int(row[0])

    def queue_names(self) -> List[str]:
        rows = self._execute("SELECT name FROM queues ORDER BY name").fetchall()
        return [row[0] for row in rows]

    def delete_queue(self, name: str) -> None:
        with self.transaction():
            self._mutate("DELETE FROM messages WHERE queue = ?", (name,))
            self._mutate("DELETE FROM queues WHERE name = ?", (name,))
            if name in self.counts:
                self._recount(name)

    # -- recovery -------------------------------------------------------------

    def release_locks(self, manager_name: str) -> int:
        """Presumed-abort recovery for one manager: unlock its rows.

        Backout counts are *not* bumped — a crash is not a rollback; the
        message simply reappears, exactly as journal replay makes it
        reappear with its pre-crash count.  Other managers attached to
        the same store keep their in-flight locks untouched.
        """
        # Recovery is not a commit group: the fault-injection hooks model
        # crashes of live flushes, and journal-mode recovery (replay)
        # never fires them either — suppress for the duration.
        saved_hooks = (self.on_pre_flush, self.on_post_flush)
        self.on_pre_flush = self.on_post_flush = None
        try:
            return self._release_locks(manager_name)
        finally:
            self.on_pre_flush, self.on_post_flush = saved_hooks

    def _release_locks(self, manager_name: str) -> int:
        # ``lock_owner IS NOT NULL`` lets both statements walk the partial
        # ix_messages_locked (O(locks held)) instead of the whole table.
        locked_by = "lock_owner IS NOT NULL AND lock_manager = ?"
        with self.transaction():
            released = self._execute(
                "SELECT queue, COUNT(*), MIN(expiry_ms) FROM messages"
                f" WHERE {locked_by} GROUP BY queue",
                (manager_name,),
            ).fetchall()
            self._mutate(
                "UPDATE messages SET lock_owner = NULL, lock_manager = NULL"
                f" WHERE {locked_by}",
                (manager_name,),
            )
            for queue, n, expiry_ms in released:
                counts = self.counts.get(queue)
                if counts is not None:  # else counted when attached
                    counts.locked -= n
                    counts.watermark = _earlier(counts.watermark, expiry_ms)
        return sum(n for _q, n, _e in released)

    def recover(self) -> Tuple[List[str], Dict[str, List[Message]]]:
        """Read-only fold: (queue names, persistent messages per queue).

        Shaped like :meth:`Journal.recover` so the chaos invariant
        checker can compare a live store against itself; it mutates
        nothing and may be called on a store other managers are using.
        Like journal replay, only persistent messages are reported.
        """
        queue_names = self.queue_names()
        live: Dict[str, List[Message]] = {name: [] for name in queue_names}
        rows = self._execute(
            "SELECT queue, encoded FROM messages WHERE persistent = 1"
            " ORDER BY queue, priority DESC, seq"
        ).fetchall()
        for queue, encoded in rows:
            live.setdefault(queue, []).append(_decode(encoded))
        return queue_names, live

    # -- journal-surface compatibility ---------------------------------------

    def needs_compaction(self) -> bool:
        return False

    def sync(self) -> None:
        """Commit deferred writes and checkpoint the WAL into the database."""
        self.flush_pending()
        self._execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Commit deferred writes and release the file (an open
        transaction is rolled back)."""
        con = getattr(self, "_con", None)
        if con is not None:
            self.flush_pending()
            try:
                con.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
        self._con = None

    def __repr__(self) -> str:
        return f"SqlQueueStore({self.path!r}, sync={self.sync_policy!r})"


class SqlMessageQueue:
    """:class:`~repro.mq.queue.MessageQueue` semantics over store rows.

    One wrapper per (manager, queue name); two managers attached to a
    shared store each hold their own wrapper over the same rows and the
    same :attr:`SqlQueueStore.counts` entry.  Every method matches the
    linear queue's observable behaviour — ordering, lazy expiry sweeps,
    lock/commit/rollback bookkeeping, stats — with the list scan replaced
    by indexed SQL and, for compiled selectors that lower
    (:meth:`Selector.to_sql`), by a pushed-down WHERE clause.
    """

    def __init__(
        self,
        store: SqlQueueStore,
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
        self.store = store
        self._clock = clock
        self._max_depth = store.define_queue(name, max_depth)
        self._counts = store.counts[name]
        self._on_expired = on_expired
        self._put_listeners: List[Callable[[Message], None]] = []
        self.stats = QueueStats()
        self.tracer = tracer
        self.metrics = metrics
        self.owner = owner
        self._depth_gauge = f"depth.{owner}.{name}" if owner else f"depth.{name}"

    # -- small helpers --------------------------------------------------------

    def subscribe(self, listener: Callable[[Message], None]) -> None:
        """Register a callback fired after every successful put."""
        self._put_listeners.append(listener)

    @property
    def has_put_listeners(self) -> bool:
        """True once anything has subscribed to this queue's puts."""
        return bool(self._put_listeners)

    def _note_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(self._depth_gauge, self._counts.total)

    # -- depth and inspection -------------------------------------------------

    def depth(self) -> int:
        """Visible depth (sweeps expired messages first, like any access)."""
        with self.store.transaction():
            self._sweep_expired()
        return self._counts.total - self._counts.locked

    def total_depth(self) -> int:
        return self._counts.total

    @property
    def max_depth(self) -> int:
        """Configured depth limit of this queue (store-resolved)."""
        return self._max_depth

    def capacity_remaining(self) -> int:
        """Messages that can still be stored before ``max_depth``.

        Same contract as :meth:`MessageQueue.capacity_remaining`: locked
        rows occupy slots, expired ones are swept first.
        """
        with self.store.transaction():
            self._sweep_expired()
        return self._max_depth - self._counts.total

    def is_empty(self) -> bool:
        return self.depth() == 0

    # -- put ------------------------------------------------------------------

    def _insert(self, messages: List[Message]) -> None:
        """Store ``messages`` in order; caller holds the transaction.

        Every row is encoded before the first is written, so a message
        that is not data leaves nothing behind.
        """
        rows = [
            (
                self.name, m.message_id, m.correlation_id, m.priority,
                m.put_time_ms, m.expiry_ms, m.delivery_mode.value,
                1 if m.is_persistent() else 0, m.backout_count,
                _queryable_properties(m.properties), _encode(m),
            )
            for m in messages
        ]  # fmt: skip
        store, counts = self.store, self._counts
        for message, row in zip(messages, rows):
            seq = store._mutate(
                "INSERT INTO messages (queue, message_id, correlation_id,"
                " priority, put_time_ms, expiry_ms, delivery_mode, persistent,"
                " backout_count, properties, encoded)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row,
            ).lastrowid
            # Side-index upkeep rides the same transaction but is not a
            # logical record: _execute, not _mutate, so flush/record
            # counters (and fault plans keyed on them) see one op per
            # message.
            entries = _index_rows(self.name, seq, message.properties)
            if entries:
                store._execute(
                    "INSERT INTO message_props (queue, key, kind, val, seq)"
                    " VALUES (?, ?, ?, ?, ?)",
                    entries,
                    many=True,
                )
            counts.total += 1
            counts.watermark = _earlier(counts.watermark, message.expiry_ms)

    def put(self, message: Message, notify: bool = True) -> Message:
        """Insert in priority order; raises :class:`QueueFullError` at cap."""
        return self._put([message], notify)[0]

    def notify_put(self, stored: Message) -> None:
        for listener in self._put_listeners:
            listener(stored)

    def put_many(
        self, messages: List[Message], notify: bool = True
    ) -> List[Message]:
        """All-or-nothing batch insert (one transaction, one depth check)."""
        return self._put(list(messages), notify)

    def _put(self, messages: List[Message], notify: bool) -> List[Message]:
        with self.store.transaction():
            self._sweep_expired()
            total = self._counts.total
            if total + len(messages) > self._max_depth:
                raise QueueFullError(self.name, self._max_depth)
            if not messages:
                return []
            now = self._clock.now_ms()
            stored_batch = [m.copy(put_time_ms=now) for m in messages]
            self._insert(stored_batch)
            self.stats.puts += len(stored_batch)
            self.stats.high_water_depth = max(
                self.stats.high_water_depth, total + len(stored_batch)
            )
            self._note_depth()
        if notify:
            for stored in stored_batch:
                self.notify_put(stored)
        return stored_batch

    # -- selection ------------------------------------------------------------

    def _matches(
        self, selector: Optional[Callable[[Message], bool]]
    ) -> Iterator[Tuple[int, Message]]:
        """Yield (seq, message) over unlocked rows in delivery order.

        Compiled selectors that lower to SQL are pushed into the WHERE
        clause; rows the clause cannot decide — opaque-properties rows,
        or any row when the clause is a widening residue (``exact=False``)
        — are rechecked with the full Python evaluator.  Selectors that
        cannot lower at all (including every selector that can raise) and
        plain callables run as a Python scan over the ordered rows, so
        evaluation-order-dependent behaviour (raises included) matches
        the linear queue exactly.
        """
        where = "queue = ? AND lock_owner IS NULL"
        params: List[Any] = [self.name]
        recheck = selector is not None
        sql = selector.to_sql() if isinstance(selector, Selector) else None
        if sql is not None:
            # Index hints first: each is a necessary condition of the
            # selector being TRUE, answered by a seek on message_props.
            # ``seq IN (indexed subquery)`` lets the planner drive the
            # whole lookup from the typed property index (candidates by
            # rowid, then sort) instead of walking the delivery order and
            # parsing the JSON document row by row.  Hints hold for
            # opaque rows too — the side index stores each clean value
            # even when the row's JSON column is NULL.
            for hint in sql.index_hints:
                if hint[0] == "eq":
                    _op, key, kind, value = hint
                    test, values = "= ?", [value]
                elif hint[0] == "range":
                    _op, key, low, high = hint
                    kind, test, values = "n", "BETWEEN ? AND ?", [low, high]
                else:  # "in"
                    _op, key, values = hint
                    kind, test = "s", f"IN ({', '.join('?' for _ in values)})"
                where += (
                    " AND seq IN (SELECT seq FROM message_props"
                    f" WHERE queue = ? AND key = ? AND kind = ? AND val {test})"
                )
                params.extend([self.name, key, kind, *values])
            if sql.uses_properties:
                # Opaque rows (properties NULL) bypass the clause and are
                # rechecked in Python below.
                where += f" AND (properties IS NULL OR {sql.clause})"
            else:
                where += f" AND {sql.clause}"
            params.extend(sql.params)
            recheck = not sql.exact
        cursor = self.store._execute(
            "SELECT seq, properties IS NULL, encoded FROM messages"
            f" WHERE {where} ORDER BY priority DESC, seq",
            tuple(params),
        )
        while True:
            rows = cursor.fetchmany(64)
            if not rows:
                return
            for seq, opaque, encoded in rows:
                message = _decode(encoded)
                if sql is not None:
                    if (recheck or (sql.uses_properties and opaque)) and (
                        not selector(message)
                    ):
                        continue
                elif recheck and not selector(message):
                    continue
                yield seq, message

    def _take(
        self, seq: int, message: Message, lock_owner: Optional[str]
    ) -> None:
        """Remove (or lock) one unlocked row; caller holds the transaction."""
        counts = self._counts
        if lock_owner is None:
            self.store._mutate("DELETE FROM messages WHERE seq = ?", (seq,))
            counts.total -= 1
            self._note_depth()
        else:
            self.store._mutate(
                "UPDATE messages SET lock_owner = ?, lock_manager = ?"
                " WHERE seq = ?",
                (lock_owner, self.owner or "", seq),
            )
            counts.locked += 1
        if message.expiry_ms is not None and message.expiry_ms == counts.watermark:
            self.store._refresh_watermark(self.name)
        self.stats.gets += 1

    def get(
        self,
        selector: Optional[Callable[[Message], bool]] = None,
        lock_owner: Optional[str] = None,
    ) -> Message:
        """Remove (or lock) and return the first matching visible message."""
        with self.store.transaction():
            self._sweep_expired()
            for seq, message in self._matches(selector):
                self._take(seq, message, lock_owner)
                return message
        raise EmptyQueueError(self.name)

    def get_by_id(
        self, message_id: str, lock_owner: Optional[str] = None
    ) -> Message:
        """Destructively get a specific message by id (expired or not)."""
        with self.store.transaction():
            row = self.store._execute(
                "SELECT seq, encoded FROM messages WHERE queue = ?"
                " AND lock_owner IS NULL AND message_id = ?"
                " ORDER BY priority DESC, seq LIMIT 1",
                (self.name, message_id),
            ).fetchone()
            if row is not None:
                message = _decode(row[1])
                self._take(row[0], message, lock_owner)
                return message
        raise EmptyQueueError(self.name)

    def find_by_id(self, message_id: str) -> Optional[Message]:
        """Visible (unlocked, unexpired) message with ``message_id``."""
        found = self._find_visible("message_id = ?", message_id)
        return found[0] if found else None

    def contains_id(self, message_id: str) -> bool:
        """True if any stored row (locked or expired included) has the id."""
        row = self.store._execute(
            "SELECT 1 FROM messages WHERE queue = ? AND message_id = ? LIMIT 1",
            (self.name, message_id),
        ).fetchone()
        return row is not None

    def _find_visible(self, clause: str, *params: Any) -> List[Message]:
        """Visible rows that also satisfy ``clause``, in delivery order."""
        with self.store.transaction():
            self._sweep_expired()
            rows = self.store._execute(
                "SELECT encoded FROM messages WHERE queue = ?"
                " AND lock_owner IS NULL"
                " AND (expiry_ms IS NULL OR expiry_ms >= ?)"
                f" AND {clause} ORDER BY priority DESC, seq",
                (self.name, self._clock.now_ms(), *params),
            ).fetchall()
        return [_decode(row[0]) for row in rows]

    def find_correlated(self, correlation_id: str) -> List[Message]:
        """Visible messages carrying ``correlation_id``, in delivery order
        (a seek on ``ix_messages_corr``; not counted as a browse)."""
        return self._find_visible("correlation_id = ?", correlation_id)

    def find_collisions(self) -> List[Message]:
        """Visible messages whose correlation id another stored row shares,
        in delivery order.  The grouping runs inside SQLite over the
        covering ``ix_messages_corr``; only colliding rows are decoded."""
        return self._find_visible(
            "correlation_id IN (SELECT correlation_id FROM messages"
            " WHERE queue = ? AND correlation_id IS NOT NULL"
            " GROUP BY correlation_id HAVING COUNT(*) > 1)",
            self.name,
        )

    # -- browse ---------------------------------------------------------------

    def browse(
        self, selector: Optional[Callable[[Message], bool]] = None
    ) -> Iterator[Message]:
        """Yield visible messages in delivery order without removing them."""
        with self.store.transaction():
            self._sweep_expired()
        self.stats.browses += 1
        now = self._clock.now_ms()
        # Materialise matches up front so the iteration is a snapshot, as
        # with the linear queue's ``list(self._entries)`` copy: callers
        # may get/put between yields without perturbing the browse.
        matched = [
            message
            for _seq, message in self._matches(selector)
            if not message.is_expired(now)
        ]
        return iter(matched)

    def peek(self) -> Optional[Message]:
        """Next visible message: a browse that stops at the first row."""
        with self.store.transaction():
            self._sweep_expired()
        self.stats.browses += 1
        now = self._clock.now_ms()
        for _seq, message in self._matches(None):
            if not message.is_expired(now):
                return message
        return None

    # -- transactional locking ------------------------------------------------

    def _locked_rows(self, lock_owner: str) -> List[Tuple[int, bytes]]:
        return self.store._execute(
            "SELECT seq, encoded FROM messages WHERE queue = ?"
            " AND lock_owner = ? AND lock_manager = ?"
            " ORDER BY priority DESC, seq",
            (self.name, lock_owner, self.owner or ""),
        ).fetchall()

    def locked_messages(self, lock_owner: str) -> List[Message]:
        return [_decode(encoded) for _seq, encoded in self._locked_rows(lock_owner)]

    def commit_locked(self, lock_owner: str) -> List[Message]:
        """Destroy all messages locked by ``lock_owner``; returns them."""
        with self.store.transaction():
            rows = self._locked_rows(lock_owner)
            if rows:
                self.store._mutate(
                    "DELETE FROM messages WHERE queue = ? AND lock_owner = ?"
                    " AND lock_manager = ?",
                    (self.name, lock_owner, self.owner or ""),
                )
                self._counts.total -= len(rows)
                self._counts.locked -= len(rows)
            self._note_depth()
        return [_decode(encoded) for _seq, encoded in rows]

    def remove_locked(self, lock_owner: str, message_id: str) -> Message:
        """Destroy one specific locked message (poison diversion)."""
        with self.store.transaction():
            row = self.store._execute(
                "SELECT seq, encoded FROM messages WHERE queue = ?"
                " AND lock_owner = ? AND lock_manager = ? AND message_id = ?"
                " LIMIT 1",
                (self.name, lock_owner, self.owner or "", message_id),
            ).fetchone()
            if row is None:
                raise EmptyQueueError(self.name)
            self.store._mutate("DELETE FROM messages WHERE seq = ?", (row[0],))
            self._counts.total -= 1
            self._counts.locked -= 1
            self._note_depth()
        return _decode(row[1])

    def rollback_locked(self, lock_owner: str) -> List[Message]:
        """Unlock in place, bumping backout counts (redelivery order kept)."""
        counts = self._counts
        with self.store.transaction():
            rolled_back: List[Message] = []
            for seq, encoded in self._locked_rows(lock_owner):
                message = _decode(encoded)
                message = message.copy(backout_count=message.backout_count + 1)
                self.store._mutate(
                    "UPDATE messages SET lock_owner = NULL,"
                    " lock_manager = NULL, backout_count = ?, encoded = ?"
                    " WHERE seq = ?",
                    (message.backout_count, _encode(message), seq),
                )
                counts.locked -= 1
                counts.watermark = _earlier(counts.watermark, message.expiry_ms)
                self.stats.backouts += 1
                rolled_back.append(message)
        return rolled_back

    # -- maintenance ----------------------------------------------------------

    def purge(self) -> int:
        """Discard every unlocked message; returns how many were removed."""
        with self.store.transaction():
            cursor = self.store._mutate(
                "DELETE FROM messages WHERE queue = ? AND lock_owner IS NULL",
                (self.name,),
            )
            removed = cursor.rowcount if cursor.rowcount > 0 else 0
            self._counts.total -= removed
            self._counts.watermark = None  # no unlocked row is left
            self._note_depth()
        return removed

    def snapshot(self) -> List[Message]:
        """All stored messages in order (locked included)."""
        rows = self.store._execute(
            "SELECT encoded FROM messages WHERE queue = ?"
            " ORDER BY priority DESC, seq",
            (self.name,),
        ).fetchall()
        return [_decode(row[0]) for row in rows]

    def restore(self, messages: List[Message]) -> None:
        """Replace queue content from a recovery snapshot."""
        with self.store.transaction():
            self.store._mutate(
                "DELETE FROM messages WHERE queue = ?", (self.name,)
            )
            self.store._recount(self.name)
            # Insert in delivery order so seq reproduces FIFO-within-
            # priority for messages that tie on priority.
            self._insert(sorted(messages, key=lambda m: -m.priority))
            self._note_depth()

    # -- expiry ---------------------------------------------------------------

    def _sweep_expired(self) -> None:
        """Lazily dead-letter expired unlocked rows (watermark-gated).

        The watermark is the store's in-memory minimum expiry over this
        queue's unlocked rows, shared by every manager attached to the
        store, so the check costs no statement until a row has expired.
        """
        watermark = self._counts.watermark
        now = self._clock.now_ms()
        if watermark is None or now <= watermark:
            return
        with self.store.transaction():
            swept_rows = self.store._execute(
                "SELECT seq, encoded FROM messages WHERE queue = ?"
                " AND lock_owner IS NULL AND expiry_ms IS NOT NULL"
                " AND expiry_ms < ? ORDER BY priority DESC, seq",
                (self.name, now),
            ).fetchall()
            self.store._mutate(
                "DELETE FROM messages WHERE queue = ? AND lock_owner IS NULL"
                " AND expiry_ms IS NOT NULL AND expiry_ms < ?",
                (self.name, now),
            )
            self._counts.total -= len(swept_rows)
            self.store._refresh_watermark(self.name)
            self.stats.expired += len(swept_rows)
            self._note_depth()
            for _seq, encoded in swept_rows:
                message = _decode(encoded)
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
        return f"SqlMessageQueue({self.name!r}, depth={self.depth()})"
