"""Durability: an append-only journal with checkpointing and recovery.

Real queue managers write persistent messages to a recovery log before
acknowledging the put; on restart they rebuild queue content from the log.
This module provides that behaviour for :class:`~repro.mq.manager.QueueManager`:

* every **committed** put of a persistent message appends a ``put`` record,
* every destructive get of a persistent message appends a ``get`` record,
* :meth:`Journal.checkpoint` compacts the log into a snapshot record,
* :meth:`Journal.recover` folds the log into the set of live messages per
  queue, decoding only the messages that survive the fold; the owning
  manager then compacts only a log that is at least half dead.

Uncommitted transactional work is never journaled — the queue manager only
journals at commit, which gives the standard "presumed abort" behaviour on
crash: in-flight transactions vanish, and transactionally read messages
reappear on their queues.

Throughput comes from **group commit** (Gray: queue systems batch many log
records per force-out):

* :meth:`Journal.append_many` writes a whole batch of records, and
  :meth:`Journal.batch` (``QueueManager.group_commit()``; the
  conditional-send fan-out routes through it) every append made inside the
  block, as one commit group with a single write+flush;
* a commit group is **one physical frame**, so a torn write can never
  persist a prefix of it: recovery replays the whole group or drops it
  with the torn tail — group commit is genuinely all-or-nothing;
* :meth:`Journal.post_commit` defers an action (cross-manager delivery)
  until the staged records are durable: outside a batch the callback runs
  now; inside, after the outermost group is written, or never if it aborts;
* the **sync policy** (``always`` / ``batch`` / ``none``) controls when the
  file journal forces data to disk (``os.fsync``), and a
  ``compaction_threshold`` lets the owning queue manager checkpoint
  automatically: once the log holds that many records **and** twice what
  the last rewrite or restart found live (:meth:`Journal.needs_compaction`),
  so a rewrite never costs more than the appends it retires;
* a checkpoint writes its snapshot as run frames of
  :data:`SNAPSHOT_RUN_RECORDS` records, each through one memo, as a
  commit group is written.

Records have **one encoding**, the one every store and the wire share:
each logged operation is a positional row (:func:`put_row`), and a commit
group leaves as one ``magic | length | CRC-32 | payload`` frame whose
payload is the group's rows, encoded in one pass with one memo, so an
object several rows share (the body of a fan-out's copies, the
compensation body) is written once.  Rows are **data only** — dict /
list / tuple / set / str / bytes / numbers / bool / None; anything else is
refused at the put, before anything is written — and no reader can be
made to resolve a global or call anything, whatever bytes the store holds
(docs/SEMANTICS.md §9).

Two log stores exist — :class:`FileJournal` (frames on disk, one append
handle) and :class:`MemoryJournal` (the same frames in a list, for tests
that inject crashes) — with the same ``flush_count`` / ``bytes_written`` counters,
mirrored as ``journal.*`` metrics when the owning manager carries a registry.
Deployments pick the store by URL: :data:`JOURNAL_SCHEMES` is the one place
the list of stores is written (the journals above plus ``sqlstore:``, which
is not a log at all); see :func:`journal_for` and :func:`journal_factory_for`.
"""

from __future__ import annotations

import io
import itertools
import logging
import os
import pickle
import struct
import zlib
from abc import ABC, abstractmethod
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PersistenceError
from repro.mq.message import DeliveryMode, Message
from repro.mq.sequence import PROP_ROUTE_SEQ, XMIT_PREFIX, SeqWatermark

logger = logging.getLogger(__name__)

#: Valid journal sync policies (file journal; the memory journal accepts
#: them for interface symmetry but has nothing to fsync).
SYNC_POLICIES = ("always", "batch", "none")

# ---------------------------------------------------------------------------
# Message <-> record codec, over a closed value set: data-only pickling
# ---------------------------------------------------------------------------


class _DataPickler(pickle.Pickler):
    """A pickler for plain data and nothing else.  CPython dispatches dict /
    list / tuple / set / frozenset / str / bytes / bytearray / int / float /
    bool / None (exact types) before it consults ``reducer_override``, so the
    hook fires exactly for what the journal refuses: class instances,
    functions, types, subclasses of the above."""

    def reducer_override(self, obj: Any) -> Any:
        raise pickle.PicklingError(f"{type(obj).__name__} object is not data")


class _DataUnpickler(pickle.Unpickler):
    """An unpickler that can never resolve a global, so never call one."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"journal data names a global {module}.{name}")


def dump_data(value: Any) -> bytes:
    """``value`` as a data-only pickle; ``PicklingError`` if it is not data."""
    buffer = io.BytesIO()
    _DataPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(value)
    return buffer.getvalue()


def load_data(data: bytes) -> Any:
    """Inverse of :func:`dump_data`; whatever ``data`` holds, nothing in it
    runs: a global (or a non-pickle) is a :class:`PersistenceError`."""
    try:
        return _DataUnpickler(io.BytesIO(data)).load()
    except Exception as exc:  # noqa: BLE001 - any load failure is corruption
        raise PersistenceError(f"undecodable journal data: {exc}") from exc


def decode_message(record: Dict[str, Any]) -> Message:
    """The message of a put record's dict form (see :func:`expand_row`);
    absent fields take their defaults."""
    body = record.get("body")
    if type(body) is not dict or body.get("kind") != "raw" or "data" not in body:
        raise PersistenceError("journal message record holds no body")
    try:
        return Message(
            body=body["data"],
            message_id=record["message_id"],
            correlation_id=record.get("correlation_id"),
            properties=dict(record.get("properties", {})),
            priority=record.get("priority", 4),
            delivery_mode=DeliveryMode(record.get("delivery_mode", "persistent")),
            expiry_ms=record.get("expiry_ms"),
            reply_to_manager=record.get("reply_to_manager"),
            reply_to_queue=record.get("reply_to_queue"),
            put_time_ms=record.get("put_time_ms"),
            backout_count=record.get("backout_count", 0),
            source_manager=record.get("source_manager"),
        )
    except KeyError as exc:
        raise PersistenceError(f"journal message record missing field {exc}") from exc


#: A logged operation is a **row**: ``(op, queue, ...)``, positional, trailing
#: default values dropped.  After ``("put", queue`` come the message fields in
#: this order — what a message usually sets first, so the usual row ends early.
#: An arrival over a channel puts its seq between the queue and the fields —
#: ``(peer, seq)`` when the peer is not the message's ``source_manager`` — so
#: the third element is a str for a plain put, an int or a tuple otherwise.
_MESSAGE_FIELDS = (
    "message_id", "body", "properties", "put_time_ms", "correlation_id",
    "source_manager", "reply_to_manager", "reply_to_queue",
    "priority", "expiry_ms", "backout_count", "delivery_mode",
)  # fmt: skip
#: per row position, the value dropped when trailing (the first six: never)
_PUT_DEFAULTS = (object(),) * 6 + (None, None, None, None, 4, None, 0, "persistent")


def put_row(
    queue_name: str, message: Message, channel: Optional[Tuple[str, int]] = None
) -> tuple:
    """The row of a put; ``channel`` is the ``(peer, seq)`` it arrived over."""
    row = (
        "put", queue_name, message.message_id, message.body, message.properties,
        message.put_time_ms, message.correlation_id, message.source_manager,
        message.reply_to_manager, message.reply_to_queue, message.priority,
        message.expiry_ms, message.backout_count, message.delivery_mode.value,
    )  # fmt: skip
    end = len(row)
    while row[end - 1] == _PUT_DEFAULTS[end - 1]:
        end -= 1
    if channel is None:
        return row[:end]
    if channel[0] == message.source_manager:
        channel = channel[1]
    return ("put", queue_name, channel) + row[2:end]


def expand_row(row: tuple) -> Dict[str, Any]:
    """The dict form of a row — what readers see.  A put's body is wrapped as
    ``{"kind": "raw", "data": body}``, as frames of earlier versions hold it."""
    op = row[0]
    if op == "resolve":
        return {"op": "resolve", "resolved": list(zip(row[1::2], row[2::2]))}
    if op == "channel":
        return dict(zip(("op", "peer", "sent", "accepted", "above"), row))
    if op != "put":
        return dict(zip(("op", "queue", "message_id"), row))
    channel = row[2] if type(row[2]) is not str else None
    message = dict(zip(_MESSAGE_FIELDS, row[2:] if channel is None else row[3:]))
    message["body"] = {"kind": "raw", "data": message["body"]}
    record = {"op": "put", "queue": row[1], "message": message}
    if channel is not None:
        if type(channel) is int:
            channel = (message.get("source_manager"), channel)
        record["channel"] = list(channel)
    return record


def _accept_arrival(accepted: Dict[str, SeqWatermark], channel: Any) -> None:
    """Replay an arrival's ``(peer, seq)`` into its peer's watermark."""
    try:
        peer, seq = channel
        watermark = accepted.get(peer)
        if watermark is None:
            watermark = accepted[peer] = SeqWatermark()
        watermark.accept(seq)
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"journal arrival names no channel seq: {channel!r}") from exc


def _check_sync_policy(sync: str) -> str:
    if sync not in SYNC_POLICIES:
        raise PersistenceError(
            f"unknown sync policy {sync!r}; expected one of {SYNC_POLICIES}"
        )
    return sync


# ---------------------------------------------------------------------------
# The record codec: length-prefixed frames of data-only rows
# ---------------------------------------------------------------------------

#: First byte of a frame.  A *run* frame's payload is records pickled one
#: after another through one memo; a *group* frame's payload is run frames,
#: concatenated.
_MAGIC_RUN = 0xB1
_MAGIC_GROUP = 0xB2

#: Binary frame header: magic byte, payload length, CRC-32 of the payload.
_BIN_HEADER = struct.Struct("<BII")


def _bin_frame(magic: int, payload: bytes) -> bytes:
    return _BIN_HEADER.pack(magic, len(payload), zlib.crc32(payload)) + payload


class BinaryRecordCodec:
    """Length-prefixed frames: magic, length, CRC-32, data-only pickles.

    The unit of encoding is the commit group: every record staged between
    two :meth:`take` calls goes through **one pickler with one memo**, so
    an object several records share — a fan-out's body, the compensation
    body, a conditional message id — is written once, and the group leaves
    as one frame under one CRC, which turns a torn or bit-rotted frame into
    a detected error: the frame is dropped or replayed whole.  What is not
    plain data is refused in :meth:`stage`, before anything is written.

    A codec object holds the commit group its journal is staging:
    :meth:`stage` encodes records onto it (all of the call's records or, if
    one is refused, none), :meth:`take` hands the group over as frames,
    :meth:`wrap_group` makes several frames one physical frame, and
    :meth:`encode_record` is a finished frame of its own.
    """

    def __init__(self) -> None:
        self._frames: List[bytes] = []
        #: the open run: what the pickler has written since the last take()
        self._chunks: List[bytes] = []
        self._pickler = _DataPickler(
            SimpleNamespace(write=self._chunks.append), pickle.HIGHEST_PROTOCOL
        )

    def encode_record(self, record: Any) -> bytes:
        if self._frames or self._chunks:
            return type(self)().encode_record(record)
        self.stage((record,))
        return self.take()[0]

    def stage(self, records: Iterable[Any]) -> int:
        chunks, dump = self._chunks, self._pickler.dump
        mark = len(chunks)
        count = 0
        try:
            for record in records:
                dump(record)
                count += 1
        except Exception as exc:  # noqa: BLE001 - report what record failed
            # Cut this call's records off.  The memo may name objects whose
            # bytes are gone now, so what was staged before closes as a run
            # of its own and the group continues in a fresh one.
            del chunks[mark:]
            self._frames = self.take()
            raise PersistenceError(f"journal record refused: {exc}") from exc
        return count

    def take(self) -> List[bytes]:
        chunks = self._chunks
        if chunks:
            payload = b"".join(chunks)
            chunks.clear()
            self._frames.append(_bin_frame(_MAGIC_RUN, payload))
        self._pickler.clear_memo()
        frames, self._frames = self._frames, []
        return frames

    def wrap_group(self, frames: List[bytes]) -> bytes:
        return _bin_frame(_MAGIC_GROUP, b"".join(frames))


#: Records per run frame of a checkpoint's snapshot.  One memo spans a run,
#: so what its records share — queue and property names, a body several
#: queues hold — is written once.  The bound keeps the memo and the run's
#: bytes small: 4,096-record runs wrote an 11 % smaller snapshot and
#: doubled the memory the encoding held at its peak (docs/SEMANTICS.md §9).
SNAPSHOT_RUN_RECORDS = 1024


def encode_snapshot(records: Iterable[Any]) -> Tuple[List[bytes], int]:
    """``records`` as run frames of :data:`SNAPSHOT_RUN_RECORDS` records,
    through one codec, and how many records they hold."""
    codec = BinaryRecordCodec()
    records = iter(records)
    frames: List[bytes] = []
    count = 0
    while True:
        staged = codec.stage(itertools.islice(records, SNAPSHOT_RUN_RECORDS))
        if not staged:
            return frames, count
        count += staged
        frames += codec.take()


def _load_run(payload: bytes) -> List[Dict[str, Any]]:
    """Decode the records of one run payload, rows expanded to dicts."""
    records: List[Dict[str, Any]] = []
    stream = io.BytesIO(payload)
    load = _DataUnpickler(stream).load
    end = len(payload)
    try:
        while stream.tell() < end:
            record = load()
            if type(record) is tuple:
                record = expand_row(record)
            elif not isinstance(record, dict):
                raise ValueError("not a record")
            records.append(record)
    except Exception as exc:  # noqa: BLE001 - any load failure is corruption
        raise PersistenceError(f"undecodable journal frame: {exc}") from exc
    return records


def _scan_journal(
    data: bytes,
    source: str,
    strict: bool = True,
    in_group: bool = False,
) -> Tuple[List[Dict[str, Any]], int, int]:
    """Decode a journal byte stream, frame by frame.

    Returns ``(records, valid_end, torn)``:

    * ``records`` — decoded logical records, group wrappers inlined (a
      group's members count individually);
    * ``valid_end`` — byte offset just past the last intact frame, the
      truncation point for healing;
    * ``torn`` — 1 when the stream ends in a torn frame: an incomplete
      frame, or a CRC-mismatched frame that runs to end-of-stream.  Torn
      content is excluded from the returns.

    A torn write leaves a prefix of a frame, which starts with a magic
    byte; any other byte where a frame should start is corruption, as is
    any damage *before* intact content — neither is a crash artefact: with
    ``strict`` it raises :class:`PersistenceError`; without (the
    tolerant open-time scan) the scan simply stops there, ``valid_end``
    short of the stream's end.  ``in_group`` scans the payload of a group
    frame, which holds run frames and nothing else.
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    valid_end = 0
    end = len(data)

    def corrupt(at: int, exc: Optional[Exception] = None) -> tuple:
        if strict:
            where = f"at byte {at} in {source}"
            raise PersistenceError(f"corrupt journal frame {where}") from exc
        return records, valid_end, 0

    while offset < end:
        first = data[offset]
        if first != _MAGIC_RUN and (in_group or first != _MAGIC_GROUP):
            return corrupt(offset)
        header_end = offset + _BIN_HEADER.size
        if header_end > end:
            return records, valid_end, 1
        magic, length, crc = _BIN_HEADER.unpack_from(data, offset)
        frame_end = header_end + length
        if frame_end > end:
            return records, valid_end, 1
        payload = data[header_end:frame_end]
        if zlib.crc32(payload) != crc:
            if frame_end == end:
                # A torn OS write can complete the header but garble the
                # payload; at end-of-stream that is crash semantics, not
                # bit rot.
                return records, valid_end, 1
            return corrupt(offset)
        try:
            if magic == _MAGIC_GROUP:
                # Its own CRC matched, so a member that does not scan to
                # the last byte is real corruption.
                members, scanned, _torn = _scan_journal(payload, source, True, True)
                if scanned != length:
                    raise PersistenceError("malformed journal group frame")
                records.extend(members)
            else:
                records.extend(_load_run(payload))
        except PersistenceError as exc:
            return corrupt(offset, exc)
        valid_end = offset = frame_end
    return records, valid_end, 0


# ---------------------------------------------------------------------------
# Journal stores
# ---------------------------------------------------------------------------


class _CommitGroup:
    """:meth:`Journal.batch`'s context: a depth counter on the journal."""

    __slots__ = ("journal",)

    def __init__(self, journal: "Journal") -> None:
        self.journal = journal

    def __enter__(self) -> "Journal":
        self.journal._batch_depth += 1
        return self.journal

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        journal = self.journal
        journal._batch_depth -= 1
        if journal._batch_depth == 0:
            journal._end_group(exc_type is not None)


class Journal(ABC):
    """Append-only operation log for one queue manager.

    Args:
        sync: Force-out policy — ``"always"`` syncs every commit group to
            stable storage, ``"batch"`` only on explicit :meth:`sync` and
            checkpoints, ``"none"`` never (the OS decides).  Only the file
            journal actually fsyncs; the policy is accepted everywhere so
            deployments can switch stores without changing configuration.
        compaction_threshold: When set, the floor under which the log is
            never compacted: :meth:`needs_compaction` turns true once the
            log holds at least this many records and twice
            :attr:`snapshot_records`; the owning queue manager then
            checkpoints automatically.
    """

    def __init__(
        self, sync: str = "always", compaction_threshold: Optional[int] = None
    ) -> None:
        self.sync_policy = _check_sync_policy(sync)
        self.compaction_threshold = compaction_threshold
        self.codec = BinaryRecordCodec()
        #: records durably handed to the store over this object's lifetime
        self.records_written = 0
        #: commit groups written (each is one write+flush; the unit whose
        #: reduction group commit exists for)
        self.flush_count = 0
        #: serialized bytes handed to the store (appends only)
        self.bytes_written = 0
        #: checkpoint rewrites performed
        self.rewrites = 0
        #: records the last rewrite wrote, or the last restart found live
        #: (set by ``QueueManager.recover``): the log is compacted again
        #: only once it is twice this long (see :meth:`needs_compaction`)
        self.snapshot_records = 0
        #: corrupt trailing records skipped by the last :meth:`read_all`
        #: (a partial frame from a crash mid-append — a torn multi-record
        #: group counts once); the file journal includes a torn tail it
        #: healed away at open time.  See :meth:`recover`.
        self.skipped_trailing_records = 0
        #: what the last restart did (see :meth:`recover`): records
        #: scanned, messages restored, and whether the owning manager
        #: then compacted the log (0/1, set by ``QueueManager.recover``)
        self.recover_records = 0
        self.recover_live = 0
        self.recover_compacted = 0
        #: optional metrics registry (the owning manager attaches its own)
        self.metrics = None  # type: Optional[Any]
        #: crash-point hooks (:mod:`repro.chaos`): called with the logical
        #: record count immediately before / after each physical commit
        #: group is handed to the store.  A pre-flush hook that raises
        #: models a crash with the group lost; a post-flush hook that
        #: raises models a crash with the group durable.  ``None`` (the
        #: default) costs one attribute check per flush.
        self.on_pre_flush: Optional[Callable[[int], None]] = None
        self.on_post_flush: Optional[Callable[[int], None]] = None
        #: channels the last :meth:`recover` rebuilt: peer -> (last seq
        #: stamped toward it, the watermark of seqs accepted from it)
        self.recovered_channels: Dict[str, Tuple[int, SeqWatermark]] = {}
        self._records_in_log = 0  # see size(); stores reset it on scan / rewrite
        #: ``(peer, seq)`` of transferred copies the log does not yet know
        #: are resolved: written with the next commit group (see
        #: :meth:`log_resolved`)
        self._resolved: List[Any] = []
        self._batch_depth = 0
        self._batch_count = 0  # records the codec holds staged for the open batch
        self._post_commit_hooks: List[Callable[[], None]] = []
        self._group = _CommitGroup(self)

    # -- store primitives ---------------------------------------------------

    @abstractmethod
    def _write_serialized(self, frames: List[bytes]) -> int:
        """Durably append pre-serialized frames; returns byte count.

        One call is one commit group: implementations perform a single
        write (+flush/fsync per the sync policy) for the whole list.
        """

    @abstractmethod
    def read_all(self) -> List[Dict[str, Any]]:
        """Return every record, oldest first."""

    @abstractmethod
    def rewrite(self, records: Iterable[Any]) -> None:
        """Atomically replace the log content with ``records`` (used by
        checkpointing), encoded by :func:`encode_snapshot`."""

    def size(self) -> int:
        """Number of logical records currently in the live log.

        Members of a multi-record commit group count individually, even
        though the group occupies one physical frame.
        """
        return self._records_in_log

    # -- appends ------------------------------------------------------------

    def append(self, record: Any) -> None:
        """Durably append one record of plain data (buffered inside :meth:`batch`)."""
        self._stage((record,))

    def append_many(self, records: Iterable[Any]) -> None:
        """Group-commit a batch of records with a single write+flush.

        Serialization happens eagerly, so an unjournalable record raises
        before anything is written (inside a :meth:`batch`: before any
        record of this call joins the group).  The group is one physical
        frame (see :meth:`_write_group`), so it is all-or-nothing even
        against a torn write: recovery replays all of it or none.
        """
        self._stage(records)

    def batch(self) -> _CommitGroup:
        """Buffer every append made inside the block into one commit group.

        Nested batches join the outermost group.  The group is written on
        exit even when the block raises: the in-memory queue state it
        journals has already been applied, and an unwritten record would
        lose committed work on recovery.  Deferred :meth:`post_commit`
        actions run after the group is durable — and are dropped whenever
        the group aborts instead of committing (the write itself fails,
        e.g. a :class:`~repro.chaos.faults.CrashPoint` from a pre-flush
        hook, or the block raises with nothing staged), so nothing acts on
        records that never reached the log and no stale callback survives
        to fire on the next unrelated commit.  A raising hook likewise
        clears every hook still queued (including ones registered by hooks
        that already ran) before the exception propagates.

        The context is one object per journal and a depth counter, so
        opening a group (nested or not) allocates nothing.
        """
        return self._group

    def _end_group(self, body_raised: bool) -> None:
        """Outermost batch exit: write the group, then run its hooks."""
        try:
            if self._batch_count:
                count, self._batch_count = self._batch_count, 0
                if self._resolved:
                    count += self._stage_resolved()
                self._write_group(self.codec.take(), count)
            elif body_raised:
                # Nothing was staged and the block aborted: the hooks
                # belong to work that never happened.
                self._post_commit_hooks.clear()
        except BaseException:
            self._post_commit_hooks.clear()
            raise
        try:
            while self._post_commit_hooks:
                hooks, self._post_commit_hooks = self._post_commit_hooks, []
                for hook in hooks:
                    hook()
        except BaseException:
            # A hook died mid-run; hooks it (or its predecessors)
            # registered must not linger into the next commit.
            self._post_commit_hooks.clear()
            raise

    def post_commit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once currently-staged records are durable.

        Outside a :meth:`batch` every append so far has already been
        committed and the callback runs now.  Inside a batch it runs after
        the outermost commit group has been written, or never if that group
        aborts.  The network layer uses this to hold cross-manager delivery
        until the sender's commit group (compensation staging, sender-log
        entry, transmission parking) is durable — delivering earlier would
        let a data message reach the target's journal while the records
        that make it compensatable are still buffered.
        """
        if self._batch_depth:
            self._post_commit_hooks.append(callback)
        else:
            callback()

    def _stage(self, records: Iterable[Any]) -> None:
        """Encode records onto the open commit group — once, here, so what is
        not data is refused at its own put — and commit it unless batching."""
        count = self.codec.stage(records)
        if self._batch_depth:
            self._batch_count += count
        elif count:
            if self._resolved:
                count += self._stage_resolved()
            self._write_group(self.codec.take(), count)

    def _stage_resolved(self) -> int:
        """Stage the resolutions waiting for a group as its ``resolve`` record."""
        resolved, self._resolved = self._resolved, []
        return self.codec.stage((("resolve", *resolved),))

    def _write_group(self, frames: List[bytes], count: int) -> None:
        """Hand ``count`` logical records, encoded as ``frames``, to the store."""
        if len(frames) > 1:
            # What is written together becomes ONE physical frame, so a torn
            # write cannot persist a prefix of it: either the frame decodes
            # and the whole group replays, or it is dropped as the torn tail.
            frames = [self.codec.wrap_group(frames)]
        if self.on_pre_flush is not None:
            self.on_pre_flush(count)
        nbytes = self._write_serialized(frames)
        self._records_in_log += count
        if self.on_post_flush is not None:
            self.on_post_flush(count)
        self.records_written += count
        self.flush_count += 1
        self.bytes_written += nbytes
        if self.metrics is not None:
            self.metrics.incr("journal.flushes")
            self.metrics.incr("journal.records", count)
            self.metrics.incr("journal.bytes", nbytes)
            self.metrics.observe("journal.batch_records", count)

    # -- maintenance --------------------------------------------------------

    def close(self) -> None:
        """Write pending resolutions and release store resources.

        The base journal holds no handle; stores with handles extend this.
        Harnesses may call it on any backend unconditionally.
        """
        if self._resolved and not self._batch_depth:
            count = self._stage_resolved()
            self._write_group(self.codec.take(), count)

    def discard_pending(self) -> None:
        """Drop the resolutions no group has written yet: what a crash loses."""
        self._resolved = []

    def needs_compaction(self) -> bool:
        """True when the log holds at least ``compaction_threshold`` records
        and twice :attr:`snapshot_records`.

        The doubling-array rule: a rewrite follows at least as many appends
        as the previous snapshot held records, so it writes no more than
        twice the records appended since, and each appended record is
        rewritten about once on average however large the live state grows.
        """
        return (
            self.compaction_threshold is not None
            and self._batch_depth == 0
            and self.size()
            >= max(self.compaction_threshold, 2 * self.snapshot_records)
        )

    # -- logical operations -------------------------------------------------

    def log_put(
        self,
        queue_name: str,
        message: Message,
        channel: Optional[Tuple[str, int]] = None,
    ) -> None:
        """Record a committed put of a persistent message (that arrived
        over ``channel``, ``(peer, seq)``, if given)."""
        self.append(put_row(queue_name, message, channel))

    def log_put_many(self, puts: Iterable[Tuple[str, Message]]) -> None:
        """Record a batch of committed puts as one commit group."""
        self.append_many(put_row(queue_name, message) for queue_name, message in puts)

    def log_resolved(self, peer: str, seq: int) -> None:
        """Record that the copy parked for ``peer`` with ``seq`` was transferred.

        Nothing is written now: the resolution joins the next commit group
        this journal writes, as one ``resolve`` record per group, and
        :meth:`close` writes what is left.  Losing it to a crash costs a
        re-driven copy the target's watermark drops, never a message.
        """
        self._resolved += (peer, seq)

    def log_get(self, queue_name: str, message_id: str) -> None:
        """Record a committed destructive get of a persistent message."""
        self.append(("get", queue_name, message_id))

    def log_queue_defined(self, queue_name: str) -> None:
        """Record that a queue was defined (so recovery recreates it)."""
        self.append(("define", queue_name))

    def log_queue_deleted(self, queue_name: str) -> None:
        """Record that a queue was deleted."""
        self.append(("delete", queue_name))

    def checkpoint(
        self,
        queues: Dict[str, List[Message]],
        channels: Iterable[tuple] = (),
    ) -> None:
        """Compact the log to a single snapshot of current persistent state.

        ``channels`` holds ``(peer, sent, accepted, above)`` per peer: the
        last seq stamped toward it, and the watermark of seqs accepted
        from it.  The snapshot supersedes pending resolutions — the
        resolved copies are not in ``queues``.
        """
        records: List[tuple] = [("snapshot-begin",)]
        for queue_name in sorted(queues):
            records.append(("define", queue_name))
            for message in queues[queue_name]:
                if message.is_persistent():
                    records.append(put_row(queue_name, message))
        records.extend(("channel", *channel) for channel in channels)
        records.append(("snapshot-end",))
        self._resolved = []
        self.rewrite(records)
        self.rewrites += 1
        self.snapshot_records = len(records)
        if self.metrics is not None:
            self.metrics.incr("journal.checkpoints")

    def recover(self) -> Tuple[List[str], Dict[str, List[Message]]]:
        """Fold the log into (defined queue names, live messages per queue).

        Replay semantics: ``put`` adds a message, ``get`` removes it,
        ``define``/``delete`` maintain the queue set, ``resolve`` removes
        transferred copies from transmission queues by ``(peer, seq)``.
        The channels come back in :attr:`recovered_channels`: an arrival's
        seq joins its peer's watermark for good — consuming the message
        does not undo it — and the last seq stamped toward a peer is the
        highest any parked copy, resolution or snapshot names.  The fold runs on
        the *undecoded* records — every record is checked structurally
        (known op, a queue name, a message id), but only the puts no
        later ``get``/``delete`` removed go through
        :func:`decode_message` and ``Message`` validation, so a restart
        costs what its live state costs, not what its history did.
        Unknown record types and structurally broken records raise
        :class:`PersistenceError` (a corrupt journal must not be silently
        half-recovered).  A corrupt **trailing** record — the partial
        frame a crash mid-append leaves behind — is skipped but never
        silently: it is logged and counted in
        :attr:`skipped_trailing_records`, which this method refreshes
        along with :attr:`recover_records` and :attr:`recover_live`.
        """
        # queue -> message id -> undecoded message record.  Both levels
        # are insertion-ordered: definition order and put order.
        live: Dict[str, Dict[str, Dict[str, Any]]] = {}
        sent: Dict[str, int] = {}
        accepted: Dict[str, SeqWatermark] = {}
        parked: Dict[Tuple[str, int], str] = {}  # (peer, seq) -> message id
        records = self.read_all()
        for record in records:
            op = record.get("op")
            if op in ("snapshot-begin", "snapshot-end"):
                continue
            if op in ("resolve", "channel"):
                try:
                    if op == "resolve":
                        for peer, seq in record["resolved"]:
                            sent[peer] = max(sent.get(peer, 0), seq)
                            message_id = parked.pop((peer, seq), None)
                            live.get(XMIT_PREFIX + peer, {}).pop(message_id, None)
                    else:
                        peer = record["peer"]
                        sent[peer] = max(sent.get(peer, 0), record["sent"])
                        accepted[peer] = SeqWatermark(
                            record["accepted"], record["above"]
                        )
                except (KeyError, TypeError, ValueError) as exc:
                    raise PersistenceError(f"malformed journal {op!r} record") from exc
                continue
            if op not in ("define", "delete", "put", "get"):
                raise PersistenceError(f"unknown journal op {op!r}")
            queue_name = record.get("queue")
            if not isinstance(queue_name, str):
                raise PersistenceError(f"journal {op!r} record names no queue")
            if op == "define":
                live.setdefault(queue_name, {})
            elif op == "delete":
                live.pop(queue_name, None)
            else:
                encoded = record.get("message") if op == "put" else record
                message_id = (
                    encoded.get("message_id") if isinstance(encoded, dict) else None
                )
                if message_id is None:
                    raise PersistenceError(
                        f"journal {op!r} record for {queue_name!r} names no message"
                    )
                if op == "put":
                    live.setdefault(queue_name, {})[message_id] = encoded
                    channel = record.get("channel")
                    if channel is not None:
                        _accept_arrival(accepted, channel)
                    if queue_name.startswith(XMIT_PREFIX):
                        seq = (encoded.get("properties") or {}).get(PROP_ROUTE_SEQ)
                        if seq is not None:
                            peer = queue_name[len(XMIT_PREFIX):]
                            sent[peer] = max(sent.get(peer, 0), seq)
                            parked[peer, seq] = message_id
                else:
                    live.get(queue_name, {}).pop(message_id, None)
        messages = {
            name: [decode_message(encoded) for encoded in puts.values()]
            for name, puts in live.items()
        }
        self.recover_records = len(records)
        self.recover_live = sum(len(restored) for restored in messages.values())
        self.recovered_channels = {
            peer: (sent.get(peer, 0), accepted.get(peer, SeqWatermark()))
            for peer in sent.keys() | accepted.keys()
        }
        return list(live), messages


class MemoryJournal(Journal):
    """Journal kept in memory; survives simulated crashes of the manager.

    Tests model a crash by discarding the :class:`QueueManager` object and
    constructing a fresh one over the same journal instance — exactly the
    state a restarted process would see on disk.  Flush accounting matches
    the file journal's (one commit group per append / append_many /
    batch), so group-commit benchmarks run without touching a disk.
    """

    def __init__(
        self, sync: str = "always", compaction_threshold: Optional[int] = None
    ) -> None:
        super().__init__(sync=sync, compaction_threshold=compaction_threshold)
        self._frames: List[bytes] = []

    def _write_serialized(self, frames: List[bytes]) -> int:
        self._frames.extend(frames)
        return sum(len(frame) for frame in frames)

    def read_all(self) -> List[Dict[str, Any]]:
        data = b"".join(self._frames)
        records, valid_end, torn = _scan_journal(data, "<memory>")
        if torn:
            # Heal in the pass that found it, as the file journal does: an
            # append landing behind torn bytes would be mid-log corruption.
            self._frames = [data[:valid_end]]
            self._records_in_log = len(records)
        self.skipped_trailing_records = torn
        return records

    def rewrite(self, records: Iterable[Any]) -> None:
        self._frames, self._records_in_log = encode_snapshot(records)


class FileJournal(Journal):
    """Framed journal on disk with atomic checkpoint rewrite.

    The append handle stays open for the journal's
    lifetime (no per-append open/close); :meth:`rewrite` swaps the file
    atomically and reopens it.  Opening an existing log reads, CRC-checks
    and decodes it **once**: that pass **heals** a torn final frame (the
    artifact of a crash mid-append) by truncating it — counted in
    :attr:`skipped_trailing_records` — so later appends can never
    concatenate onto torn bytes, counts the records for :meth:`size`, and
    hands what it decoded to the first :meth:`read_all`, so a restart
    (open, then :meth:`recover`) passes over the bytes one time, not two.
    The sync policy decides when ``os.fsync`` runs:

    * ``always`` — after every commit group (a group-committed batch still
      costs one fsync, which is the point of batching);
    * ``batch`` — only on explicit :meth:`sync` and on checkpoints;
    * ``none`` — never (page cache only; cheapest, weakest).
    """

    def __init__(
        self,
        path: str,
        sync: str = "always",
        compaction_threshold: Optional[int] = None,
    ) -> None:
        super().__init__(sync=sync, compaction_threshold=compaction_threshold)
        self.path = path
        self._healed_trailing_records = 0
        #: records the open scan decoded, kept for the first
        #: :meth:`read_all` (``None`` once handed over or rewritten)
        self._opened: Optional[List[Dict[str, Any]]] = None
        directory = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(directory, exist_ok=True)
            # A crash can tear the final append mid-frame; appending after
            # it would concatenate the next record onto the torn bytes,
            # turning an ignorable torn tail into mid-file corruption
            # that recovery refuses.  Heal before opening the append
            # handle: the torn tail was never acknowledged durable (every
            # committed write is complete before fsync returns), so
            # truncating it is exactly crash semantics.  The scan is
            # tolerant — mid-file corruption is :meth:`read_all`'s to
            # refuse, not the constructor's.
            self._opened = self._scan_file(strict=False)
            # "ab" creates the file if missing, so recover() on a fresh
            # journal succeeds.
            self._fh = open(path, "ab")
        except OSError as exc:
            raise PersistenceError(f"journal open failed: {exc}") from exc

    def _scan_file(self, strict: bool) -> List[Dict[str, Any]]:
        """Read, CRC-check and decode the file in one pass, healing its tail.

        A torn final frame is truncated away by the pass that found it, logged,
        and counted in :attr:`skipped_trailing_records` until the next
        :meth:`rewrite`.  Records how far the intact content ran
        (``_scanned_bytes``) and how many records it held.
        """
        records: List[Dict[str, Any]] = []
        valid_end = torn = 0
        try:
            with open(self.path, "rb+") as fh:
                data = fh.read()
                records, valid_end, torn = _scan_journal(data, self.path, strict)
                if torn:
                    fh.truncate(valid_end)
                    logger.warning(
                        "journal %s: truncated torn trailing record (%d bytes)"
                        " left by a crash mid-append",
                        self.path,
                        len(data) - valid_end,
                    )
        except FileNotFoundError:
            pass  # a fresh journal; the append handle creates the file
        self._healed_trailing_records += torn
        self.skipped_trailing_records = self._healed_trailing_records
        self._records_in_log = len(records)
        self._scanned_bytes = valid_end
        return records

    def _write_serialized(self, frames: List[bytes]) -> int:
        buf = b"".join(frames)
        try:
            self._fh.write(buf)
            self._fh.flush()
            if self.sync_policy == "always":
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            raise PersistenceError(f"journal append failed: {exc}") from exc
        return len(buf)

    def sync(self) -> None:
        """Force everything written so far to stable storage."""
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            raise PersistenceError(f"journal sync failed: {exc}") from exc

    def close(self) -> None:
        """Write pending resolutions, flush, force out, release the handle."""
        if self._fh.closed:
            return
        super().close()
        self._fh.flush()
        if self.sync_policy != "none":
            os.fsync(self._fh.fileno())
        self._fh.close()

    def read_all(self) -> List[Dict[str, Any]]:
        records, self._opened = self._opened, None
        try:
            if not self._fh.closed:
                self._fh.flush()
            # What the open scan decoded is the log as long as the file
            # still ends where that scan did — nothing appended since, and
            # no mid-file corruption the tolerant scan stopped short of.
            if records is None or os.path.getsize(self.path) != self._scanned_bytes:
                records = self._scan_file(strict=True)
        except OSError as exc:
            raise PersistenceError(f"journal read failed: {exc}") from exc
        return records

    def rewrite(self, records: Iterable[Any]) -> None:
        tmp_path = self.path + ".tmp"
        frames, count = encode_snapshot(records)
        try:
            with open(tmp_path, "wb") as f:
                f.writelines(frames)
                f.flush()
                if self.sync_policy != "none":
                    os.fsync(f.fileno())
            if not self._fh.closed:
                self._fh.close()
            os.replace(tmp_path, self.path)
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise PersistenceError(f"journal rewrite failed: {exc}") from exc
        self._records_in_log = count
        self._opened = None
        # The rewritten log no longer contains the healed torn tail.
        self._healed_trailing_records = 0


# ---------------------------------------------------------------------------
# Scheme table: the one place the list of stores is written
# ---------------------------------------------------------------------------


def _open_sql_store(
    path: str, sync: str = "always", compaction_threshold: Optional[int] = None
) -> Any:
    """``sqlstore:`` is not a log, so it has nothing to compact."""
    from repro.mq.sqlstore import SqlQueueStore  # it imports this module

    return SqlQueueStore(path, sync=sync)


#: URL scheme -> (constructor taking the path, per-manager filename suffix,
#: needs a path).  A bare path with no scheme means ``binfile:``.
JOURNAL_SCHEMES: Dict[str, tuple] = {
    "memory": (lambda _path, **kw: MemoryJournal(**kw), "", False),
    "binfile": (FileJournal, ".journal", True),
    "sqlstore": (_open_sql_store, ".db", True),
}


def journal_scheme(scheme: str) -> tuple:
    """The :data:`JOURNAL_SCHEMES` row for ``scheme`` (case-insensitive)."""
    try:
        return JOURNAL_SCHEMES[scheme.lower()]
    except KeyError:
        raise PersistenceError(
            f"unknown journal backend {scheme!r}; expected one of:"
            f" {', '.join(sorted(JOURNAL_SCHEMES))}"
        ) from None


def journal_for(
    url_or_path: str,
    sync: str = "always",
    compaction_threshold: Optional[int] = None,
) -> Journal:
    """Construct a store from a backend URL (or bare file path).

    ``memory:`` ignores any path; ``binfile:<path>`` opens (creating if
    needed) a :class:`FileJournal`, ``sqlstore:<path>`` a
    :class:`~repro.mq.sqlstore.SqlQueueStore`; a bare path with no scheme
    means ``binfile:``.  Unknown schemes raise :class:`PersistenceError`
    naming the three above, as does a ``?`` query: a URL takes no options.
    """
    scheme, sep, path = url_or_path.partition(":")
    if not sep:
        scheme, path = "binfile", url_or_path
    if "?" in path:
        raise PersistenceError(f"journal URLs take no options: {url_or_path!r}")
    constructor, _suffix, needs_path = journal_scheme(scheme)
    if needs_path and not path:
        raise PersistenceError(f"journal backend {scheme.lower()!r} needs a path")
    return constructor(path, sync=sync, compaction_threshold=compaction_threshold)


def journal_factory_for(
    backend: str,
    directory: Optional[str] = None,
    sync: str = "always",
    compaction_threshold: Optional[int] = None,
) -> Callable[[str], Journal]:
    """Per-manager store factory for testbed-style deployments.

    Returns a ``factory(manager_name) -> Journal`` that places each
    manager's store under ``directory`` as ``<name>.journal`` /
    ``<name>.db`` (dots in the manager name become underscores), so one
    call configures a whole multi-manager deployment:

        Testbed(names, journaled=True,
                journal_factory=journal_factory_for("binfile", tmpdir))

    ``memory`` needs no directory; every other backend requires one.
    """
    _constructor, suffix, needs_path = journal_scheme(backend)
    if needs_path and directory is None:
        raise PersistenceError(f"journal backend {backend.lower()!r} needs a directory")

    def factory(name: str) -> Journal:
        # ``memory:`` ignores the path, so it needs no case of its own.
        filename = name.replace(".", "_") + suffix
        return journal_for(
            f"{backend}:{os.path.join(directory or '', filename)}",
            sync=sync,
            compaction_threshold=compaction_threshold,
        )

    return factory
