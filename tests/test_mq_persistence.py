"""Unit tests for journaling, checkpointing, and crash recovery."""

import os
import pickle
import struct
import zlib

import pytest

from repro.errors import MQError, PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import (
    SNAPSHOT_RUN_RECORDS,
    BinaryRecordCodec,
    FileJournal,
    MemoryJournal,
    decode_message,
    dump_data,
    expand_row,
    load_data,
    put_row,
)


def encode_message(message):
    """The dict form of a message, as a put record carries it."""
    return expand_row(put_row("", message))["message"]


def torn(record):
    """What a crash mid-append leaves of ``record``: a frame cut short."""
    return BinaryRecordCodec().encode_record(record)[:-4]


class NotData:
    """Picklable by reference, and still not something a journal carries."""


class DictSubclass(dict):
    pass


class TestBodyCodec:
    """A body is a data-only pickle: plain data round-trips with its types,
    loops and sharing; anything else is refused when it is written, and a
    payload that names a global is refused when it is read."""

    @pytest.mark.parametrize(
        "body",
        [
            None, True, 42, 2**100, 1.5, "text", b"\x00\xff", bytearray(b"ab"),
            [1, 2, 3], (1, 2), {"nested": {"ok": True}}, {1: "one"},
            {(1, "a"): frozenset({2})}, {1, 2}, frozenset({1, 2}),
            {"outer": [1, {"inner": {1, 2}}]},
        ],
    )  # fmt: skip
    def test_data_bodies_roundtrip_with_their_types(self, body):
        decoded = load_data(dump_data(body))
        assert decoded == body and type(decoded) is type(body)

    @pytest.mark.parametrize(
        "body",
        [lambda: None, NotData(), NotData, {"in": [NotData()]}, DictSubclass(),
         3 + 4j, DeliveryMode.PERSISTENT],
        ids=["lambda", "instance", "class", "nested instance", "dict subclass",
             "complex", "enum"],
    )  # fmt: skip
    def test_what_is_not_data_is_refused(self, body):
        with pytest.raises(pickle.PicklingError, match="not data"):
            dump_data(body)

    def test_payload_naming_a_global_is_refused_unread(self):
        with pytest.raises(PersistenceError, match="names a global"):
            load_data(pickle.dumps(NotData()))

    @pytest.mark.parametrize(
        "data", [b"", b"not a pickle", dump_data({"a": 1})[:-1]],
        ids=["empty", "no pickle", "no stop"],
    )  # fmt: skip
    def test_bytes_that_are_no_pickle_are_refused(self, data):
        with pytest.raises(PersistenceError, match="undecodable"):
            load_data(data)

    def test_circular_structures_keep_their_loops(self):
        body = []
        body.append(body)
        decoded = load_data(dump_data(body))
        assert decoded[0] is decoded
        looped = {}
        looped["self"] = looped
        decoded = load_data(dump_data(looped))
        assert decoded["self"] is decoded

    def test_shared_but_acyclic_substructure_stays_shared(self):
        shared = [1, 2]
        decoded = load_data(dump_data({"a": shared, "b": shared}))
        assert decoded == {"a": [1, 2], "b": [1, 2]}
        assert decoded["a"] is decoded["b"]

    def test_bool_not_mistaken_for_int(self):
        decoded = load_data(dump_data({"flag": True, 1: 1, "n": 0}))
        assert type(decoded["flag"]) is bool
        assert type(decoded[1]) is int and type(decoded["n"]) is int


class TestMessageCodec:
    def test_full_roundtrip(self):
        message = Message(
            body={"k": "v"},
            correlation_id="corr",
            properties={"p": 1, "q": "s"},
            priority=8,
            delivery_mode=DeliveryMode.NON_PERSISTENT,
            expiry_ms=123,
            reply_to_manager="QM.X",
            reply_to_queue="R.Q",
            put_time_ms=55,
            backout_count=2,
            source_manager="QM.SRC",
        )
        restored = decode_message(encode_message(message))
        assert restored.message_id == message.message_id
        assert restored.body == message.body
        assert restored.properties == message.properties
        assert restored.priority == 8
        assert restored.delivery_mode is DeliveryMode.NON_PERSISTENT
        assert restored.expiry_ms == 123
        assert restored.reply_to_manager == "QM.X"
        assert restored.backout_count == 2
        assert restored.source_manager == "QM.SRC"

    def test_missing_field_raises(self):
        with pytest.raises(PersistenceError):
            decode_message({"body": {"kind": "raw", "data": None}})

    @pytest.mark.parametrize("body", [None, 5, {"kind": "json", "data": 1}, {"kind": "raw"}])
    def test_a_body_that_is_not_a_raw_row_body_raises(self, body):
        with pytest.raises(PersistenceError, match="holds no body"):
            decode_message({"message_id": "m1", "body": body})


class TestJournalRecovery:
    def make_manager(self, clock, journal):
        manager = QueueManager("QM.J", clock, journal=journal)
        manager.define_queue("A.Q")
        return manager

    def test_puts_recovered(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="one"))
        manager.put("A.Q", Message(body="two"))
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == ["one", "two"]

    def test_gets_not_redelivered(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="keep"))
        manager.put("A.Q", Message(body="consumed"))
        assert manager.get("A.Q").body == "keep"
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == ["consumed"]

    def test_non_persistent_messages_lost(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="volatile", delivery_mode=DeliveryMode.NON_PERSISTENT))
        manager.put("A.Q", Message(body="durable"))
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == ["durable"]

    def test_inflight_transaction_presumed_aborted(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="locked"))
        tx = manager.begin()
        manager.get("A.Q", transaction=tx)
        manager.put("A.Q", Message(body="uncommitted"), transaction=tx)
        # Crash before commit: recover from the journal as-is.
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == ["locked"]

    def test_committed_transaction_survives(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="job"))
        manager.define_queue("B.Q")
        tx = manager.begin()
        manager.get("A.Q", transaction=tx)
        manager.put("B.Q", Message(body="result"), transaction=tx)
        tx.commit()
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert list(recovered.browse("A.Q")) == []
        assert [m.body for m in recovered.browse("B.Q")] == ["result"]

    def test_deleted_queue_not_recovered(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="gone"))
        manager.delete_queue("A.Q")
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert not recovered.has_queue("A.Q")

    def test_checkpoint_compacts_but_preserves_state(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        for i in range(20):
            manager.put("A.Q", Message(body=i))
        for _ in range(15):
            manager.get("A.Q")
        size_before = journal.size()
        manager.checkpoint()
        assert journal.size() < size_before
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == [15, 16, 17, 18, 19]

    def test_recover_is_repeatable(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put("A.Q", Message(body="x"))
        first = QueueManager.recover("QM.J", clock, journal)
        second = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in first.browse("A.Q")] == ["x"]
        assert [m.body for m in second.browse("A.Q")] == ["x"]

    def test_corrupt_journal_op_raises(self, clock):
        journal = MemoryJournal()
        journal.append({"op": "mystery"})
        with pytest.raises(PersistenceError):
            journal.recover()

    @pytest.mark.parametrize(
        "broken",
        [
            {"op": "put", "queue": "A.Q", "message_id": "m1"},  # no message
            {"op": "put", "queue": "A.Q", "message": {"body": {"kind": "json", "data": 1}}},
            {"op": "put", "message": {"message_id": "m1"}},  # no queue
            {"op": "get", "queue": "A.Q"},  # names no message
        ],
    )
    def test_structurally_broken_record_refuses_recovery_even_when_dead(self, broken):
        # The fold skips decoding puts a later get removes, but never the
        # structural check: a record it cannot place is corruption.
        journal = MemoryJournal()
        journal.append({"op": "define", "queue": "A.Q"})
        journal.append(broken)
        journal.append({"op": "get", "queue": "A.Q", "message_id": "m1"})
        with pytest.raises(PersistenceError):
            journal.recover()

    def test_only_surviving_puts_are_validated(self):
        # A consumed put is history: its message fields are not decoded,
        # so a field only Message validation would reject cannot stop a
        # restart once the message is gone.  Live, it still does.
        dead = encode_message(Message(body="x", message_id="m1"))
        dead["priority"] = 99
        journal = MemoryJournal()
        journal.append({"op": "put", "queue": "A.Q", "message": dead})
        with pytest.raises(MQError, match="priority"):
            journal.recover()
        journal.append({"op": "get", "queue": "A.Q", "message_id": "m1"})
        assert journal.recover() == (["A.Q"], {"A.Q": []})


class TestFileJournal:
    def test_roundtrip_on_disk(self, clock, tmp_path):
        path = str(tmp_path / "qm.journal")
        journal = FileJournal(path)
        manager = QueueManager("QM.F", clock, journal=journal)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body={"payload": [1, 2]}))
        manager.get("A.Q")
        manager.put("A.Q", Message(body="second"))
        # Simulate a restart: a fresh journal object over the same file.
        recovered = QueueManager.recover("QM.F", clock, FileJournal(path))
        assert [m.body for m in recovered.browse("A.Q")] == ["second"]

    def test_checkpoint_rewrites_file(self, clock, tmp_path):
        path = str(tmp_path / "qm.journal")
        journal = FileJournal(path)
        manager = QueueManager("QM.F", clock, journal=journal)
        manager.define_queue("A.Q")
        for i in range(10):
            manager.put("A.Q", Message(body=i))
        manager.checkpoint()
        # snapshot-begin + defines for A.Q and the (empty) dead-letter
        # queue + 10 puts + snapshot-end, in one run frame
        records = FileJournal(path).read_all()
        assert journal.size() == len(records) == 14
        assert records[0]["op"] == "snapshot-begin"

    def test_corrupt_trailing_frame_skipped_and_counted(self, tmp_path):
        # A torn FINAL frame is a torn write from a crash mid-append:
        # recovery skips it, counts it, and keeps everything before it.
        path = str(tmp_path / "torn.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q", "config": {}})
        with open(path, "ab") as f:
            f.write(torn({"op": "put", "queue": "A.Q", "message": {}}))
        reread = FileJournal(path)
        records = reread.read_all()
        assert [r["op"] for r in records] == ["define"]
        assert reread.skipped_trailing_records == 1

    @pytest.mark.parametrize("garbage", [b"{not a frame}\n", b"\x00" * 16])
    def test_bytes_that_start_no_frame_are_corruption_not_a_tail(self, garbage, tmp_path):
        # A torn write leaves a prefix of a frame; bytes that start none are
        # damage.  Before valid records, recovering past them would drop
        # acknowledged state; at the end they are not a crash artefact
        # either.  Either way: refuse, never heal them away.
        path = str(tmp_path / "bad.journal")
        define = BinaryRecordCodec().encode_record({"op": "define", "queue": "A.Q"})
        for content in (garbage + define, define + garbage):
            with open(path, "wb") as f:
                f.write(content)
            opened = FileJournal(path)  # tolerant: refusing is read_all's job
            assert opened.skipped_trailing_records == 0
            with pytest.raises(PersistenceError):
                opened.read_all()
            opened.close()
            assert os.path.getsize(path) == len(content)

    @pytest.mark.parametrize(
        "payload",
        [dump_data(5), dump_data([1, 2]), dump_data(("put",)),
         dump_data({"op": "define"}) + b"\xff", b"\xff\xfe not a pickle",
         pickle.dumps(NotData())],
        ids=["int", "list", "short row", "trailing byte", "no pickle", "global"],
    )  # fmt: skip
    def test_frames_that_hold_no_records_are_corruption(self, payload, tmp_path):
        # The frame's CRC matches, so it is no torn write: a typed refusal
        # by read_all wherever it sits, and nothing healed away at open.
        path = str(tmp_path / "hostile.journal")
        bad = struct.pack("<BII", 0xB1, len(payload), zlib.crc32(payload)) + payload
        define = BinaryRecordCodec().encode_record({"op": "define", "queue": "A.Q"})
        for content in (bad + define, define + bad):
            with open(path, "wb") as f:
                f.write(content)
            opened = FileJournal(path)  # tolerant: refusing is read_all's job
            assert opened.skipped_trailing_records == 0
            with pytest.raises(PersistenceError):
                opened.read_all()
            opened.close()
            assert os.path.getsize(path) == len(content)


class TestCommitGroupAtomicity:
    """A multi-record commit group is one physical frame: a torn write can
    never persist an intact prefix of the group, so group replay really is
    all-or-nothing."""

    def put_record(self, body):
        return {
            "op": "put",
            "queue": "A.Q",
            "message": encode_message(Message(body=body)),
        }

    def test_group_is_one_frame_but_logical_records(self, tmp_path):
        path = str(tmp_path / "g.journal")
        journal = FileJournal(path)
        journal.append_many([self.put_record(i) for i in range(5)])
        assert len(journal.read_all()) == 5
        assert journal.size() == 5
        with open(path, "rb") as f:
            data = f.read()
        # one header whose length is the rest of the file
        assert int.from_bytes(data[1:5], "little") == len(data) - 9

    def test_torn_group_drops_whole_group_not_a_prefix(self, tmp_path):
        path = str(tmp_path / "torn-group.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.append_many([self.put_record(i) for i in range(3)])
        journal.close()
        # Tear the group's write: chop bytes off the end of the file.
        with open(path, "rb+") as f:
            f.truncate(os.path.getsize(path) - 10)
        reread = FileJournal(path)
        records = reread.read_all()
        # None of the group's puts replay — not the intact-looking prefix.
        assert [r["op"] for r in records] == ["define"]
        assert reread.skipped_trailing_records == 1

    def test_torn_syncpoint_commit_presumed_aborted(self, clock, tmp_path):
        # The scenario the group marker exists for: a syncpoint move
        # journals its gets+puts as one group.  If a torn write could
        # keep the 'get' removals but lose the matching 'put', recovery
        # would lose the transactionally-moved message.  With the
        # single-frame group, the torn commit vanishes atomically and the
        # move is presumed aborted: the message is back on its source
        # queue, not gone.
        path = str(tmp_path / "tx.journal")
        journal = FileJournal(path)
        manager = QueueManager("QM.T", clock, journal=journal)
        manager.define_queue("A.Q")
        manager.define_queue("B.Q")
        manager.put("A.Q", Message(body="move"))
        tx = manager.begin()
        manager.get("A.Q", transaction=tx)
        manager.put("B.Q", Message(body="moved"), transaction=tx)
        tx.commit()
        journal.close()
        with open(path, "rb+") as f:
            f.truncate(os.path.getsize(path) - 5)
        recovered = QueueManager.recover("QM.T", clock, FileJournal(path))
        assert [m.body for m in recovered.browse("A.Q")] == ["move"]
        assert list(recovered.browse("B.Q")) == []

    def test_memory_journal_expands_groups(self):
        journal = MemoryJournal()
        journal.append_many([self.put_record(i) for i in range(4)])
        assert [r["op"] for r in journal.read_all()] == ["put"] * 4
        assert journal.size() == 4


class TestHealOnOpen:
    """Opening an existing log truncates a torn final frame, so appends can
    never concatenate onto torn bytes and corrupt a new record."""

    def test_append_after_torn_tail_does_not_corrupt(self, tmp_path):
        path = str(tmp_path / "heal.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.close()
        with open(path, "ab") as f:
            f.write(torn({"op": "put", "queue": "A.Q", "message": {}}))
        healed = FileJournal(path)
        assert healed.skipped_trailing_records == 1
        healed.append({"op": "define", "queue": "B.Q"})
        records = healed.read_all()
        # The new record starts a frame of its own — old records intact, no
        # mid-file corruption, torn record still reported as skipped.
        assert [r["queue"] for r in records] == ["A.Q", "B.Q"]
        assert healed.skipped_trailing_records == 1

    def test_size_counts_only_intact_records_after_heal(self, tmp_path):
        path = str(tmp_path / "sizes.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.append({"op": "define", "queue": "B.Q"})
        journal.close()
        with open(path, "ab") as f:
            f.write(torn({"op": "define", "queue": "C.Q"}))
        healed = FileJournal(path)
        assert healed.size() == 2

    def test_torn_first_frame_heals_to_empty(self, tmp_path):
        path = str(tmp_path / "all-torn.journal")
        with open(path, "wb") as f:
            f.write(torn({"op": "define", "queue": "A.Q"}))  # first-ever append tore
        healed = FileJournal(path)
        assert healed.size() == 0
        assert healed.read_all() == []
        assert healed.skipped_trailing_records == 1

    def test_checkpoint_clears_healed_count(self, clock, tmp_path):
        path = str(tmp_path / "ckpt.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.close()
        with open(path, "ab") as f:
            f.write(torn({"op": "define", "queue": "B.Q"}))
        healed = FileJournal(path)
        assert healed.skipped_trailing_records == 1
        healed.checkpoint({"A.Q": []})
        healed.read_all()
        # The rewritten log no longer contains the healed torn tail.
        assert healed.skipped_trailing_records == 0


class TestSnapshotRuns:
    """A checkpoint writes its snapshot as run frames of
    ``SNAPSHOT_RUN_RECORDS`` records, each through one memo: what the
    records of a run share is written once, and the log reads back as the
    same queues."""

    SHARED = {"payload": "S" * 400, "tags": ["a", "b"]}
    BODIES = [(1, "two", (3.0,)), b"\x00\xffraw", {1, 2, 3}, frozenset({"x"}), None]

    def fill(self, manager):
        """Messages of many queues, most holding one shared body object."""
        for q in range(5):
            manager.define_queue(f"Q.{q}")
        for n in range(2 * SNAPSHOT_RUN_RECORDS + 300):
            body = self.SHARED if n % 4 else self.BODIES[n // 4 % len(self.BODIES)]
            message = Message(body=body, priority=n % 10).with_properties(n=n)
            manager.put(f"Q.{n % 5}", message)
        return {
            name: [(m.message_id, m.body, m.priority, m.properties) for m in manager.browse(name)]
            for name in manager.queue_names()
        }

    def snapshot_of(self, manager):
        journal = manager.journal
        manager.checkpoint()
        if isinstance(journal, FileJournal):
            with open(journal.path, "rb") as handle:
                return handle.read()
        return b"".join(journal._frames)

    def per_record_frames(self, journal):
        codec = BinaryRecordCodec()
        return sum(len(codec.encode_record(r)) for r in journal.read_all())

    @pytest.mark.parametrize("store", ["memory", "binfile"])
    def test_snapshot_is_memo_shared_runs_that_read_back_the_same_queues(
        self, store, clock, tmp_path
    ):
        path = str(tmp_path / "snap.journal")
        journal = MemoryJournal() if store == "memory" else FileJournal(path, sync="none")
        manager = QueueManager("QM.S", clock, journal=journal)
        expected = self.fill(manager)
        data = self.snapshot_of(manager)
        records = journal.read_all()
        written = 2 + len(expected) + sum(len(v) for v in expected.values())
        assert journal.size() == len(records) == written == journal.snapshot_records
        # One run frame per SNAPSHOT_RUN_RECORDS records, nothing else.
        offset, runs = 0, 0
        while offset < len(data):
            magic, length, _crc = struct.unpack_from("<BII", data, offset)
            assert magic == 0xB1
            offset += 9 + length
            runs += 1
        assert runs == -(-written // SNAPSHOT_RUN_RECORDS) >= 3
        # The shared body is written once per run, not once per message.
        assert data.count(b"S" * 400) == runs
        assert len(data) < self.per_record_frames(journal) / 2
        reopened = FileJournal(path) if store == "binfile" else journal
        recovered = QueueManager.recover("QM.S", clock, reopened)
        assert {
            name: [(m.message_id, m.body, m.priority, m.properties) for m in recovered.browse(name)]
            for name in recovered.queue_names()
        } == expected
        bodies = {type(m.body) for name in expected for m in recovered.browse(name)}
        assert {tuple, bytes, set, frozenset, dict, type(None)} <= bodies
        reopened.close()

    def test_a_snapshot_that_fills_runs_exactly_ends_on_a_run(self, clock):
        journal = MemoryJournal()
        journal.checkpoint({"A.Q": [Message(body=n) for n in range(SNAPSHOT_RUN_RECORDS - 3)]})
        # begin, define, the puts, end: exactly one run
        assert (len(journal._frames), journal.size()) == (1, SNAPSHOT_RUN_RECORDS)
        journal.checkpoint({"A.Q": [Message(body=n) for n in range(SNAPSHOT_RUN_RECORDS - 2)]})
        assert (len(journal._frames), journal.size()) == (2, SNAPSHOT_RUN_RECORDS + 1)
        assert len(journal.read_all()) == SNAPSHOT_RUN_RECORDS + 1

    def test_a_refused_snapshot_leaves_the_log_as_it_was(self, clock):
        journal = MemoryJournal()
        manager = QueueManager("QM.S", clock, journal=journal)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body=1))
        before = list(journal._frames)
        with pytest.raises(PersistenceError):
            journal.checkpoint({"A.Q": [Message(body=1), Message(body=NotData())]})
        assert journal._frames == before and journal.size() == 2
