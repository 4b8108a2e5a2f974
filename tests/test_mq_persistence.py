"""Unit tests for journaling, checkpointing, and crash recovery."""

import os

import pytest

from repro.errors import MQError, PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import (
    FileJournal,
    MemoryJournal,
    decode_body,
    decode_message,
    encode_body,
    encode_message,
)


class NotData:
    """Picklable by reference, and still not something a journal carries."""


class TestBodyCodec:
    """JSON documents carry a body natively when JSON returns it unchanged,
    as a base64 data-only pickle when it is other plain data, and not at
    all when it is anything else."""

    @pytest.mark.parametrize(
        "body",
        [None, 42, 1.5, "text", [1, 2, 3], {"nested": {"ok": True}}],
    )
    def test_json_bodies_roundtrip(self, body):
        assert decode_body(encode_body(body)) == body

    def test_json_bodies_stored_natively(self):
        assert encode_body({"a": 1})["kind"] == "json"

    @pytest.mark.parametrize(
        "body",
        [
            frozenset({1, 2}),
            (1, 2),                           # JSON would hand back a list
            b"\x00\xff",
            {1: "one"},                       # JSON would hand back {"1": ...}
            {"outer": [1, {"inner": {1, 2}}]},  # the probe walks containers
        ],
    )
    def test_data_json_cannot_return_unchanged_is_pickled_data_only(self, body):
        record = encode_body(body)
        assert record["kind"] == "pickle"
        decoded = decode_body(record)
        assert decoded == body and type(decoded) is type(body)

    @pytest.mark.parametrize("body", [lambda: None, NotData(), NotData, {"in": [NotData()]}])
    def test_what_is_not_data_is_refused(self, body):
        with pytest.raises(PersistenceError, match="not journalable"):
            encode_body(body)

    def test_pickle_labelled_body_naming_a_global_is_refused_unread(self):
        import base64
        import pickle

        blob = base64.b64encode(pickle.dumps(NotData())).decode("ascii")
        with pytest.raises(PersistenceError, match="names a global"):
            decode_body({"kind": "pickle", "data": blob})

    def test_unknown_encoding_rejected(self):
        with pytest.raises(PersistenceError):
            decode_body({"kind": "alien", "data": ""})

    def test_probe_handles_circular_structures(self):
        # json.dumps raises ValueError on cycles; the probe must detect
        # them (not recurse forever) and fall through to the data-only
        # pickle, which handles cycles fine.
        body = []
        body.append(body)
        record = encode_body(body)
        assert record["kind"] == "pickle"
        decoded = decode_body(record)
        assert decoded[0] is decoded
        looped = {}
        looped["self"] = looped
        assert encode_body(looped)["kind"] == "pickle"

    def test_probe_allows_shared_but_acyclic_substructure(self):
        # The same sub-list referenced twice is NOT a cycle; it must stay
        # on the readable JSON path.
        shared = [1, 2]
        record = encode_body({"a": shared, "b": shared})
        assert record["kind"] == "json"

    def test_bool_not_mistaken_for_int(self):
        record = encode_body({"flag": True})
        assert record["kind"] == "json"
        assert decode_body(record) == {"flag": True}


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
            decode_message({"body": {"kind": "json", "data": None}})


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
        lines = [l for l in open(path, encoding="utf-8") if l.strip()]
        # snapshot-begin + defines for A.Q and the (empty) dead-letter
        # queue + 10 puts + snapshot-end
        assert len(lines) == 14

    def test_corrupt_trailing_line_skipped_and_counted(self, tmp_path):
        # A corrupt FINAL line is a torn write from a crash mid-append:
        # recovery skips it, counts it, and keeps everything before it.
        path = str(tmp_path / "torn.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q", "config": {}})
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"op": "put", "queue": "A.Q", "mess')  # torn record
        reread = FileJournal(path)
        records = reread.read_all()
        assert [r["op"] for r in records] == ["define"]
        assert reread.skipped_trailing_records == 1

    def test_corrupt_mid_file_line_raises(self, tmp_path):
        # Corruption BEFORE valid records is not a torn tail — recovering
        # past it would silently drop acknowledged state, so refuse.
        path = str(tmp_path / "bad.journal")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json}\n")
            f.write('{"op": "define", "queue": "A.Q", "config": {}}\n')
        with pytest.raises(PersistenceError):
            FileJournal(path).read_all()


    @pytest.mark.parametrize(
        "line",
        [b"[1, 2]", b"5", b'{"op": "group", "records": 5}',
         b'{"op": "group", "records": [1]}', b"\xff\xfe not utf-8",
         pytest.param(b'{"a":' + b"[" * 200000 + b"]" * 200000 + b"}",
                      id="nested past the parser stack")],
    )
    def test_lines_that_are_not_records_are_corruption(self, line, tmp_path):
        # The open scan decodes, so hostile bytes must cost it nothing
        # worse than they cost read_all: a typed refusal mid-file, a
        # healed tail at the end.
        path = str(tmp_path / "hostile.journal")
        define = b'{"op": "define", "queue": "A.Q"}\n'
        with open(path, "wb") as f:
            f.write(line + b"\n" + define)
        opened = FileJournal(path)  # tolerant: refusing is read_all's job
        with pytest.raises(PersistenceError):
            opened.read_all()
        opened.close()
        with open(path, "wb") as f:
            f.write(define + line + b"\n")
        healed = FileJournal(path)
        assert healed.skipped_trailing_records == 1
        assert healed.read_all() == [{"op": "define", "queue": "A.Q"}]
        healed.close()


class TestCommitGroupAtomicity:
    """A multi-record commit group is one physical line: a torn write can
    never persist an intact prefix of the group, so group replay really is
    all-or-nothing."""

    def put_record(self, body):
        return {
            "op": "put",
            "queue": "A.Q",
            "message": encode_message(Message(body=body)),
        }

    def test_group_is_one_line_but_logical_records(self, tmp_path):
        path = str(tmp_path / "g.journal")
        journal = FileJournal(path)
        journal.append_many([self.put_record(i) for i in range(5)])
        assert len(journal.read_all()) == 5
        assert journal.size() == 5
        with open(path, encoding="utf-8") as f:
            assert len([l for l in f if l.strip()]) == 1

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
        # single-line group, the torn commit vanishes atomically and the
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
    """Opening an existing log truncates a torn final line, so appends can
    never concatenate onto torn text and corrupt a new record."""

    def test_append_after_torn_tail_does_not_corrupt(self, tmp_path):
        path = str(tmp_path / "heal.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"op": "put", "queue": "A.Q", "mess')  # torn, no newline
        healed = FileJournal(path)
        assert healed.skipped_trailing_records == 1
        healed.append({"op": "define", "queue": "B.Q"})
        records = healed.read_all()
        # The new record starts on its own line — old records intact, no
        # mid-file corruption, torn record still reported as skipped.
        assert [r["queue"] for r in records] == ["A.Q", "B.Q"]
        assert healed.skipped_trailing_records == 1

    def test_size_counts_only_intact_records_after_heal(self, tmp_path):
        path = str(tmp_path / "sizes.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.append({"op": "define", "queue": "B.Q"})
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write("garbage-without-newline")
        healed = FileJournal(path)
        assert healed.size() == 2

    def test_torn_tail_with_no_newline_at_all_heals_to_empty(self, tmp_path):
        path = str(tmp_path / "all-torn.journal")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"op": "def')  # first-ever append tore
        healed = FileJournal(path)
        assert healed.size() == 0
        assert healed.read_all() == []
        assert healed.skipped_trailing_records == 1

    def test_checkpoint_clears_healed_count(self, clock, tmp_path):
        path = str(tmp_path / "ckpt.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write("torn")
        healed = FileJournal(path)
        assert healed.skipped_trailing_records == 1
        healed.checkpoint({"A.Q": []})
        healed.read_all()
        # The rewritten log no longer contains the healed torn tail.
        assert healed.skipped_trailing_records == 0
