"""The durable stores behind one scheme table: a conformance suite every
scheme of ``JOURNAL_SCHEMES`` passes, URL parsing (`journal_for` /
`journal_factory_for`), and post-commit hook lifetime across aborted
commit groups."""

import base64
import json
import pickle
import sqlite3
import struct
import zlib
from contextlib import nullcontext

import pytest

from repro.errors import PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import (
    JOURNAL_SCHEMES,
    BinaryRecordCodec,
    FileJournal,
    MemoryJournal,
    expand_row,
    journal_factory_for,
    journal_for,
    put_row,
)
from repro.mq.sqlstore import SqlQueueStore
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import SimulatedClock

SCHEMES = sorted(JOURNAL_SCHEMES)
#: schemes whose store lives at a path (everything but ``memory``)
PATH_SCHEMES = [s for s in SCHEMES if JOURNAL_SCHEMES[s][2]]
#: schemes that keep a replay log (everything but ``sqlstore``)
LOG_SCHEMES = [s for s in SCHEMES if s != "sqlstore"]


def encode_message(message):
    """The dict form of a message, as a put record carries it."""
    return expand_row(put_row("", message))["message"]


@pytest.fixture
def clock():
    return SimulatedClock()


class SimulatedCrash(BaseException):
    """Stands in for repro.chaos.faults.CrashPoint (BaseException, too)."""


def open_store(scheme, tmp_path, **kwargs):
    return journal_factory_for(scheme, str(tmp_path), **kwargs)("QM.S")


def durable(manager):
    return manager.journal or manager.store


def restart(scheme, tmp_path, clock, manager):
    """Crash ``manager`` and recover it the way a new process would: a
    fresh store object over the same path (``memory`` has no path, so its
    surviving journal object *is* the restart)."""
    store = durable(manager)
    if scheme in PATH_SCHEMES:
        store.close()
        store = open_store(scheme, tmp_path)
    return QueueManager.recover("QM.S", clock, store)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestStoreConformance:
    """What the conditional-messaging layer needs of a store, checked on
    every scheme the table offers."""

    def test_roundtrip_across_restart(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body={"k": 1}))
        manager.put("A.Q", Message(body="two", priority=7))
        manager.get("A.Q")  # removes priority-7 "two" first
        recovered = restart(scheme, tmp_path, clock, manager)
        assert [m.body for m in recovered.browse("A.Q")] == [{"k": 1}]
        durable(recovered).close()

    def test_non_persistent_messages_across_restart(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body="kept"))
        manager.put(
            "A.Q", Message(body="volatile", delivery_mode=DeliveryMode.NON_PERSISTENT)
        )
        recovered = restart(scheme, tmp_path, clock, manager)
        bodies = [m.body for m in recovered.browse("A.Q")]
        if scheme == "sqlstore":
            # The one legitimate difference: the database outlives the
            # manager, so nothing stored in it is lost with the manager.
            assert bodies == ["kept", "volatile"]
        else:
            assert bodies == ["kept"]
        durable(recovered).close()

    def test_commit_group_is_one_flush(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        store = durable(manager)
        before = store.flush_count
        with manager.group_commit():
            for i in range(5):
                manager.put("A.Q", Message(body=i))
        assert store.flush_count - before == 1
        store.close()

    def test_pre_flush_crash_loses_whole_group(self, scheme, clock, tmp_path):
        store = open_store(scheme, tmp_path, sync="none")
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")

        def boom(record_count):
            raise SimulatedCrash()

        store.on_pre_flush = boom
        with pytest.raises(SimulatedCrash):
            with manager.group_commit():
                manager.put("A.Q", Message(body="x"))
                manager.put("A.Q", Message(body="y"))
        store.on_pre_flush = None
        recovered = QueueManager.recover("QM.S", clock, store)
        assert list(recovered.browse("A.Q")) == []
        store.close()

    def test_post_flush_crash_keeps_whole_group(self, scheme, clock, tmp_path):
        store = open_store(scheme, tmp_path, sync="none")
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")

        def boom(record_count):
            raise SimulatedCrash()

        store.on_post_flush = boom
        with pytest.raises(SimulatedCrash):
            with manager.group_commit():
                manager.put("A.Q", Message(body="x"))
                manager.put("A.Q", Message(body="y"))
        store.on_post_flush = None
        recovered = QueueManager.recover("QM.S", clock, store)
        assert sorted(m.body for m in recovered.browse("A.Q")) == ["x", "y"]
        store.close()

    def test_metrics_reported(self, scheme, clock, tmp_path):
        # Regression (sqlstore): the store called MetricsRegistry.inc,
        # which does not exist, and died on its first commit.
        metrics = MetricsRegistry()
        manager = QueueManager(
            "QM.S", clock, journal=open_store(scheme, tmp_path), metrics=metrics
        )
        manager.define_queue("A.Q")
        store = durable(manager)
        flushes = metrics.counter("journal.flushes")
        records = metrics.counter("journal.records")
        written = store.records_written
        with manager.group_commit():
            manager.put("A.Q", Message(body=1))
            manager.put("A.Q", Message(body=2))
        assert metrics.counter("journal.flushes") - flushes == 1
        # One record per put on every scheme (the SQL store's row insert),
        # and the registry agrees with the store's own counter.
        assert store.records_written - written == 2
        assert metrics.counter("journal.records") - records == (
            store.records_written - written
        )
        store.close()

    def test_close_is_idempotent(self, scheme, tmp_path):
        store = open_store(scheme, tmp_path, sync="batch")
        if scheme in PATH_SCHEMES:
            store.sync()
        store.close()
        store.close()  # second close must not raise


class Opaque:
    """Picklable, and exactly what a journal must not carry: not data."""


#: a record that is not a put, carrying what is not data
GENERIC_RECORD = {"op": "define", "queue": "Q", "v": object()}

#: what a body may be built from — each comes back equal, with its type
DATA_BODIES = [
    (1, ("two", None)),
    {1, 2},
    frozenset({"a"}),
    b"\x00\xffraw",
    {1: "one", (2, 3): [4.5, True]},
    {"blob": bytearray(b"b"), "pair": (1, 2), "tags": {"a", "b"}, "n": 1 << 70},
]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestClosedValueSet:
    """One rule on every scheme: a body built from dict / list / tuple /
    set / str / bytes / numbers / bool / None round-trips; anything else
    is refused at the put, before anything is written."""

    def test_data_only_bodies_round_trip_with_their_types(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        for body in DATA_BODIES:
            manager.put("A.Q", Message(body=body))
        recovered = restart(scheme, tmp_path, clock, manager)
        restored = [m.body for m in recovered.browse("A.Q")]
        assert restored == DATA_BODIES
        assert [type(b) for b in restored] == [type(b) for b in DATA_BODIES]
        assert type(restored[0][1]) is tuple and type(restored[5]["pair"]) is tuple
        durable(recovered).close()

    @pytest.mark.parametrize(
        "body",
        [Opaque(), Opaque, lambda: None, DeliveryMode.PERSISTENT, {"deep": [Opaque()]},
         GENERIC_RECORD],
        ids=["instance", "class", "lambda", "enum", "nested instance", "generic record"],
    )
    def test_what_is_not_data_is_refused_at_the_put(self, scheme, body, clock, tmp_path):
        if body is GENERIC_RECORD and scheme not in LOG_SCHEMES:
            pytest.skip("no record log to append to")
        store = open_store(scheme, tmp_path)
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body="kept"))
        written = (store.records_written, store.flush_count)
        for scope in (nullcontext, manager.group_commit):
            with scope():
                with pytest.raises(PersistenceError):
                    if body is GENERIC_RECORD:
                        store.append(body)
                    else:
                        manager.put("A.Q", Message(body=body))
            # nothing of the refused call was staged: nothing to write
            assert (store.records_written, store.flush_count) == written
        manager.put("A.Q", Message(body="and the store still works"))
        recovered = restart(scheme, tmp_path, clock, manager)
        assert [m.body for m in recovered.browse("A.Q")] == [
            "kept", "and the store still works"
        ]
        durable(recovered).close()


#: appended to when (and only when) something unpickles an :class:`Exploit`
PWNED = []


def pwn():
    PWNED.append("unpickled")


class Exploit:
    def __reduce__(self):
        return (pwn, ())  # by reference: a bound ``PWNED.append`` would pickle a copy


class TestNoStoreCanMakeARestartRunCode:
    """Whatever bytes a local store holds, reading them back resolves no
    global and calls nothing (``tests/test_net_wire.py`` pins the same for
    the wire): the tampered record is a ``PersistenceError``."""

    def crashed(self, scheme, clock, tmp_path):
        store = open_store(scheme, tmp_path)
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body="honest"))
        store.close()
        del PWNED[:]
        return store.path

    def test_binfile_frame_with_a_valid_crc_over_a_global(self, clock, tmp_path):
        path = self.crashed("binfile", clock, tmp_path)
        payload = pickle.dumps(Exploit())
        with open(path, "ab") as handle:
            handle.write(struct.pack("<BII", 0xB1, len(payload), zlib.crc32(payload)))
            handle.write(payload)
        with pytest.raises(PersistenceError):
            QueueManager.recover("QM.S", clock, open_store("binfile", tmp_path))
        assert PWNED == []

    def refused_at_first_read(self, clock, tmp_path, tamper):
        """Replace the stored row's ``encoded`` column with
        ``tamper(honest value)``; the restarted store must refuse it."""
        path = self.crashed("sqlstore", clock, tmp_path)
        with sqlite3.connect(path) as con:
            (honest,) = con.execute("SELECT encoded FROM messages").fetchone()
            assert con.execute(
                "UPDATE messages SET encoded = ?", (tamper(honest),)
            ).rowcount == 1
        con.close()
        # Opening the database is the whole restart (rows are not replayed),
        # so the refusal comes where the row is first read.
        recovered = QueueManager.recover("QM.S", clock, open_store("sqlstore", tmp_path))
        with pytest.raises(PersistenceError):
            recovered.get("A.Q")
        with pytest.raises(PersistenceError):
            recovered.store.recover()
        assert PWNED == []
        recovered.store.close()

    def test_sqlstore_row_starting_with_p(self, clock, tmp_path):
        blob = base64.b64encode(pickle.dumps(Exploit())).decode("ascii")
        self.refused_at_first_read(clock, tmp_path, lambda _honest: "P" + blob)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda _honest: pickle.dumps(Exploit()),
            lambda honest: honest[: len(honest) // 2],
            lambda _honest: json.dumps(encode_message(Message(body="honest"))),
        ],
        ids=["pickle naming a global", "truncated row", "json document row"],
    )
    def test_sqlstore_row_that_is_not_a_data_only_put_row(self, tamper, clock, tmp_path):
        self.refused_at_first_read(clock, tmp_path, tamper)


@pytest.mark.parametrize("scheme", LOG_SCHEMES)
def test_auto_compaction(scheme, clock, tmp_path):
    journal = open_store(scheme, tmp_path, compaction_threshold=20)
    manager = QueueManager("QM.S", clock, journal=journal)
    manager.define_queue("A.Q")
    for i in range(40):
        manager.put("A.Q", Message(body=i))
    assert journal.rewrites >= 1
    assert journal.size() < 50
    recovered = QueueManager.recover("QM.S", clock, journal)
    assert len(list(recovered.browse("A.Q"))) == 40
    journal.close()


def log_bytes(store):
    """The log exactly as stored: file content, or the memory frames."""
    if isinstance(store, MemoryJournal):
        return b"".join(store._frames)
    with open(store.path, "rb") as handle:
        return handle.read()


def all_fields(manager):
    """Every queue's messages, in delivery order, with every field."""
    return {
        name: [encode_message(m) for m in manager.browse(name)]
        for name in manager.queue_names()
    }


TORN_PUT = {"op": "put", "queue": "A.Q", "message": encode_message(Message(body="torn"))}


def corrupt_crc_frame(_codec):
    frame = bytearray(BinaryRecordCodec().encode_record(TORN_PUT))
    frame[-1] ^= 0xFF
    return bytes(frame)


#: what a crash mid-append can leave at the end of a log: codec -> bytes
BAD_TAILS = {
    "truncated frame": lambda codec: codec.encode_record(TORN_PUT)[:-4],
    "wrong CRC at end of file": corrupt_crc_frame,
}


@pytest.mark.parametrize("scheme", LOG_SCHEMES)
class TestRestartPolicy:
    """A restart costs what is live: it rewrites the log only when at
    least half of it is dead or its tail needed healing, and a bad tail is
    healed by the pass that finds it."""

    def crash_with_tail(self, scheme, tmp_path, clock, tail):
        """Five journaled puts, then ``tail`` torn onto the end of the log."""
        store = open_store(scheme, tmp_path)
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")
        for i in range(5):
            manager.put("A.Q", Message(body=i))
        raw = BAD_TAILS[tail](store.codec)
        if scheme in PATH_SCHEMES:
            store.close()
            with open(store.path, "ab") as handle:
                handle.write(raw)
        else:
            store._frames.append(raw)
        return manager

    @pytest.mark.parametrize("tail", sorted(BAD_TAILS))
    def test_bad_tail_is_healed_by_the_pass_that_finds_it(
        self, scheme, tail, clock, tmp_path
    ):
        manager = self.crash_with_tail(scheme, tmp_path, clock, tail)
        store = durable(manager)
        if scheme in PATH_SCHEMES:
            store = open_store(scheme, tmp_path)
        before = store.read_all()
        assert len(before) == 6 and store.skipped_trailing_records == 1
        # An append now must not land behind the bad bytes: that would be
        # mid-log corruption, which the next read refuses.
        store.append({"op": "define", "queue": "B.Q"})
        assert store.read_all() == before + [{"op": "define", "queue": "B.Q"}]
        assert store.size() == 7
        store.close()

    @pytest.mark.parametrize("tail", sorted(BAD_TAILS))
    def test_restart_append_restart_after_a_bad_tail(
        self, scheme, tail, clock, tmp_path
    ):
        manager = self.crash_with_tail(scheme, tmp_path, clock, tail)
        first = restart(scheme, tmp_path, clock, manager)
        assert durable(first).skipped_trailing_records == 1
        assert durable(first).recover_compacted == 1  # healing rewrites
        first.put("A.Q", Message(body=5))
        second = restart(scheme, tmp_path, clock, first)
        assert [m.body for m in second.browse("A.Q")] == [0, 1, 2, 3, 4, 5]
        assert durable(second).skipped_trailing_records == 0  # reported once
        durable(second).close()

    def test_restart_leaves_an_all_live_log_as_found(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        manager.define_queue("B.Q")
        for i in range(4):
            manager.put("A.Q", Message(body=i, priority=i % 3))
        manager.checkpoint()
        for i in range(6):
            manager.put(
                "B.Q" if i % 2 else "A.Q",
                Message(body={"n": i}, correlation_id=f"c{i}", priority=i % 4)
                .with_properties(kind="k", n=i),
            )
        expected = all_fields(manager)
        found = log_bytes(durable(manager))
        # The explicit checkpoint above, on the surviving memory object.
        rewrites = 1 if scheme == "memory" else 0
        first = restart(scheme, tmp_path, clock, manager)
        store = durable(first)
        assert (store.rewrites, store.recover_compacted) == (rewrites, 0)
        assert (store.recover_records, store.recover_live) == (store.size(), 10)
        assert log_bytes(store) == found
        assert all_fields(first) == expected
        second = restart(scheme, tmp_path, clock, first)
        assert durable(second).rewrites == rewrites
        assert log_bytes(durable(second)) == found
        assert all_fields(second) == expected
        durable(second).close()

    def test_restart_compacts_a_log_at_least_half_dead(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        for i in range(10):
            manager.put("A.Q", Message(body=i))
        for _ in range(8):
            manager.get("A.Q")
        assert durable(manager).size() == 19  # define + 10 puts + 8 gets
        recovered = restart(scheme, tmp_path, clock, manager)
        store = durable(recovered)
        assert store.recover_compacted == 1
        assert (store.recover_records, store.recover_live) == (19, 2)
        # Two markers, a define per queue (A.Q and the dead-letter queue),
        # a put per live message: what a checkpoint writes.
        assert store.size() == 2 + len(recovered.queue_names()) + 2 == 6
        assert [m.body for m in recovered.browse("A.Q")] == [8, 9]
        store.close()

    def test_restart_keeps_a_log_less_than_half_dead(self, scheme, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=open_store(scheme, tmp_path))
        manager.define_queue("A.Q")
        for i in range(10):
            manager.put("A.Q", Message(body=i))
        manager.get("A.Q")
        recovered = restart(scheme, tmp_path, clock, manager)
        store = durable(recovered)
        # 12 records against a 13-record snapshot: nothing to gain.
        assert (store.recover_compacted, store.size()) == (0, 12)
        assert [m.body for m in recovered.browse("A.Q")] == list(range(1, 10))
        store.close()


class TestSchemeTable:
    def test_journal_for_schemes(self, tmp_path):
        memory = journal_for("memory:")
        assert isinstance(memory, MemoryJournal)
        binfile = journal_for(f"BINFILE:{tmp_path}/b.journal", sync="batch")
        assert isinstance(binfile, FileJournal)
        assert binfile.sync_policy == "batch"
        store = journal_for(f"sqlstore:{tmp_path}/a.db", compaction_threshold=9)
        assert isinstance(store, SqlQueueStore)  # the log-only knob ignored
        for opened in (binfile, store):
            opened.close()

    def test_bare_path_means_binfile(self, tmp_path):
        journal = journal_for(str(tmp_path / "bare.journal"))
        assert isinstance(journal, FileJournal)
        journal.close()

    def test_unknown_scheme_names_the_three(self):
        # ``sqlite`` and ``file`` were schemes once; they are unknown like
        # any other now (schemes are matched case-insensitively).
        for url in ("etcd:/somewhere", "SQLite:x", "file:x"):
            with pytest.raises(PersistenceError, match="binfile, memory, sqlstore$"):
                journal_for(url)

    @pytest.mark.parametrize("scheme", PATH_SCHEMES)
    def test_pathless_url_rejected(self, scheme):
        with pytest.raises(PersistenceError, match="needs a path"):
            journal_for(f"{scheme}:")

    @pytest.mark.parametrize("scheme", PATH_SCHEMES)
    def test_manager_accepts_backend_url(self, scheme, clock, tmp_path):
        url = f"{scheme}:{tmp_path}/qm{JOURNAL_SCHEMES[scheme][1]}"
        manager = QueueManager("QM.S", clock, journal=url)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body=1))
        durable(manager).close()
        recovered = QueueManager.recover("QM.S", clock, url)
        assert [m.body for m in recovered.browse("A.Q")] == [1]
        durable(recovered).close()

    @pytest.mark.parametrize("scheme", PATH_SCHEMES)
    def test_factory_places_per_manager_stores(self, scheme, tmp_path):
        # Regression (sqlstore): the store did not create its parent
        # directory, so a fresh directory worked for file journals only.
        fresh = tmp_path / "not" / "yet" / "there"
        store = journal_factory_for(scheme, str(fresh))("QM.R1")
        assert store.path == str(fresh / ("QM_R1" + JOURNAL_SCHEMES[scheme][1]))
        store.close()

    def test_memory_factory_needs_no_directory(self):
        assert isinstance(journal_factory_for("memory")("QM.R1"), MemoryJournal)

    def test_unopenable_path_is_a_persistence_error(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        for scheme in PATH_SCHEMES:
            with pytest.raises(PersistenceError):
                journal_for(f"{scheme}:{blocker}/child/qm.store")

    def test_factory_requires_directory(self):
        for scheme in PATH_SCHEMES:
            with pytest.raises(PersistenceError, match="directory"):
                journal_factory_for(scheme)
        with pytest.raises(PersistenceError, match="expected one of"):
            journal_factory_for("etcd")


class TestSqlStoreEngine:
    """What the SQL store leaves to the SQLite engine, pinned here because
    SEMANTICS.md §9.1 promises it."""

    def test_wal_mode_and_synchronous_mapping(self, tmp_path):
        for sync, expected in (("always", 2), ("batch", 1), ("none", 0)):
            store = SqlQueueStore(str(tmp_path / "qm.db"), sync=sync)
            assert store._con.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert store._con.execute("PRAGMA synchronous").fetchone()[0] == expected
            assert store.skipped_trailing_records == 0  # no torn tails to heal
            store.close()

    def test_open_failure_on_non_sqlite_file_releases_handle(self, tmp_path):
        path = tmp_path / "not-a-db.db"
        path.write_text("plain text, definitely not SQLite")
        with pytest.raises(PersistenceError):
            SqlQueueStore(str(path))
        # The refused path is immediately reusable (no lingering handle
        # holding a half-initialised connection open).
        assert path.read_text().startswith("plain text")


class TestPostCommitHookLifetime:
    """Aborted commit groups must drop their deferred callbacks — never
    fire them early, never leak them into the next unrelated commit."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_pre_flush_crash_clears_hooks(self, scheme, tmp_path):
        store = open_store(scheme, tmp_path)
        fired = []

        def stage(queue):
            if scheme == "sqlstore":
                store.define_queue(queue, 10)
            else:
                store.append({"op": "define", "queue": queue})

        def boom(record_count):
            raise SimulatedCrash()

        store.on_pre_flush = boom
        with pytest.raises(SimulatedCrash):
            with store.batch():
                stage("A.Q")
                store.post_commit(lambda: fired.append("stale"))
        store.on_pre_flush = None
        assert not store._post_commit_hooks
        # The next, unrelated commit must not fire the stale callback.
        with store.batch():
            stage("B.Q")
        assert fired == []
        store.close()

    def test_body_abort_with_nothing_staged_drops_hooks(self):
        journal = MemoryJournal()
        fired = []
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.post_commit(lambda: fired.append("early"))
                raise RuntimeError("application error before any append")
        # Nothing was staged, so nothing became durable: the callback
        # must not run — not now, not on the next commit.
        assert fired == []
        with journal.batch():
            journal.append({"op": "define", "queue": "B.Q"})
        assert fired == []

    def test_raising_hook_clears_reentrant_registrations(self):
        journal = MemoryJournal()
        fired = []

        def hook_registers_then_dies():
            journal._post_commit_hooks.append(lambda: fired.append("stale"))
            raise SimulatedCrash()

        with pytest.raises(SimulatedCrash):
            with journal.batch():
                journal.append({"op": "define", "queue": "A.Q"})
                journal.post_commit(hook_registers_then_dies)
        assert not journal._post_commit_hooks
        with journal.batch():
            journal.append({"op": "define", "queue": "B.Q"})
        assert fired == []

    def test_committed_group_still_fires_hooks(self):
        journal = MemoryJournal()
        fired = []
        with journal.batch():
            journal.append({"op": "define", "queue": "A.Q"})
            journal.post_commit(lambda: fired.append("ok"))
        assert fired == ["ok"]
