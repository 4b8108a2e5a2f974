"""SqlQueueStore: the database as the queue manager's live state.

Covers the store-backed queue's parity with :class:`MessageQueue`
(ordering, expiry, locking, stats), manager store mode (group commit,
transactions, dead-lettering), shared-store attach with two managers,
O(1)-ish recovery ("recovery = open"), the ``sqlstore:`` journal-registry
URL, and the journal-shaped chaos surface (fault hooks, read-only
``recover()`` fold).
"""

import os
import time

import pytest

from repro.errors import (
    EmptyQueueError,
    MQError,
    PersistenceError,
    QueueFullError,
    QueueNotFoundError,
)
from repro.mq.manager import DEAD_LETTER_QUEUE, QueueManager
from repro.mq.message import DeliveryMode, Message, MessageBuilder
from repro.mq.persistence import journal_factory_for, journal_for
from repro.mq.selectors import Selector
from repro.mq.sqlstore import SqlMessageQueue, SqlQueueStore
from repro.sim.clock import SimulatedClock


@pytest.fixture()
def clock():
    return SimulatedClock()


@pytest.fixture()
def store():
    store = SqlQueueStore(":memory:", sync="none")
    yield store
    store.close()


def put_n(queue, n, **overrides):
    return [queue.put(Message(body=i, **overrides)) for i in range(n)]


class TestQueueParity:
    def test_priority_order_fifo_within(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        for body, priority in [("a", 1), ("b", 5), ("c", 5), ("d", 9)]:
            queue.put(Message(body=body, priority=priority))
        assert [m.body for m in queue.browse()] == ["d", "b", "c", "a"]
        assert queue.get().body == "d"
        assert queue.get().body == "b"

    def test_depth_counts_and_full(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock, max_depth=3)
        put_n(queue, 3)
        assert queue.depth() == 3 and not queue.is_empty()
        with pytest.raises(QueueFullError):
            queue.put(Message(body="overflow"))
        # put_many is all-or-nothing against the cap.
        queue.get()
        with pytest.raises(QueueFullError):
            queue.put_many([Message(body=1), Message(body=2)])
        assert queue.depth() == 2

    def test_lock_commit_rollback(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        put_n(queue, 3)
        first = queue.get(lock_owner="TX-1")
        assert queue.depth() == 2 and queue.total_depth() == 3
        assert [m.body for m in queue.locked_messages("TX-1")] == [first.body]
        rolled = queue.rollback_locked("TX-1")
        assert [m.backout_count for m in rolled] == [1]
        assert queue.stats.backouts == 1
        # Rolled-back message redelivers first, in original order.
        again = queue.get(lock_owner="TX-2")
        assert again.body == first.body and again.backout_count == 1
        assert queue.commit_locked("TX-2")[0].body == first.body
        assert queue.total_depth() == 2

    def test_remove_locked_poison_diversion(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        stored = put_n(queue, 2)
        queue.get(lock_owner="TX-1")
        queue.get(lock_owner="TX-1")
        removed = queue.remove_locked("TX-1", stored[0].message_id)
        assert removed.message_id == stored[0].message_id
        with pytest.raises(EmptyQueueError):
            queue.remove_locked("TX-1", stored[0].message_id)
        # The rest of the locked set is untouched.
        assert len(queue.locked_messages("TX-1")) == 1

    def test_expiry_sweep_fires_hook_and_stats(self, store, clock):
        expired = []
        queue = SqlMessageQueue(store, "Q", clock, on_expired=expired.append)
        queue.put(Message(body="dies", expiry_ms=clock.now_ms() + 5))
        queue.put(Message(body="lives"))
        clock.advance(10)
        assert queue.depth() == 1
        assert [m.body for m in expired] == ["dies"]
        assert queue.stats.expired == 1

    def test_locked_messages_not_swept(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        queue.put(Message(body="locked", expiry_ms=clock.now_ms() + 5))
        queue.get(lock_owner="TX-1")
        clock.advance(10)
        assert queue.depth() == 0
        # Still present (locked), not dead-lettered.
        assert queue.total_depth() == 1
        rolled = queue.rollback_locked("TX-1")
        assert len(rolled) == 1
        # Once visible again, the next access sweeps it.
        assert queue.depth() == 0 and queue.total_depth() == 0

    def test_get_by_id_ignores_expiry_find_by_id_does_not(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        stored = queue.put(Message(body="x", expiry_ms=clock.now_ms() + 5))
        clock.advance(10)
        # get_by_id pulls the message "expired or not" (compensation path)
        # without triggering a sweep first.
        assert queue.get_by_id(stored.message_id).body == "x"
        # find_by_id sweeps and filters expiry, so an expired message is
        # gone from its point of view.
        stored2 = queue.put(Message(body="y", expiry_ms=clock.now_ms() + 5))
        clock.advance(10)
        assert queue.find_by_id(stored2.message_id) is None

    def test_purge_snapshot_restore(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        put_n(queue, 4)
        queue.get(lock_owner="TX-1")
        snap = queue.snapshot()
        assert len(snap) == 4  # locked included
        assert queue.purge() == 3  # locked survives purge
        assert queue.total_depth() == 1
        queue.restore(snap)
        assert queue.total_depth() == 4
        assert queue.depth() == 4  # restored entries are unlocked

    def test_body_roundtrip_including_non_json(self, store, clock):
        # The rule of every scheme (tests/test_mq_stores.py::TestClosedValueSet):
        # plain data round-trips with its types, anything else is refused
        # at the put.
        queue = SqlMessageQueue(store, "Q", clock)
        bodies = [{"nested": [1, "two", None]}, frozenset({1, 2}), (1, b"\x00"), {1: "one"}]
        for body in bodies:
            queue.put(Message(body=body))
        restored = [queue.get().body for _ in bodies]
        assert restored == bodies
        assert [type(b) for b in restored] == [type(b) for b in bodies]
        for not_data in (object(), lambda: None):
            with pytest.raises(PersistenceError):
                queue.put(Message(body=not_data))
        assert queue.total_depth() == 0

    def test_validation_mirrors_linear_queue(self, store, clock):
        with pytest.raises(MQError):
            SqlMessageQueue(store, "", clock)
        with pytest.raises(MQError):
            SqlMessageQueue(store, "Q", clock, max_depth=0)


class TestSelectorGets:
    def test_pushdown_get_selects_in_delivery_order(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        for i in range(10):
            queue.put(
                Message(body=i, priority=i % 3, properties={"n": i})
            )
        got = queue.get(Selector("n >= 4 AND n <= 6"))
        # Candidates 4,5,6 have priorities 1,2,0 -> n=5 wins.
        assert got.body == 5
        assert queue.depth() == 9

    def test_plain_callable_falls_back_to_scan(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        put_n(queue, 5)
        got = queue.get(lambda m: m.body == 3)
        assert got.body == 3

    def test_selector_miss_raises_empty(self, store, clock):
        queue = SqlMessageQueue(store, "Q", clock)
        put_n(queue, 2)
        with pytest.raises(EmptyQueueError):
            queue.get(Selector("absent = 1"))
        assert queue.depth() == 2


class TestSharedStore:
    def test_two_managers_one_store(self, store, clock):
        a = QueueManager("QM.A", clock, journal=store)
        b = QueueManager("QM.B", clock, journal=store)
        a.define_queue("SHARED.Q")
        # B picks the queue up on demand (defined after B attached).
        b.ensure_queue("SHARED.Q")
        a.put("SHARED.Q", Message(body="from-a"))
        assert b.depth("SHARED.Q") == 1
        assert b.get("SHARED.Q").body == "from-a"
        assert a.depth("SHARED.Q") == 0

    def test_late_defined_queue_attaches_on_lookup(self, store, clock):
        # No ensure_queue needed: a queue defined by A after B attached
        # appears at B's first lookup miss (the store registry is the
        # source of truth, not each manager's construction-time scan).
        a = QueueManager("QM.A", clock, journal=store)
        b = QueueManager("QM.B", clock, journal=store)
        a.define_queue("LATE.Q")
        a.put("LATE.Q", Message(body="x"))
        assert b.has_queue("LATE.Q")
        assert b.queue("LATE.Q").depth() == 1
        assert b.get("LATE.Q").body == "x"
        # Genuinely unknown names still miss.
        assert not b.has_queue("NOPE.Q")
        with pytest.raises(QueueNotFoundError):
            b.queue("NOPE.Q")

    def test_attach_sees_existing_queues(self, store, clock):
        a = QueueManager("QM.A", clock, journal=store)
        a.define_queue("PRE.Q")
        a.put("PRE.Q", Message(body=1))
        b = QueueManager("QM.B", clock, journal=store)
        assert "PRE.Q" in b.queue_names()
        assert b.depth("PRE.Q") == 1

    def test_stored_max_depth_wins_on_attach(self, store, clock):
        a = QueueManager("QM.A", clock, journal=store)
        a.define_queue("CAP.Q", max_depth=2)
        b = QueueManager("QM.B", clock, journal=store)
        b.put("CAP.Q", Message(body=1))
        b.put("CAP.Q", Message(body=2))
        with pytest.raises(QueueFullError):
            b.put("CAP.Q", Message(body=3))

    def test_locks_are_manager_scoped(self, store, clock):
        a = QueueManager("QM.A", clock, journal=store)
        b = QueueManager("QM.B", clock, journal=store)
        a.define_queue("L.Q")
        b.ensure_queue("L.Q")
        a.put("L.Q", Message(body="a1"))
        b.put("L.Q", Message(body="b1"))
        tx_a = a.begin()
        a.get("L.Q", transaction=tx_a)
        # B cannot see A's locked message, and releasing A's locks only
        # releases A's.
        assert b.depth("L.Q") == 1
        tx_b = b.begin()
        b.get("L.Q", transaction=tx_b)
        assert store.release_locks("QM.A") == 1
        assert a.depth("L.Q") == 1  # A's lock released, message back
        assert len(b.queue("L.Q").locked_messages(tx_b.tx_id)) == 1

    def test_one_managers_crash_leaves_the_other_running(self, clock, tmp_path):
        path = str(tmp_path / "shared.db")
        store = SqlQueueStore(path, sync="none")
        a = QueueManager("QM.A", clock, journal=store)
        b = QueueManager("QM.B", clock, journal=store)
        a.define_queue("W.Q")
        b.ensure_queue("W.Q")
        for i in range(4):
            a.put("W.Q", Message(body=i))
        tx_a = a.begin()
        a.get("W.Q", transaction=tx_a)  # in-flight at "crash"
        tx_b = b.begin()
        survivor = b.get("W.Q", transaction=tx_b)
        # A crashes; recovery opens the same store.
        recovered = QueueManager.recover("QM.A", clock, store)
        # A's lock is released without a backout bump...
        bodies = sorted(m.body for m in recovered.browse("W.Q"))
        assert bodies == [0, 2, 3]
        assert all(m.backout_count == 0 for m in recovered.browse("W.Q"))
        # ...while B's transaction is still live and can commit.
        tx_b.commit()
        assert survivor.body == 1
        assert b.depth("W.Q") == 3
        store.close()


class TestManagerStoreMode:
    def test_url_scheme_creates_store(self, clock, tmp_path):
        path = str(tmp_path / "qm.db")
        manager = QueueManager("QM.S", clock, journal=f"sqlstore:{path}")
        assert isinstance(manager.store, SqlQueueStore)
        assert manager.journal is None
        manager.define_queue("U.Q")
        manager.put("U.Q", Message(body=1))
        assert os.path.exists(path)
        manager.store.close()

    def test_journal_registry_factory(self, clock, tmp_path):
        factory = journal_factory_for("sqlstore", str(tmp_path), sync="none")
        store = factory("QM.F")
        assert isinstance(store, SqlQueueStore)
        assert store.path.endswith(".db")
        store.close()
        # URL resolution goes through the same registry as the journals.
        resolved = journal_for(f"sqlstore:{tmp_path}/opt.db", sync="batch")
        assert isinstance(resolved, SqlQueueStore)
        assert resolved.sync_policy == "batch"
        resolved.close()

    def test_a_second_open_of_a_live_file_is_refused_at_once(self, tmp_path):
        path = str(tmp_path / "one.db")
        first = SqlQueueStore(path, sync="none")
        started = time.monotonic()
        with pytest.raises(PersistenceError):
            SqlQueueStore(path, sync="none")
        assert time.monotonic() - started < 1.0  # no busy wait
        first.close()

    def test_the_file_opens_again_once_its_instance_closed(self, clock, tmp_path):
        path = str(tmp_path / "one.db")
        first = SqlQueueStore(path, sync="none")
        QueueManager("QM.O", clock, journal=first).define_queue("O.Q")
        first.close()
        second = SqlQueueStore(path, sync="none")
        assert "O.Q" in second.queue_names()
        second.close()

    def test_bad_sync_policy_refused(self, tmp_path):
        with pytest.raises(PersistenceError):
            SqlQueueStore(str(tmp_path / "x.db"), sync="sometimes")

    def test_recovery_is_open_not_replay(self, clock, tmp_path):
        path = str(tmp_path / "reopen.db")
        store = SqlQueueStore(path, sync="none")
        manager = QueueManager("QM.R", clock, journal=store)
        manager.define_queue("R.Q")
        for i in range(50):
            manager.put("R.Q", Message(body=i))
        tx = manager.begin()
        manager.get("R.Q", transaction=tx)
        store.close()
        # Restart: a fresh store object over the same file, no replay.
        reopened = SqlQueueStore(path, sync="none")
        recovered = QueueManager.recover("QM.R", clock, reopened)
        assert recovered.depth("R.Q") == 50  # lock released in place
        assert recovered.get("R.Q").backout_count == 0
        reopened.close()

    def test_non_persistent_messages_survive_restart(self, clock, tmp_path):
        # Store mode's durability is stronger than a journal's: the store
        # outlives the manager, so non-persistent messages survive too.
        path = str(tmp_path / "np.db")
        store = SqlQueueStore(path, sync="none")
        manager = QueueManager("QM.NP", clock, journal=store)
        manager.define_queue("NP.Q")
        manager.put(
            "NP.Q",
            Message(body="v", delivery_mode=DeliveryMode.NON_PERSISTENT),
        )
        store.close()
        recovered = QueueManager.recover(
            "QM.NP", clock, SqlQueueStore(path, sync="none")
        )
        assert recovered.depth("NP.Q") == 1
        recovered.store.close()

    def test_group_commit_defers_post_durable(self, store, clock):
        manager = QueueManager("QM.G", clock, journal=store)
        manager.define_queue("G.Q")
        order = []
        with manager.group_commit():
            manager.put("G.Q", Message(body=1))
            manager.post_durable(lambda: order.append("durable"))
            order.append("inside")
        assert order == ["inside", "durable"]
        # Outside a group the callback is immediate.
        manager.post_durable(lambda: order.append("now"))
        assert order[-1] == "now"

    def test_transaction_commit_and_rollback(self, store, clock):
        manager = QueueManager("QM.T", clock, journal=store)
        manager.define_queue("T.Q")
        manager.put("T.Q", Message(body="keep"))
        tx = manager.begin()
        manager.put("T.Q", Message(body="pending"), transaction=tx)
        assert manager.depth("T.Q") == 1  # pending put invisible
        tx.commit()
        assert manager.depth("T.Q") == 2
        tx2 = manager.begin()
        manager.get("T.Q", transaction=tx2)
        tx2.rollback()
        assert manager.depth("T.Q") == 2

    def test_backout_threshold_dead_letters_poison(self, store, clock):
        manager = QueueManager("QM.P", clock, journal=store, backout_threshold=2)
        manager.define_queue("P.Q")
        manager.put("P.Q", Message(body="poison"))
        for _ in range(2):
            tx = manager.begin()
            manager.get("P.Q", transaction=tx)
            tx.rollback()
        tx = manager.begin()
        with pytest.raises(EmptyQueueError):
            manager.get("P.Q", transaction=tx)
        assert manager.depth(DEAD_LETTER_QUEUE) == 1

    def test_expired_messages_route_to_dlq(self, store, clock):
        manager = QueueManager("QM.E", clock, journal=store)
        manager.define_queue("E.Q")
        manager.put("E.Q", Message(body="dies", expiry_ms=clock.now_ms() + 5))
        clock.advance(10)
        assert manager.depth("E.Q") == 0
        dead = list(manager.browse(DEAD_LETTER_QUEUE))
        assert [m.body for m in dead] == ["dies"]

    def test_delete_queue_removes_rows(self, store, clock):
        manager = QueueManager("QM.D", clock, journal=store)
        manager.define_queue("D.Q")
        manager.put("D.Q", Message(body=1))
        manager.delete_queue("D.Q")
        assert "D.Q" not in store.queue_names()
        # Redefining starts empty.
        manager.define_queue("D.Q")
        assert manager.depth("D.Q") == 0


class TestChaosSurface:
    def test_recover_fold_is_read_only(self, store, clock):
        manager = QueueManager("QM.C", clock, journal=store)
        manager.define_queue("C.Q")
        manager.put("C.Q", Message(body="p"))
        manager.put(
            "C.Q", Message(body="np", delivery_mode=DeliveryMode.NON_PERSISTENT)
        )
        tx = manager.begin()
        manager.get("C.Q", transaction=tx)
        names, live = store.recover()
        # Journal-shaped: persistent messages only, locked included.
        assert "C.Q" in names
        assert [m.body for m in live["C.Q"]] == ["p"]
        # And nothing changed underneath the live manager.
        assert manager.queue("C.Q").total_depth() == 2
        assert len(manager.queue("C.Q").locked_messages(tx.tx_id)) == 1

    def test_pre_flush_crash_rolls_back_group(self, store, clock):
        manager = QueueManager("QM.X", clock, journal=store)
        manager.define_queue("X.Q")

        class Boom(BaseException):
            pass

        fired = []
        store.on_pre_flush = lambda n: (_ for _ in ()).throw(Boom())
        with pytest.raises(Boom):
            with manager.group_commit():
                manager.put("X.Q", Message(body=1))
                manager.post_durable(lambda: fired.append("never"))
        store.on_pre_flush = None
        # The whole group is gone — crash-before-flush semantics — and
        # the post-commit hook never ran.
        assert manager.depth("X.Q") == 0
        assert fired == []

    def test_post_flush_fires_after_commit(self, store, clock):
        manager = QueueManager("QM.Y", clock, journal=store)
        manager.define_queue("Y.Q")
        seen = []
        store.on_post_flush = lambda n: seen.append(n)
        with manager.group_commit():
            manager.put("Y.Q", Message(body=1))
            manager.put("Y.Q", Message(body=2))
        store.on_post_flush = None
        assert len(seen) == 1 and seen[0] >= 2
        assert manager.depth("Y.Q") == 2  # committed despite hook firing

    def test_release_locks_suppresses_fault_hooks(self, store, clock):
        manager = QueueManager("QM.Z", clock, journal=store)
        manager.define_queue("Z.Q")
        manager.put("Z.Q", Message(body=1))
        tx = manager.begin()
        manager.get("Z.Q", transaction=tx)
        fired = []
        store.on_pre_flush = lambda n: fired.append(n)
        assert store.release_locks("QM.Z") == 1
        assert fired == []  # recovery is not a commit group
        assert store.on_pre_flush is not None  # hook restored

    def test_empty_group_commits_cleanly(self, store, clock):
        manager = QueueManager("QM.N", clock, journal=store)
        seen = []
        store.on_pre_flush = lambda n: seen.append(n)
        with manager.group_commit():
            pass
        assert seen == []  # no mutations, no flush event
        assert store.flush_count == 0 or seen == []

    def test_store_counts_flushes_and_records(self, clock, tmp_path):
        store = SqlQueueStore(str(tmp_path / "m.db"), sync="batch")
        manager = QueueManager("QM.M", clock, journal=store)
        manager.define_queue("M.Q")
        before = store.flush_count
        with manager.group_commit():
            for i in range(5):
                manager.put("M.Q", Message(body=i))
        assert store.flush_count == before + 1
        assert store.records_written >= 5
        store.close()


class TestPlannerStatistics:
    """The amortized ANALYZE schedule behind index-driven selector gets."""

    def test_analyze_runs_once_writes_cross_the_threshold(self, clock, tmp_path):
        store = SqlQueueStore(str(tmp_path / "a.db"), sync="none")
        queue = SqlMessageQueue(store, "A.Q", clock, max_depth=5000)
        queue.put_many(
            [Message(body=i, properties={"n": i}) for i in range(1200)]
        )
        # The batch crossed 1000 records: planner stats now exist, so the
        # message_props side index can drive selector gets.
        stats = store._con.execute(
            "SELECT DISTINCT tbl FROM sqlite_stat1 ORDER BY tbl"
        ).fetchall()
        assert ("message_props",) in stats and ("messages",) in stats
        assert store._analyzed_at == store.records_written
        store.close()

    def test_small_stores_skip_analyze(self, clock, tmp_path):
        store = SqlQueueStore(str(tmp_path / "b.db"), sync="none")
        queue = SqlMessageQueue(store, "B.Q", clock)
        queue.put_many([Message(body=i) for i in range(10)])
        assert store._analyzed_at == 0  # below the 1000-record floor
        # ...and the doubling rule: after one pass at N records, the next
        # runs only once another max(1000, N) have been written.
        store._analyzed_at = 5000
        store.records_written = 5001
        store._maybe_analyze()
        assert store._analyzed_at == 5000  # unchanged, threshold not met
        store.close()

    def test_side_index_rows_follow_message_lifecycle(self, clock, tmp_path):
        store = SqlQueueStore(str(tmp_path / "c.db"), sync="none")
        queue = SqlMessageQueue(store, "C.Q", clock)

        def props_rows():
            return store._con.execute(
                "SELECT COUNT(*) FROM message_props"
            ).fetchone()[0]

        queue.put(Message(body="x", properties={"n": 1, "s": "a", "b": True}))
        assert props_rows() == 3
        queue.put(Message(body="y", properties={"n": 2, "big": 2**70}))
        assert props_rows() == 4  # the clean value indexes; 2**70 skipped
        queue.get(Selector("n = 1"))
        assert props_rows() == 1  # delete trigger collected the first row
        queue.purge()
        assert props_rows() == 0
        store.close()
