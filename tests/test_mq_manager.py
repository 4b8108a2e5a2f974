"""Unit tests for the queue manager."""

import pytest

from repro.errors import (
    EmptyQueueError,
    MQError,
    PersistenceError,
    QueueExistsError,
    QueueNotFoundError,
)
from repro.mq import reports
from repro.mq.manager import DEAD_LETTER_QUEUE, QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import MemoryJournal


class TestQueueAdministration:
    def test_requires_name(self, clock):
        with pytest.raises(MQError):
            QueueManager("", clock)

    def test_dead_letter_queue_predefined(self, manager):
        assert manager.has_queue(DEAD_LETTER_QUEUE)

    def test_define_and_lookup(self, manager):
        manager.define_queue("APP.Q")
        assert manager.has_queue("APP.Q")
        assert manager.queue("APP.Q").name == "APP.Q"

    def test_define_duplicate_rejected(self, manager):
        manager.define_queue("APP.Q")
        with pytest.raises(QueueExistsError):
            manager.define_queue("APP.Q")

    def test_ensure_queue_is_idempotent(self, manager):
        first = manager.ensure_queue("APP.Q")
        second = manager.ensure_queue("APP.Q")
        assert first is second

    def test_lookup_missing_raises(self, manager):
        with pytest.raises(QueueNotFoundError):
            manager.queue("NOPE.Q")

    def test_delete_queue(self, manager):
        manager.define_queue("APP.Q")
        manager.delete_queue("APP.Q")
        assert not manager.has_queue("APP.Q")
        with pytest.raises(QueueNotFoundError):
            manager.delete_queue("APP.Q")

    def test_dead_letter_queue_undeletable(self, manager):
        with pytest.raises(MQError):
            manager.delete_queue(DEAD_LETTER_QUEUE)

    def test_queue_names(self, manager):
        manager.define_queue("A.Q")
        manager.define_queue("B.Q")
        assert set(manager.queue_names()) == {DEAD_LETTER_QUEUE, "A.Q", "B.Q"}


class TestPutGet:
    def test_put_get_roundtrip(self, manager):
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="hi"))
        assert manager.get("APP.Q").body == "hi"

    def test_get_empty_raises_and_get_wait_returns_none(self, manager):
        manager.define_queue("APP.Q")
        with pytest.raises(EmptyQueueError):
            manager.get("APP.Q")
        assert manager.get_wait("APP.Q") is None

    def test_depth_and_browse(self, manager):
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body=1))
        manager.put("APP.Q", Message(body=2))
        assert manager.depth("APP.Q") == 2
        assert [m.body for m in manager.browse("APP.Q")] == [1, 2]

    def test_put_remote_to_self_is_local(self, manager):
        manager.define_queue("APP.Q")
        manager.put_remote("QM.TEST", "APP.Q", Message(body="loop"))
        assert manager.get("APP.Q").body == "loop"

    def test_put_remote_without_network_fails(self, manager):
        with pytest.raises(MQError):
            manager.put_remote("QM.OTHER", "APP.Q", Message(body=None))

    def test_expired_message_goes_to_dlq(self, manager, clock):
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="dying", expiry_ms=50))
        clock.set(51)
        assert manager.get_wait("APP.Q") is None
        dead = manager.get(DEAD_LETTER_QUEUE)
        assert dead.body == "dying"
        assert dead.get_property("DLQ_REASON") == "expired"


class _NotData:
    pass


@pytest.mark.parametrize("store", ["memory:", "binfile", "sqlstore"])
def test_a_put_the_store_refuses_leaves_no_message(clock, tmp_path, store):
    url = store if store == "memory:" else f"{store}:{tmp_path}/qm"
    manager = QueueManager("QM.A", clock, journal=url)
    manager.define_queue("Q")
    manager.queue("Q").subscribe(lambda _m: None)  # the put opens a commit group
    for _ in range(2):
        with pytest.raises(PersistenceError):
            manager.put("Q", Message(body=_NotData()))
    assert manager.depth("Q") == 0
    manager.put("Q", Message(body="data"))
    assert [m.body for m in manager.browse("Q")] == ["data"]
    (manager.store or manager.journal).close()


class TestBackoutThreshold:
    def test_poison_message_diverted_to_dlq(self, clock):
        manager = QueueManager("QM.P", clock, backout_threshold=2)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="poison"))
        for _ in range(2):
            tx = manager.begin()
            assert manager.get("APP.Q", transaction=tx).body == "poison"
            tx.rollback()
        # Third transactional attempt must not see the poison message.
        tx = manager.begin()
        assert manager.get_wait("APP.Q", transaction=tx) is None
        tx.rollback()
        dead = manager.get(DEAD_LETTER_QUEUE)
        assert dead.get_property("DLQ_REASON") == "backout-threshold"

    def test_healthy_message_still_delivered_after_poison(self, clock):
        manager = QueueManager("QM.P", clock, backout_threshold=1)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="poison"))
        manager.put("APP.Q", Message(body="good"))
        tx = manager.begin()
        manager.get("APP.Q", transaction=tx)
        tx.rollback()
        tx2 = manager.begin()
        assert manager.get("APP.Q", transaction=tx2).body == "good"
        tx2.commit()

    def test_threshold_disabled(self, clock):
        manager = QueueManager("QM.P", clock, backout_threshold=None)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="retry-me"))
        for _ in range(10):
            tx = manager.begin()
            assert manager.get("APP.Q", transaction=tx) is not None
            tx.rollback()
        assert manager.depth("APP.Q") == 1


class TestDeadLetterDurability:
    """Regression: dead-lettered persistent messages must survive a crash.

    ``_dead_letter`` used to put straight onto the DLQ without journaling,
    and ``checkpoint`` skipped the DLQ, so a poisoned persistent message
    silently vanished on recovery.
    """

    def test_poisoned_persistent_message_survives_recovery(self, clock):
        journal = MemoryJournal()
        manager = QueueManager(
            "QM.J", clock, journal=journal, backout_threshold=2
        )
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="poison"))
        for _ in range(2):
            tx = manager.begin()
            manager.get("APP.Q", transaction=tx)
            tx.rollback()
        # The third attempt diverts the message to the DLQ.
        tx = manager.begin()
        assert manager.get_wait("APP.Q", transaction=tx) is None
        tx.rollback()
        assert manager.depth(DEAD_LETTER_QUEUE) == 1

        # Crash: rebuild from the journal alone.
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert manager is not recovered
        dead = [m.body for m in recovered.browse(DEAD_LETTER_QUEUE)]
        assert dead == ["poison"]
        # ...and the message must not also resurrect on the source queue.
        assert recovered.depth("APP.Q") == 0

    def test_expired_persistent_message_survives_recovery(self, clock):
        journal = MemoryJournal()
        manager = QueueManager("QM.J", clock, journal=journal)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="stale", expiry_ms=50))
        clock.set(51)
        assert manager.get_wait("APP.Q") is None  # sweep dead-letters it
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert [m.body for m in recovered.browse(DEAD_LETTER_QUEUE)] == ["stale"]
        assert recovered.depth("APP.Q") == 0

    def test_checkpoint_preserves_dead_letter_queue(self, clock):
        journal = MemoryJournal()
        manager = QueueManager(
            "QM.J", clock, journal=journal, backout_threshold=1
        )
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="poison"))
        tx = manager.begin()
        manager.get("APP.Q", transaction=tx)
        tx.rollback()
        tx = manager.begin()
        assert manager.get_wait("APP.Q", transaction=tx) is None
        tx.rollback()
        manager.checkpoint()  # compacts the log to a snapshot
        recovered = QueueManager.recover("QM.J", clock, journal)
        assert recovered.depth(DEAD_LETTER_QUEUE) == 1


class TestSyncpointReports:
    """Regression: COA for a syncpoint put fires exactly once, at commit.

    ``apply_commit`` used to publish buffered local puts straight onto the
    queue, skipping the arrival-report hook, so a COA requested on a
    transactional put was never generated.
    """

    @staticmethod
    def _coa_message(body="hello"):
        return reports.request_reports(
            Message(body=body),
            coa=True,
            reply_to_manager="QM.TEST",
            reply_to_queue="REPORTS.Q",
        )

    def test_coa_fires_once_at_commit(self, manager):
        manager.define_queue("APP.Q")
        manager.define_queue("REPORTS.Q")
        message = self._coa_message()
        tx = manager.begin()
        manager.put("APP.Q", message, transaction=tx)
        # Nothing is visible (and no report exists) before commit.
        assert manager.depth("APP.Q") == 0
        assert manager.depth("REPORTS.Q") == 0
        tx.commit()
        assert manager.depth("APP.Q") == 1
        assert manager.depth("REPORTS.Q") == 1
        report = reports.parse_report(manager.get("REPORTS.Q"))
        assert report.kind == reports.KIND_COA
        assert report.original_message_id == message.message_id
        assert report.queue == "APP.Q"

    def test_no_coa_on_rollback(self, manager):
        manager.define_queue("APP.Q")
        manager.define_queue("REPORTS.Q")
        tx = manager.begin()
        manager.put("APP.Q", self._coa_message(), transaction=tx)
        tx.rollback()
        assert manager.depth("APP.Q") == 0
        assert manager.depth("REPORTS.Q") == 0

    def test_transactional_and_plain_put_report_identically(self, manager):
        manager.define_queue("APP.Q")
        manager.define_queue("REPORTS.Q")
        manager.put("APP.Q", self._coa_message("plain"))
        tx = manager.begin()
        manager.put("APP.Q", self._coa_message("tx"), transaction=tx)
        tx.commit()
        kinds = [
            reports.parse_report(m).kind for m in manager.browse("REPORTS.Q")
        ]
        assert kinds == [reports.KIND_COA, reports.KIND_COA]
