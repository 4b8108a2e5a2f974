"""Group-commit journaling, batch puts, and crash-recovery equivalence.

The optimisation under test: ``Journal.append_many`` / ``Journal.batch``
turn many journal records into one commit group (one write+flush), and
``QueueManager.put_many`` stores a fan-out batch with one sorted splice
and one group-committed journal write.  None of that may change what a
crash recovers — the recovery-equivalence tests drive randomized
put/get interleavings through both journaling modes and demand identical
recovered state.
"""

import random

import pytest

from repro.errors import QueueFullError, PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import (
    JOURNAL_SCHEMES,
    FileJournal,
    MemoryJournal,
    journal_factory_for,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import SimulatedClock


@pytest.fixture
def clock():
    return SimulatedClock()


class TestJournalBatching:
    def test_append_many_is_one_flush(self):
        journal = MemoryJournal()
        journal.append_many(
            [{"op": "define", "queue": f"Q.{i}", "config": {}} for i in range(5)]
        )
        assert journal.flush_count == 1
        assert journal.records_written == 5
        assert len(journal.read_all()) == 5

    def test_batch_context_groups_appends(self):
        journal = MemoryJournal()
        with journal.batch():
            for i in range(4):
                journal.append({"op": "define", "queue": f"Q.{i}", "config": {}})
            assert journal.flush_count == 0  # buffered, not yet committed
        assert journal.flush_count == 1
        assert journal.records_written == 4

    def test_nested_batches_commit_once_at_outermost_exit(self):
        journal = MemoryJournal()
        with journal.batch():
            journal.append({"op": "define", "queue": "Q.A", "config": {}})
            with journal.batch():
                journal.append({"op": "define", "queue": "Q.B", "config": {}})
            assert journal.flush_count == 0
        assert journal.flush_count == 1
        assert [r["queue"] for r in journal.read_all()] == ["Q.A", "Q.B"]

    def test_batch_flushes_buffered_records_on_exception(self):
        # Queue state mutates before journaling, so records staged before
        # the failure must still reach the log.
        journal = MemoryJournal()
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.append({"op": "define", "queue": "Q.A", "config": {}})
                raise RuntimeError("boom")
        assert journal.flush_count == 1
        assert [r["queue"] for r in journal.read_all()] == ["Q.A"]

    def test_empty_batch_writes_nothing(self):
        journal = MemoryJournal()
        with journal.batch():
            pass
        assert journal.flush_count == 0

    def test_file_journal_append_many_is_one_flush(self, tmp_path):
        journal = FileJournal(str(tmp_path / "j.journal"))
        journal.append_many(
            [{"op": "define", "queue": f"Q.{i}", "config": {}} for i in range(5)]
        )
        assert journal.flush_count == 1
        assert len(FileJournal(str(tmp_path / "j.journal")).read_all()) == 5

    def test_invalid_sync_policy_rejected(self):
        with pytest.raises(PersistenceError):
            MemoryJournal(sync="sometimes")

    @pytest.mark.parametrize("sync", ["always", "batch", "none"])
    def test_sync_policies_recover_identically(self, sync, tmp_path):
        path = str(tmp_path / f"{sync}.journal")
        journal = FileJournal(path, sync=sync)
        with journal.batch():
            for i in range(3):
                journal.append({"op": "define", "queue": f"Q.{i}", "config": {}})
        journal.sync()
        reread = FileJournal(path)
        assert [r["queue"] for r in reread.read_all()] == ["Q.0", "Q.1", "Q.2"]

    def test_metrics_reported(self):
        metrics = MetricsRegistry()
        journal = MemoryJournal()
        journal.metrics = metrics
        journal.append_many(
            [{"op": "define", "queue": f"Q.{i}", "config": {}} for i in range(3)]
        )
        assert metrics.counter("journal.flushes") == 1
        assert metrics.counter("journal.records") == 3
        assert metrics.counter("journal.bytes") > 0
        assert metrics.histogram("journal.batch_records") == [3.0]


class TestQueuePutMany:
    def make_manager(self, clock, journal=None):
        manager = QueueManager("QM.B", clock, journal=journal)
        manager.define_queue("A.Q")
        return manager

    def test_order_matches_sequential_puts(self, clock):
        batcher = self.make_manager(clock)
        looper = self.make_manager(clock)
        bodies = [("m", 4), ("hi", 9), ("lo", 0), ("m2", 4), ("hi2", 9)]
        batcher.put_many(
            "A.Q", [Message(body=b, priority=p) for b, p in bodies]
        )
        for b, p in bodies:
            looper.put("A.Q", Message(body=b, priority=p))
        assert [m.body for m in batcher.browse("A.Q")] == [
            m.body for m in looper.browse("A.Q")
        ]

    def test_priority_and_fifo_within_priority(self, clock):
        manager = self.make_manager(clock)
        manager.put("A.Q", Message(body="old-high", priority=7))
        manager.put_many(
            "A.Q",
            [
                Message(body="new-low", priority=1),
                Message(body="new-high", priority=7),
            ],
        )
        assert [m.body for m in manager.browse("A.Q")] == [
            "old-high", "new-high", "new-low",
        ]

    def test_all_or_nothing_on_full_queue(self, clock):
        manager = QueueManager("QM.B", clock)
        manager.define_queue("A.Q", max_depth=3)
        manager.put("A.Q", Message(body="seed"))
        with pytest.raises(QueueFullError):
            manager.put_many("A.Q", [Message(body=i) for i in range(3)])
        assert manager.depth("A.Q") == 1  # nothing from the batch landed

    def test_batch_journaled_with_one_flush_and_recovers(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        before = journal.flush_count
        manager.put_many("A.Q", [Message(body=i) for i in range(6)])
        assert journal.flush_count == before + 1
        recovered = QueueManager.recover("QM.B", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == list(range(6))

    def test_non_persistent_members_not_journaled(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.put_many(
            "A.Q",
            [
                Message(body="keep"),
                Message(body="drop", delivery_mode=DeliveryMode.NON_PERSISTENT),
            ],
        )
        recovered = QueueManager.recover("QM.B", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == ["keep"]

    def test_transactional_put_many_defers_to_commit(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        tx = manager.begin()
        manager.put_many("A.Q", [Message(body=i) for i in range(3)], transaction=tx)
        assert manager.depth("A.Q") == 0
        tx.commit()
        assert [m.body for m in manager.browse("A.Q")] == [0, 1, 2]
        recovered = QueueManager.recover("QM.B", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == [0, 1, 2]

    def test_group_commit_scope_is_one_flush(self, clock):
        journal = MemoryJournal()
        manager = self.make_manager(clock, journal)
        manager.define_queue("B.Q")
        before = journal.flush_count
        with manager.group_commit():
            manager.put("A.Q", Message(body="a"))
            manager.put("B.Q", Message(body="b"))
            manager.put_many("A.Q", [Message(body=i) for i in range(3)])
        assert journal.flush_count == before + 1
        recovered = QueueManager.recover("QM.B", clock, journal)
        assert len(list(recovered.browse("A.Q"))) == 4
        assert len(list(recovered.browse("B.Q"))) == 1

    def test_group_commit_noop_without_journal(self, clock):
        manager = QueueManager("QM.V", clock)
        manager.define_queue("A.Q")
        with manager.group_commit():
            manager.put("A.Q", Message(body="x"))
        assert manager.depth("A.Q") == 1


class TestConditionalSendGroupCommit:
    def build_service(self, clock, fan_out):
        from repro.core.builder import destination, destination_set
        from repro.core.service import ConditionalMessagingService
        from repro.mq.network import MessageNetwork

        journal = MemoryJournal()
        network = MessageNetwork(scheduler=None)
        sender = network.add_manager(
            QueueManager("QM.S", clock, journal=journal)
        )
        for i in range(fan_out):
            receiver = network.add_manager(QueueManager(f"QM.{i}", clock))
            receiver.define_queue(f"Q.{i}")
            network.connect("QM.S", f"QM.{i}")
        condition = destination_set(
            *[
                destination(f"Q.{i}", manager=f"QM.{i}", recipient=f"R{i}")
                for i in range(fan_out)
            ],
            msg_pick_up_time=60_000,
        )
        service = ConditionalMessagingService(sender)
        return journal, service, condition

    def test_send_fanout_costs_one_flush(self, clock):
        journal, service, condition = self.build_service(clock, fan_out=4)
        before = journal.flush_count
        service.send_message({"n": 1}, condition)
        assert journal.flush_count == before + 1

    def test_grouped_send_recovers_everything(self, clock):
        journal, service, condition = self.build_service(clock, fan_out=3)
        cmid = service.send_message({"n": 1}, condition)
        recovered = QueueManager.recover("QM.S", clock, journal)
        slog = list(recovered.browse(service.slog_queue))
        comps = list(recovered.browse(service.compensation.comp_queue))
        assert [m.correlation_id for m in slog] == [cmid]
        assert len(comps) == 3
        # All three data messages are parked durably for transmission.
        parked = [
            q for q in recovered.queue_names() if q.startswith("SYSTEM.XMIT.")
        ]
        assert sum(recovered.depth(q) for q in parked) == 3


class TestDurabilityOrder:
    """Synchronous cross-manager delivery must not outrun the sender's
    commit group: compensation/SLOG/parking records flush before any
    destination can durably receive a message."""

    def build_pair(self, clock):
        from repro.mq.network import MessageNetwork

        journal = MemoryJournal()
        network = MessageNetwork(scheduler=None)
        sender = network.add_manager(QueueManager("QM.S", clock, journal=journal))
        receiver = network.add_manager(QueueManager("QM.R", clock))
        receiver.define_queue("Q.IN")
        network.connect("QM.S", "QM.R")
        return journal, sender, receiver

    def test_remote_delivery_deferred_until_group_flush(self, clock):
        journal, sender, receiver = self.build_pair(clock)
        with sender.group_commit():
            sender.put_remote("QM.R", "Q.IN", Message(body="data"))
            # Held: the sender's commit group is not durable yet.
            assert receiver.depth("Q.IN") == 0
            assert journal.flush_count == 0
        assert journal.flush_count == 1
        assert receiver.depth("Q.IN") == 1

    def test_remote_delivery_immediate_outside_batch(self, clock):
        journal, sender, receiver = self.build_pair(clock)
        sender.put_remote("QM.R", "Q.IN", Message(body="data"))
        assert receiver.depth("Q.IN") == 1

    def test_sender_records_durable_before_any_arrival(self, clock):
        from repro.core.builder import destination, destination_set
        from repro.core.service import ConditionalMessagingService
        from repro.mq.network import MessageNetwork

        journal = MemoryJournal()
        network = MessageNetwork(scheduler=None)
        sender = network.add_manager(QueueManager("QM.S", clock, journal=journal))
        arrivals = []
        for i in range(3):
            receiver = network.add_manager(QueueManager(f"QM.{i}", clock))
            receiver.define_queue(f"Q.{i}")
            receiver.queue(f"Q.{i}").subscribe(
                lambda m: arrivals.append(journal.flush_count)
            )
            network.connect("QM.S", f"QM.{i}")
        condition = destination_set(
            *[
                destination(f"Q.{i}", manager=f"QM.{i}", recipient=f"R{i}")
                for i in range(3)
            ],
            msg_pick_up_time=60_000,
        )
        service = ConditionalMessagingService(sender)
        service.send_message({"n": 1}, condition)
        # Every data message reached its destination only after the
        # sender's commit group (compensations + SLOG + parkings) was
        # flushed; with the documented order inverted, arrivals would
        # observe flush_count == 0.
        assert len(arrivals) == 3
        assert all(flushes >= 1 for flushes in arrivals)

    def test_released_compensations_do_not_resurrect_after_crash(self, clock):
        from repro.core.builder import destination, destination_set
        from repro.core.outcome import MessageOutcome
        from repro.core.service import ConditionalMessagingService
        from repro.mq.network import MessageNetwork

        journal = MemoryJournal()
        network = MessageNetwork(scheduler=None)
        sender = network.add_manager(QueueManager("QM.S", clock, journal=journal))
        receiver = network.add_manager(QueueManager("QM.R", clock))
        receiver.define_queue("Q.R")
        network.connect("QM.S", "QM.R")
        condition = destination_set(
            destination("Q.R", manager="QM.R", recipient="R1"),
            msg_pick_up_time=60_000,
        )
        service = ConditionalMessagingService(sender)
        cmid = service.send_message({"n": 1}, condition, compensation={"undo": 1})
        service.apply_outcome_actions(cmid, MessageOutcome.FAILURE)
        delivered = [
            m for m in receiver.browse("Q.R") if m.correlation_id == cmid
        ]
        assert len(delivered) == 2  # original + released compensation
        # Crash after release: the journaled DS.COMP.Q removals mean
        # recovery does NOT resurrect the released compensation (which a
        # later failure path could release again, duplicating it).
        recovered = QueueManager.recover("QM.S", clock, journal)
        assert list(recovered.browse(service.compensation.comp_queue)) == []

    def test_discarded_compensations_do_not_resurrect_after_crash(self, clock):
        from repro.core.builder import destination, destination_set
        from repro.core.outcome import MessageOutcome
        from repro.core.service import ConditionalMessagingService
        from repro.mq.network import MessageNetwork

        journal = MemoryJournal()
        network = MessageNetwork(scheduler=None)
        sender = network.add_manager(QueueManager("QM.S", clock, journal=journal))
        receiver = network.add_manager(QueueManager("QM.R", clock))
        receiver.define_queue("Q.R")
        network.connect("QM.S", "QM.R")
        condition = destination_set(
            destination("Q.R", manager="QM.R", recipient="R1"),
            msg_pick_up_time=60_000,
        )
        service = ConditionalMessagingService(sender)
        cmid = service.send_message({"n": 1}, condition, compensation={"undo": 1})
        service.apply_outcome_actions(cmid, MessageOutcome.SUCCESS)
        recovered = QueueManager.recover("QM.S", clock, journal)
        assert list(recovered.browse(service.compensation.comp_queue)) == []


class SimulatedCrash(BaseException):
    """Raised from ``on_pre_flush`` (the group being written is lost) or
    ``on_post_flush`` (it is durable, nothing after it happened)."""


class SenderCrashes:
    """A journaled sender, a volatile receiver, one conditional message,
    and a crash at a chosen flush of the sender while it is decided."""

    PICKUP_MS = 1_000

    def deploy(self, clock, sender):
        from repro.core.receiver import ConditionalMessagingReceiver
        from repro.core.service import ConditionalMessagingService
        from repro.mq.network import MessageNetwork

        network = MessageNetwork(scheduler=None)
        network.add_manager(sender)
        remote = network.add_manager(QueueManager("QM.R", clock))
        remote.ensure_queue("Q.R")
        network.connect("QM.S", "QM.R")
        network.connect("QM.R", "QM.S")
        receiver = ConditionalMessagingReceiver(remote, recipient_id="R1")
        return ConditionalMessagingService(sender), receiver

    def decide(self, decision, clock, service, receiver):
        if decision == "success":
            assert receiver.read_message("Q.R") is not None  # the ack decides
        else:
            clock.advance(self.PICKUP_MS + service.evaluation_grace_ms + 1)
            service.poll()

    def run_to_crash(self, scheme, decision, tmp_path, crash_at, hook="on_pre_flush"):
        """Send, then decide with a crash raised from ``hook`` at the
        decision's ``crash_at``-th flush (None: no crash).  Returns the
        sender's store, the flushes the decision made, and the clock."""
        from repro.core.builder import destination, destination_set

        clock = SimulatedClock()
        store = journal_factory_for(scheme, str(tmp_path), sync="none")("QM.S")
        service, receiver = self.deploy(
            clock, QueueManager("QM.S", clock, journal=store)
        )
        condition = destination_set(
            destination("Q.R", manager="QM.R", recipient="R1"),
            msg_pick_up_time=self.PICKUP_MS,
        )
        service.send_message({"n": 1}, condition, compensation={"undo": 1})
        calls = []

        def crash(_count):
            calls.append(_count)
            if len(calls) - 1 == crash_at:
                raise SimulatedCrash()

        setattr(store, hook, crash)
        if crash_at is None:
            self.decide(decision, clock, service, receiver)
        else:
            with pytest.raises(SimulatedCrash):
                self.decide(decision, clock, service, receiver)
        setattr(store, hook, None)
        return store, len(calls), clock

    def restart(self, scheme, tmp_path, clock, store):
        if JOURNAL_SCHEMES[scheme][2]:  # path-backed: a new process reopens it
            store.close()
            store = journal_factory_for(scheme, str(tmp_path), sync="none")("QM.S")
        return QueueManager.recover("QM.S", clock, store)

    def state(self, sender):
        return tuple(
            sender.depth(queue) for queue in ("DS.SLOG.Q", "DS.COMP.Q", "DS.OUTCOME.Q")
        )


@pytest.mark.parametrize("scheme", sorted(JOURNAL_SCHEMES))
@pytest.mark.parametrize("decision", ["success", "failure"])
class TestDecisionIsOneCommitGroup(SenderCrashes):
    """Outcome record, sender-log removal and compensation discard/release
    are one commit group: wherever the sender dies while deciding, a
    restart finds the message wholly undecided or wholly decided."""

    def test_every_crash_point_recovers_undecided_or_decided(
        self, scheme, decision, tmp_path
    ):
        store, flushes, _clock = self.run_to_crash(
            scheme, decision, tmp_path / "dry", None
        )
        store.close()
        seen = set()
        crash_points = [
            (hook, crash_at)
            for crash_at in range(flushes)
            for hook in ("on_pre_flush", "on_post_flush")
        ]
        for hook, crash_at in crash_points:
            directory = tmp_path / f"{hook}{crash_at}"
            store, _flushes, clock = self.run_to_crash(
                scheme, decision, directory, crash_at, hook
            )
            sender = self.restart(scheme, directory, clock, store)
            state = self.state(sender)
            # (log entry, staged compensation, outcome): all before, or all after
            assert state in {(1, 1, 0), (0, 0, 1)}, (hook, crash_at, state)
            seen.add(state)
            if state == (1, 1, 0):
                service, _receiver = self.deploy(clock, sender)
                assert service.recover_from_log() == 1
                clock.advance(self.PICKUP_MS + service.evaluation_grace_ms + 1)
                service.poll()
                service.poll()  # decided once: a second poll adds no outcome
                assert self.state(sender) == (0, 0, 1)
            (sender.journal or sender.store).close()
        assert seen == {(1, 1, 0), (0, 0, 1)}


@pytest.mark.parametrize("scheme", sorted(JOURNAL_SCHEMES))
class TestAckArrivalIsOneCommitGroup(SenderCrashes):
    """An acknowledgment's arrival and the evaluation it triggers (the
    ack's get, the decision) are one commit group: wherever the sender
    dies while taking the ack in, a restart finds no acknowledgment left
    on the ack queue, and the message wholly undecided or wholly
    decided."""

    def test_every_crash_point_leaves_no_unevaluated_ack(self, scheme, tmp_path):
        store, flushes, _clock = self.run_to_crash(
            scheme, "success", tmp_path / "dry", None
        )
        store.close()
        seen = set()
        for crash_at in range(flushes):
            for hook in ("on_pre_flush", "on_post_flush"):
                directory = tmp_path / f"{hook}{crash_at}"
                store, _flushes, clock = self.run_to_crash(
                    scheme, "success", directory, crash_at, hook
                )
                sender = self.restart(scheme, directory, clock, store)
                state = (sender.depth("DS.ACK.Q"),) + self.state(sender)
                # (ack queue, log entry, staged compensation, outcome)
                assert state in {(0, 1, 1, 0), (0, 0, 0, 1)}, (hook, crash_at, state)
                seen.add(state)
                (sender.journal or sender.store).close()
        assert seen == {(0, 1, 1, 0), (0, 0, 0, 1)}


@pytest.mark.parametrize("scheme", sorted(JOURNAL_SCHEMES))
class TestReadIsOneCommitGroup:
    """A non-transactional read — the get, the receiver-log entry and the
    acknowledgment spooled for the sender — is one commit group: wherever
    the receiver dies while reading, a restart finds the message unread
    (in the inbox, not logged, no ack) or read (gone, logged, one ack
    spooled)."""

    def run_to_crash(self, scheme, tmp_path, crash_at, hook="on_pre_flush"):
        """Deliver one conditional message, stop the ack's channel, then
        read with a crash raised from ``hook`` at the read's
        ``crash_at``-th flush (None: no crash).  Returns the receiver's
        store and the flushes the read made."""
        from repro.core.builder import destination, destination_set
        from repro.core.receiver import ConditionalMessagingReceiver
        from repro.core.service import ConditionalMessagingService
        from repro.mq.network import MessageNetwork

        clock = SimulatedClock()
        store = journal_factory_for(scheme, str(tmp_path), sync="none")("QM.R")
        network = MessageNetwork(scheduler=None)
        sender = network.add_manager(QueueManager("QM.S", clock))
        remote = network.add_manager(QueueManager("QM.R", clock, journal=store))
        remote.ensure_queue("Q.R")
        network.connect("QM.S", "QM.R")
        network.connect("QM.R", "QM.S")
        receiver = ConditionalMessagingReceiver(remote, recipient_id="R1")
        ConditionalMessagingService(sender).send_message(
            {"n": 1},
            destination_set(
                destination("Q.R", manager="QM.R", recipient="R1"),
                msg_pick_up_time=1_000,
            ),
        )
        network.stop_channel("QM.R", "QM.S")  # the ack stays spooled
        calls = []

        def crash(_count):
            calls.append(_count)
            if len(calls) - 1 == crash_at:
                raise SimulatedCrash()

        setattr(store, hook, crash)
        if crash_at is None:
            assert receiver.read_message("Q.R").cmid is not None
        else:
            with pytest.raises(SimulatedCrash):
                receiver.read_message("Q.R")
        setattr(store, hook, None)
        return store, len(calls)

    def state(self, scheme, tmp_path, store):
        """(inbox, receiver log, spooled acks) after a restart."""
        if JOURNAL_SCHEMES[scheme][2]:  # path-backed: a new process reopens it
            store.close()
            store = journal_factory_for(scheme, str(tmp_path), sync="none")("QM.R")
        remote = QueueManager.recover("QM.R", SimulatedClock(), store)
        spool = "SYSTEM.XMIT.QM.S"
        state = (
            remote.depth("Q.R"),
            remote.depth("DS.RLOG.Q") if remote.has_queue("DS.RLOG.Q") else 0,
            remote.depth(spool) if remote.has_queue(spool) else 0,
        )
        store.close()
        return state

    def test_every_crash_point_recovers_unread_or_read(self, scheme, tmp_path):
        store, flushes = self.run_to_crash(scheme, tmp_path / "dry", None)
        assert self.state(scheme, tmp_path / "dry", store) == (0, 1, 1)
        seen = set()
        for crash_at in range(flushes):
            for hook in ("on_pre_flush", "on_post_flush"):
                directory = tmp_path / f"{hook}{crash_at}"
                store, _flushes = self.run_to_crash(scheme, directory, crash_at, hook)
                state = self.state(scheme, directory, store)
                assert state in {(1, 0, 0), (0, 1, 1)}, (hook, crash_at, state)
                seen.add(state)
        assert seen == {(1, 0, 0), (0, 1, 1)}


class RewriteCountingJournal(MemoryJournal):
    """A memory journal that counts the records its rewrites write."""

    records_rewritten = 0

    def rewrite(self, records):
        super().rewrite(records)
        self.records_rewritten += self.size()


class TestAutoCompaction:
    """Runtime compaction follows the doubling-array rule: a log is
    rewritten once it holds ``compaction_threshold`` records *and* twice
    what the last rewrite or restart found live, so the threshold is a
    floor and each appended record is rewritten about once on average."""

    def test_threshold_triggers_checkpoint(self, clock):
        journal = MemoryJournal(compaction_threshold=20)
        manager = QueueManager("QM.C", clock, journal=journal)
        manager.define_queue("A.Q")
        for i in range(40):
            manager.put("A.Q", Message(body=i))
            manager.get("A.Q")
        assert journal.rewrites >= 1
        # The live log never grows far past the threshold.
        assert journal.size() <= 20 + 5
        recovered = QueueManager.recover("QM.C", clock, journal)
        assert list(recovered.browse("A.Q")) == []

    def test_no_compaction_inside_group_commit(self, clock):
        journal = MemoryJournal(compaction_threshold=5)
        manager = QueueManager("QM.C", clock, journal=journal)
        manager.define_queue("A.Q")
        with manager.group_commit():
            for i in range(30):
                manager.put("A.Q", Message(body=i))
            assert journal.rewrites == 0  # deferred past the commit group
        assert journal.rewrites == 1
        recovered = QueueManager.recover("QM.C", clock, journal)
        assert len(list(recovered.browse("A.Q"))) == 30

    def test_live_puts_past_the_threshold_do_not_rewrite_at_every_append(self, clock):
        journal = MemoryJournal(compaction_threshold=100)
        manager = QueueManager("QM.C", clock, journal=journal)
        manager.define_queue("A.Q")
        for i in range(300):
            manager.put("A.Q", Message(body=i))
        assert journal.rewrites <= 3
        recovered = QueueManager.recover("QM.C", clock, journal)
        assert [m.body for m in recovered.browse("A.Q")] == list(range(300))

    @pytest.mark.parametrize("seed", range(4))
    def test_records_rewritten_stay_within_twice_the_records_appended(self, clock, seed):
        threshold = 40
        rng = random.Random(seed)
        journal = RewriteCountingJournal(compaction_threshold=threshold)
        manager = QueueManager("QM.C", clock, journal=journal)
        queues = ("A.Q", "B.Q", "C.Q")
        for queue in queues:
            manager.define_queue(queue)
        for n in range(3_000):
            queue = rng.choice(queues)
            # Growth phases and drain phases, so the live set swings.
            put_share = 0.8 if (n // 500) % 2 == 0 else 0.3
            if rng.random() < put_share:
                mode = (
                    DeliveryMode.PERSISTENT
                    if rng.random() < 0.9
                    else DeliveryMode.NON_PERSISTENT
                )
                manager.put(queue, Message(body=n, delivery_mode=mode))
            elif manager.depth(queue):
                manager.get(queue)
            assert (
                journal.records_rewritten
                <= 2 * journal.records_written + threshold
            )
        assert journal.rewrites >= 3
        live = {
            queue: [m.message_id for m in manager.browse(queue) if m.is_persistent()]
            for queue in queues
        }
        recovered = QueueManager.recover("QM.C", clock, journal)
        assert {q: [m.message_id for m in recovered.browse(q)] for q in queues} == live

    @pytest.mark.parametrize("scheme", ["memory", "binfile"])
    def test_a_restart_that_keeps_the_log_seeds_the_rule(self, clock, scheme, tmp_path):
        path = str(tmp_path / "seed.journal")

        def open_journal(threshold=None):
            if scheme == "memory":
                return MemoryJournal(compaction_threshold=threshold)
            return FileJournal(path, sync="none", compaction_threshold=threshold)

        journal = open_journal()
        manager = QueueManager("QM.C", clock, journal=journal)
        manager.define_queue("A.Q")
        for i in range(150):
            manager.put("A.Q", Message(body=i))
        for _ in range(20):
            manager.get("A.Q")
        if scheme == "memory":
            journal.compaction_threshold = 100
        else:
            journal.close()
            journal = open_journal(100)
        # 130 live puts, well past the threshold; 20 of 171 records dead.
        recovered = QueueManager.recover("QM.C", clock, journal)
        assert (journal.recover_compacted, journal.rewrites) == (0, 0)
        recovered.put("A.Q", Message(body="one more"))
        assert journal.rewrites == 0
        live = journal.snapshot_records
        while journal.size() < 2 * live - 1:
            recovered.put("A.Q", Message(body="filler"))
        assert journal.rewrites == 0
        recovered.put("A.Q", Message(body="doubled"))
        assert journal.rewrites == 1
        journal.close()


def _run_workload(clock, journal, seed, use_batching):
    """Drive one randomized put/get interleaving; returns the manager.

    ``use_batching=True`` routes puts through ``put_many`` under
    ``group_commit``; ``False`` uses per-record ``put``/``get`` journaling.
    The random stream depends only on ``seed``, so both modes see the
    identical operation sequence.
    """
    rng = random.Random(seed)
    manager = QueueManager("QM.EQ", clock, journal=journal)
    for q in ("A.Q", "B.Q"):
        manager.define_queue(q)
    counter = 0
    for _step in range(30):
        op = rng.choice(["put_batch", "put_one", "get", "get"])
        queue = rng.choice(["A.Q", "B.Q"])
        if op == "put_batch":
            size = rng.randint(1, 5)
            batch = []
            for _ in range(size):
                mode = (
                    DeliveryMode.PERSISTENT
                    if rng.random() < 0.8
                    else DeliveryMode.NON_PERSISTENT
                )
                batch.append(
                    Message(
                        body=counter,
                        priority=rng.randint(0, 9),
                        delivery_mode=mode,
                    )
                )
                counter += 1
            if use_batching:
                with manager.group_commit():
                    manager.put_many(queue, batch)
            else:
                for message in batch:
                    manager.put(queue, message)
        elif op == "put_one":
            message = Message(body=counter, priority=rng.randint(0, 9))
            counter += 1
            if use_batching:
                manager.put_many(queue, [message])
            else:
                manager.put(queue, message)
        elif manager.depth(queue) > 0:
            manager.get(queue)
    return manager


def _state(manager, persistent_only=False):
    return {
        q: [
            (m.body, m.priority)
            for m in manager.browse(q)
            if m.is_persistent() or not persistent_only
        ]
        for q in ("A.Q", "B.Q")
    }


def _recovered_state(clock, journal):
    return _state(QueueManager.recover("QM.EQ", clock, journal))


#: schemes whose store survives in a file a fresh object can reopen
PATH_SCHEMES = [s for s in sorted(JOURNAL_SCHEMES) if JOURNAL_SCHEMES[s][2]]


class TestRecoveryEquivalence:
    """Property: group-committed journaling recovers the same state as
    per-record journaling over arbitrary put/get interleavings."""

    @pytest.mark.parametrize("seed", range(12))
    def test_memory_journal_equivalence(self, clock, seed):
        batched, unbatched = MemoryJournal(sync="batch"), MemoryJournal()
        _run_workload(clock, batched, seed, use_batching=True)
        _run_workload(clock, unbatched, seed, use_batching=False)
        state_b = _recovered_state(clock, batched)
        state_u = _recovered_state(clock, unbatched)
        assert state_b == state_u
        # The batched journal really did batch: fewer flushes, same records.
        assert batched.flush_count < unbatched.flush_count

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme", PATH_SCHEMES)
    def test_equivalence_across_restart(self, clock, scheme, seed, tmp_path):
        def open_pair(**kwargs):
            return [
                journal_factory_for(scheme, str(tmp_path), **kwargs)(name)
                for name in ("batched", "unbatched")
            ]

        batched, unbatched = open_pair(sync="batch")
        _run_workload(clock, batched, seed, use_batching=True)
        _run_workload(clock, unbatched, seed, use_batching=False)
        batched.close()
        unbatched.close()
        # Fresh store objects = a process restart.
        reopened_b, reopened_u = open_pair()
        assert _recovered_state(clock, reopened_b) == _recovered_state(
            clock, reopened_u
        )
        reopened_b.close()
        reopened_u.close()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_cross_backend_equivalence(self, clock, seed, tmp_path):
        """The same batched op sequence recovers identical persistent
        state from every store of the scheme table."""
        persistent = {}
        for scheme in sorted(JOURNAL_SCHEMES):
            journal = journal_factory_for(scheme, str(tmp_path), sync="batch")(
                f"eq-{scheme}"  # file: and binfile: share a suffix
            )
            crashed = _run_workload(clock, journal, seed, use_batching=True)
            persistent[scheme] = _state(crashed, persistent_only=True)
            recovered = _recovered_state(clock, journal)
            if scheme == "sqlstore":
                # The database outlives the manager: non-persistent
                # messages are still there after the restart.
                assert recovered == _state(crashed)
            else:
                assert recovered == persistent[scheme]
            journal.close()
        for scheme in JOURNAL_SCHEMES:
            assert persistent[scheme] == persistent["memory"]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_equivalence_with_auto_compaction(self, clock, seed):
        batched = MemoryJournal(sync="batch", compaction_threshold=25)
        unbatched = MemoryJournal()
        _run_workload(clock, batched, seed, use_batching=True)
        _run_workload(clock, unbatched, seed, use_batching=False)
        assert _recovered_state(clock, batched) == _recovered_state(
            clock, unbatched
        )
