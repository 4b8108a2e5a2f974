"""Unit tests for the sender-side service facade (paper §2.7, Fig. 9)."""

import pytest

from repro.core import control
from repro.core.builder import destination, destination_set
from repro.core.logqueues import (
    ACK_QUEUE,
    COMPENSATION_QUEUE,
    OUTCOME_QUEUE,
    SENDER_LOG_QUEUE,
    SenderLogEntry,
)
from repro.core.outcome import MessageOutcome
from repro.core.serialize import condition_from_dict
from repro.errors import ConditionValidationError, UnknownConditionalMessageError


def alice_condition(deadline=1_000, **kwargs):
    return destination_set(
        destination("Q.IN", manager="QM.R", recipient="alice",
                    msg_pick_up_time=deadline),
        **kwargs,
    )


class TestSystemQueues:
    def test_queues_created_on_construction(self, duo):
        for queue in (ACK_QUEUE, SENDER_LOG_QUEUE, COMPENSATION_QUEUE, OUTCOME_QUEUE):
            assert duo.sender_qm.has_queue(queue)


class TestSendMessage:
    def test_invalid_condition_rejected_before_any_send(self, duo):
        bad = destination_set(destination("Q.A"), min_nr_pick_up=1)
        with pytest.raises(ConditionValidationError):
            duo.service.send_message("x", bad)
        assert duo.service.stats.conditional_sends == 0
        assert duo.sender_qm.depth(SENDER_LOG_QUEUE) == 0

    def test_leaf_naming_the_senders_own_manager_is_a_duplicate(self, duo):
        # Both leaves mean QM.S's Q.A read by bob; accepted, the second
        # would take every ack and the first could only fail at timeout.
        twice = destination_set(
            destination("Q.A", recipient="bob", msg_pick_up_time=100),
            destination("Q.A", manager="QM.S", recipient="bob", msg_pick_up_time=100),
        )
        duo.sender_qm.define_queue("Q.A")
        with pytest.raises(ConditionValidationError, match="duplicate"):
            duo.service.send_message("x", twice)
        assert duo.service.stats.conditional_sends == 0
        assert duo.sender_qm.depth(SENDER_LOG_QUEUE) == 0
        assert duo.sender_qm.depth("Q.A") == 0

    def test_send_writes_slog_entry(self, duo):
        cmid = duo.service.send_message({"x": 1}, alice_condition())
        entries = [
            SenderLogEntry.from_message(m)
            for m in duo.sender_qm.browse(SENDER_LOG_QUEUE)
        ]
        assert len(entries) == 1
        entry = entries[0]
        assert entry.cmid == cmid
        assert entry.destinations == [{"manager": "QM.R", "queue": "Q.IN"}]
        assert entry.has_compensation is True
        # The logged condition is reconstructible.
        condition_from_dict(entry.condition).validate()

    def test_send_stages_compensation_by_default(self, duo):
        duo.service.send_message("x", alice_condition())
        assert duo.service.compensation.pending() == 1

    def test_stage_compensation_opt_out(self, duo):
        duo.service.send_message("x", alice_condition(), stage_compensation=False)
        assert duo.service.compensation.pending() == 0

    def test_standard_messages_reach_destination(self, duo):
        duo.service.send_message({"payload": 9}, alice_condition())
        duo.deliver()
        assert duo.receiver_qm.depth("Q.IN") == 1

    def test_stats_track_generation(self, duo):
        condition = destination_set(
            destination("Q.IN", manager="QM.R", copies=3),
            msg_pick_up_time=100,
        )
        duo.service.send_message("x", condition)
        assert duo.service.stats.conditional_sends == 1
        assert duo.service.stats.standard_messages_generated == 3
        assert duo.service.stats.compensations_staged == 3


class TestEffectiveTimeout:
    def test_explicit_argument_wins(self, duo):
        cmid = duo.service.send_message(
            "x", alice_condition(evaluation_timeout=5_000),
            evaluation_timeout_ms=42,
        )
        assert duo.service.evaluation.record(cmid).evaluation_timeout_ms == 42

    def test_condition_attribute_next(self, duo):
        cmid = duo.service.send_message(
            "x", alice_condition(evaluation_timeout=5_000)
        )
        assert duo.service.evaluation.record(cmid).evaluation_timeout_ms == 5_000

    def test_default_is_max_deadline_plus_grace(self, duo):
        cmid = duo.service.send_message("x", alice_condition(deadline=700))
        assert duo.service.evaluation.record(cmid).evaluation_timeout_ms == 1_700

    def test_no_deadlines_means_no_timeout(self, duo):
        condition = destination_set(destination("Q.IN", manager="QM.R"))
        cmid = duo.service.send_message("x", condition)
        assert duo.service.evaluation.record(cmid).evaluation_timeout_ms is None


class TestOutcomes:
    def test_success_outcome_notification_on_outcome_queue(self, duo):
        cmid = duo.service.send_message("x", alice_condition())
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        outcomes = duo.service.poll_outcome_notifications()
        assert len(outcomes) == 1
        assert outcomes[0].cmid == cmid
        assert outcomes[0].outcome is MessageOutcome.SUCCESS

    def test_outcome_accessor(self, duo):
        cmid = duo.service.send_message("x", alice_condition())
        assert duo.service.outcome(cmid) is None
        assert duo.service.pending_count() == 1
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert duo.service.outcome(cmid).succeeded
        assert duo.service.pending_count() == 0

    def test_unknown_cmid_raises(self, duo):
        with pytest.raises(UnknownConditionalMessageError):
            duo.service.outcome("CM-GHOST")

    def test_failure_releases_compensation(self, duo):
        duo.service.send_message("x", alice_condition(deadline=100))
        duo.run_all()  # timeout at 1100 fails the message
        assert duo.service.stats.compensations_released == 1
        assert duo.service.compensation.pending() == 0

    def test_success_discards_compensation(self, duo):
        duo.service.send_message("x", alice_condition())
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert duo.service.compensation.pending() == 0
        assert duo.service.stats.compensations_released == 0

    def test_success_notifications_only_when_enabled(self, duo):
        duo.service.send_message("x", alice_condition())
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert duo.service.stats.success_notifications_sent == 0

    def test_send_success_notifications_explicit(self, duo):
        cmid = duo.service.send_message("x", alice_condition())
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert duo.service.send_success_notifications(cmid) == 1
        duo.deliver()
        note = duo.receiver.read_message("Q.IN")
        assert note.is_success_notification

    def test_deferral_callback_suppresses_actions(self, duo):
        deferred = []
        cmid = duo.service.send_message(
            "x",
            alice_condition(deadline=100),
            _defer_actions=deferred.append,
        )
        duo.run_all()
        assert len(deferred) == 1
        assert deferred[0].outcome is MessageOutcome.FAILURE
        # Actions deferred: compensation still staged.
        assert duo.service.compensation.pending() == 1
        # The sphere (here: the test) later applies the group outcome.
        duo.service.apply_outcome_actions(cmid, MessageOutcome.FAILURE)
        assert duo.service.compensation.pending() == 0


class TestPollMode:
    def test_poll_decides_without_scheduler(self, clock, sync_network):
        from repro.core.receiver import ConditionalMessagingReceiver
        from repro.core.service import ConditionalMessagingService
        from repro.mq.manager import QueueManager

        sender_qm = sync_network.add_manager(QueueManager("QM.S", clock))
        receiver_qm = sync_network.add_manager(QueueManager("QM.R", clock))
        sync_network.connect("QM.S", "QM.R")
        service = ConditionalMessagingService(sender_qm, scheduler=None)
        receiver = ConditionalMessagingReceiver(receiver_qm, recipient_id="alice")
        cmid = service.send_message("x", alice_condition(deadline=100))
        clock.advance(2_000)
        assert service.outcome(cmid) is None
        assert service.poll() == 1
        assert not service.outcome(cmid).succeeded
