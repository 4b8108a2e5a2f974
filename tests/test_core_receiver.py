"""Unit tests for the receiver-side service (paper §2.4, §2.6)."""

import pytest

from repro.core import control
from repro.core.acks import AckKind, ack_from_message
from repro.core.builder import destination, destination_set
from repro.core.logqueues import RECEIVER_LOG_QUEUE, ReceiverLogEntry
from repro.core.receiver import ConditionalMessagingReceiver
from repro.errors import NoTransactionError, TransactionActiveError


def send(duo, condition=None, **kwargs):
    condition = condition or destination_set(
        destination("Q.IN", manager="QM.R", recipient="alice", msg_pick_up_time=1_000)
    )
    return duo.service.send_message({"n": 1}, condition, **kwargs)


class TestNonTransactionalRead:
    def test_read_returns_body_and_metadata(self, duo):
        cmid = send(duo)
        duo.deliver()
        received = duo.receiver.read_message("Q.IN")
        assert received is not None
        assert received.body == {"n": 1}
        assert received.cmid == cmid
        assert received.is_conditional
        assert received.kind == control.KIND_ORIGINAL
        assert not received.is_compensation

    def test_read_generates_read_ack(self, duo):
        cmid = send(duo)
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        record = duo.service.evaluation.record(cmid)
        assert len(record.acks) == 1
        ack = record.acks[0]
        assert ack.kind is AckKind.READ
        assert ack.recipient == "alice"
        assert ack.commit_time_ms is None

    def test_read_logs_to_rlog(self, duo):
        cmid = send(duo)
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        entries = [
            ReceiverLogEntry.from_message(m)
            for m in duo.receiver_qm.browse(RECEIVER_LOG_QUEUE)
        ]
        assert len(entries) == 1
        assert entries[0].cmid == cmid
        assert entries[0].transactional is False

    def test_empty_queue_returns_none(self, duo):
        assert duo.receiver.read_message("Q.EMPTY") is None

    def test_plain_message_passthrough(self, duo):
        from repro.mq.message import Message

        duo.receiver_qm.ensure_queue("Q.IN")
        duo.receiver_qm.put("Q.IN", Message(body="raw"))
        received = duo.receiver.read_message("Q.IN")
        assert received.kind == "plain"
        assert not received.is_conditional
        assert duo.receiver.stats.acks_sent == 0

    def test_processing_required_flag_surfaces(self, duo):
        condition = destination_set(
            destination("Q.IN", manager="QM.R", recipient="alice",
                        msg_processing_time=1_000)
        )
        send(duo, condition)
        duo.deliver()
        assert duo.receiver.read_message("Q.IN").processing_required


class TestTransactionalRead:
    def test_commit_generates_processed_ack_with_both_timestamps(self, duo):
        cmid = send(duo)
        duo.deliver()
        duo.receiver.begin_tx()
        duo.receiver.read_message("Q.IN")
        duo.clock.advance(500)
        duo.receiver.commit_tx()
        duo.deliver()
        ack = duo.service.evaluation.record(cmid).acks[0]
        assert ack.kind is AckKind.PROCESSED
        assert ack.commit_time_ms == ack.read_time_ms + 500

    def test_no_ack_before_commit(self, duo):
        cmid = send(duo)
        duo.deliver()
        duo.receiver.begin_tx()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert duo.service.evaluation.record(cmid).acks == []
        duo.receiver.commit_tx()

    def test_abort_returns_message_and_sends_nothing(self, duo):
        cmid = send(duo)
        duo.deliver()
        duo.receiver.begin_tx()
        assert duo.receiver.read_message("Q.IN") is not None
        duo.receiver.abort_tx()
        duo.deliver()
        assert duo.service.evaluation.record(cmid).acks == []
        redelivered = duo.receiver.read_message("Q.IN")  # non-tx this time
        assert redelivered is not None
        assert redelivered.message.backout_count == 1

    def test_abort_discards_rlog_entry(self, duo):
        send(duo)
        duo.deliver()
        duo.receiver.begin_tx()
        duo.receiver.read_message("Q.IN")
        duo.receiver.abort_tx()
        assert duo.receiver_qm.depth(RECEIVER_LOG_QUEUE) == 0

    def test_exactly_one_ack_per_consumption(self, duo):
        """Paper: 'There will never be two acknowledgments generated for
        one receiver reading one message.'"""
        cmid = send(duo)
        duo.deliver()
        duo.receiver.begin_tx()
        duo.receiver.read_message("Q.IN")
        duo.receiver.commit_tx()
        duo.deliver()
        assert len(duo.service.evaluation.record(cmid).acks) == 1
        assert duo.receiver.stats.acks_sent == 1

    def test_demarcation_errors(self, duo):
        with pytest.raises(NoTransactionError):
            duo.receiver.commit_tx()
        with pytest.raises(NoTransactionError):
            duo.receiver.abort_tx()
        duo.receiver.begin_tx()
        with pytest.raises(TransactionActiveError):
            duo.receiver.begin_tx()
        duo.receiver.abort_tx()

    def test_in_transaction_flag(self, duo):
        assert not duo.receiver.in_transaction
        duo.receiver.begin_tx()
        assert duo.receiver.in_transaction
        duo.receiver.commit_tx()
        assert not duo.receiver.in_transaction


class TestCompensationRules:
    def failing_send(self, duo, comp_body=None):
        """A message whose deadline passes unread, releasing compensation."""
        condition = destination_set(
            destination("Q.IN", manager="QM.R", recipient="alice",
                        msg_pick_up_time=100),
            evaluation_timeout=200,
        )
        return duo.service.send_message({"n": 1}, condition, compensation=comp_body)

    def test_unread_original_cancelled_by_compensation(self, duo):
        self.failing_send(duo)
        duo.run_all()  # deadline passes; compensation released
        assert duo.receiver_qm.depth("Q.IN") == 2  # original + compensation
        assert duo.receiver.read_message("Q.IN") is None
        assert duo.receiver.stats.cancellations == 1
        assert duo.receiver_qm.depth("Q.IN") == 0

    def test_compensation_delivered_after_consumption(self, duo):
        """Read late (after the deadline) -> failure -> compensation is
        delivered to the app because the original WAS consumed."""
        self.failing_send(duo, comp_body={"undo": "it"})
        duo.scheduler.run_until(150)  # past the deadline, before timeout
        received = duo.receiver.read_message("Q.IN")
        assert received is not None  # late read of the original
        duo.run_all()  # timeout fires; failure; compensation released
        comp = duo.receiver.read_message("Q.IN")
        assert comp is not None
        assert comp.is_compensation
        assert comp.body == {"undo": "it"}
        assert comp.cmid == received.cmid

    def test_compensation_without_local_consumption_discarded(self, duo):
        """A compensation reaching a queue whose original was consumed by
        a *different* manager's log must not be delivered here.  Simulate
        by injecting a stray compensation message."""
        from repro.core import control as ctl
        from repro.mq.message import Message

        stray = ctl.attach_control(
            Message(body=None),
            cmid="CM-STRAY",
            kind=ctl.KIND_COMPENSATION,
            processing_required=False,
            ack_manager="QM.S",
            ack_queue="DS.ACK.Q",
            dest_queue="Q.IN",
            dest_manager="QM.R",
            send_time_ms=0,
        )
        duo.receiver_qm.ensure_queue("Q.IN")
        duo.receiver_qm.put("Q.IN", stray)
        assert duo.receiver.read_message("Q.IN") is None
        assert duo.receiver.stats.compensations_discarded == 1

    def test_compensation_follows_the_queue_not_the_manager(self, duo):
        """Two destination queues on ONE manager: A's copy is consumed,
        B's expires unread.  The RLOG entry for Q.A must not make Q.B's
        compensation deliverable — delivery is per consumed original."""
        reader_b = ConditionalMessagingReceiver(duo.receiver_qm, recipient_id="bob")
        condition = destination_set(
            destination("Q.A", manager="QM.R", recipient="alice",
                        msg_pick_up_time=1_000),
            destination("Q.B", manager="QM.R", recipient="bob",
                        msg_pick_up_time=1_000, msg_expiry=500),
            evaluation_timeout=2_000,
        )
        cmid = duo.service.send_message(
            {"n": 1}, condition, compensation={"undo": "it"}
        )
        duo.deliver()
        assert duo.receiver.read_message("Q.A").cmid == cmid
        duo.run_all()  # Q.B's original expires; timeout; compensations out
        assert reader_b.read_message("Q.B") is None
        assert reader_b.stats.compensations_delivered == 0
        assert reader_b.stats.compensations_discarded == 1
        comp = duo.receiver.read_message("Q.A")
        assert comp.is_compensation and comp.cmid == cmid

    def test_shared_queue_consumers_all_see_the_compensation_rule(self, duo):
        """Example 2's shape: several receivers on one queue share the
        manager's RLOG; whoever reads the compensation finds the entry."""
        other = ConditionalMessagingReceiver(duo.receiver_qm, recipient_id="bob")
        self.failing_send(duo, comp_body={"undo": "it"})
        duo.scheduler.run_until(150)
        assert duo.receiver.read_message("Q.IN") is not None  # alice, late
        duo.run_all()
        comp = other.read_message("Q.IN")  # bob picks up the compensation
        assert comp is not None and comp.is_compensation

    def test_success_notification_delivered(self, duo):
        duo.service.notify_success = True
        cmid = send(duo)
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()  # ack -> success -> notification
        note = duo.receiver.read_message("Q.IN")
        assert note is not None
        assert note.is_success_notification
        assert note.cmid == cmid


class TestReadAll:
    def test_drains_in_order(self, duo):
        for _ in range(3):
            send(duo)
        duo.deliver()
        received = duo.receiver.read_all("Q.IN")
        assert len(received) == 3

    def test_limit(self, duo):
        for _ in range(3):
            send(duo)
        duo.deliver()
        assert len(duo.receiver.read_all("Q.IN", limit=2)) == 2
