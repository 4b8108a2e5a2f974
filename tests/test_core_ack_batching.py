"""Acknowledgment batching: one wire message per drain, not per read.

A receiver draining N messages used to put N single-ack messages on the
sender's ``DS.ACK.Q`` — N remote puts, N journal flushes.  The batching
path (:meth:`ConditionalMessagingReceiver.ack_batch`,
:func:`repro.core.acks.acks_to_message`) folds them into one message per
(ack manager, ack queue) target, while single acks keep the legacy wire
shape for mixed-version peers.  These tests pin the wire format, the
decode errors, the receiver-side buffering, and the sender-side
evaluation of batched acks.
"""

import pytest

from repro.core import control
from repro.core.acks import (
    Acknowledgment,
    AckKind,
    ack_from_message,
    ack_to_message,
    acks_from_message,
    acks_to_message,
)
from repro.core.builder import destination, destination_set
from repro.core.logqueues import ACK_QUEUE
from repro.core.outcome import MessageOutcome
from repro.errors import ConditionalMessagingError
from repro.mq.message import Message


def make_ack(n, kind=AckKind.READ):
    return Acknowledgment(
        cmid=f"CM-{n}",
        kind=kind,
        queue="Q.IN",
        manager="QM.R",
        recipient="alice",
        read_time_ms=100 + n,
        commit_time_ms=200 + n if kind is AckKind.PROCESSED else None,
        original_message_id=f"MSG-{n}",
    )


def alice_condition(deadline=1_000):
    return destination_set(
        destination(
            "Q.IN", manager="QM.R", recipient="alice",
            msg_pick_up_time=deadline,
        )
    )


def capture_ack_messages(duo):
    """Record every message landing on the sender's ack queue."""
    captured = []
    duo.sender_qm.queue(ACK_QUEUE).subscribe(captured.append)
    return captured


class TestWireFormat:
    def test_single_ack_keeps_the_legacy_shape(self):
        ack = make_ack(1)
        batched = acks_to_message([ack])
        legacy = ack_to_message(ack)
        assert batched.body == legacy.body
        assert batched.priority == legacy.priority == 7
        assert batched.properties[control.PROP_CMID] == "CM-1"
        assert batched.properties[control.PROP_KIND] == control.KIND_ACK
        # Legacy decoder still reads it.
        assert ack_from_message(batched) == ack

    def test_batch_shape(self):
        acks = [make_ack(1), make_ack(2, AckKind.PROCESSED)]
        message = acks_to_message(acks)
        assert set(message.body) == {"batch"}
        assert len(message.body["batch"]) == 2
        assert message.priority == 7
        assert message.properties[control.PROP_KIND] == control.KIND_ACK

    def test_round_trip_preserves_order_and_content(self):
        acks = [make_ack(n, AckKind.PROCESSED) for n in range(5)]
        assert acks_from_message(acks_to_message(acks)) == acks

    def test_single_form_decodes_through_batch_decoder(self):
        ack = make_ack(1)
        assert acks_from_message(ack_to_message(ack)) == [ack]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConditionalMessagingError):
            acks_to_message([])

    @pytest.mark.parametrize(
        "body",
        [
            {"batch": []},  # empty batch
            {"batch": "nope"},  # non-list batch
            {"batch": [1, 2]},  # non-dict members
            {"batch": [{"cmid": "CM-1"}]},  # member missing fields
        ],
    )
    def test_malformed_batches_raise(self, body):
        with pytest.raises(ConditionalMessagingError):
            acks_from_message(Message(body=body))


class TestReceiverBuffering:
    def send_n(self, duo, n):
        cmids = [
            duo.service.send_message({"i": i}, alice_condition())
            for i in range(n)
        ]
        duo.deliver()
        return cmids

    def test_read_all_sends_one_ack_message_per_drain(self, duo):
        cmids = self.send_n(duo, 3)
        captured = capture_ack_messages(duo)
        assert len(duo.receiver.read_all("Q.IN")) == 3
        duo.deliver()
        assert len(captured) == 1
        acks = acks_from_message(captured[0])
        assert [a.cmid for a in acks] == cmids
        assert all(a.kind is AckKind.READ for a in acks)
        # The batched message still drives decisions for every member.
        for cmid in cmids:
            assert duo.service.outcome(cmid).outcome is MessageOutcome.SUCCESS
        assert duo.receiver.stats.acks_sent == 3  # logical count unchanged

    def test_commit_tx_batches_processed_acks(self, duo):
        cmids = self.send_n(duo, 2)
        captured = capture_ack_messages(duo)
        duo.receiver.begin_tx()
        assert duo.receiver.read_message("Q.IN") is not None
        assert duo.receiver.read_message("Q.IN") is not None
        assert captured == []  # nothing on the wire before commit
        duo.receiver.commit_tx()
        duo.deliver()
        assert len(captured) == 1
        acks = acks_from_message(captured[0])
        assert sorted(a.cmid for a in acks) == sorted(cmids)
        assert all(a.kind is AckKind.PROCESSED for a in acks)
        assert all(a.commit_time_ms is not None for a in acks)
        for cmid in cmids:
            assert duo.service.outcome(cmid).outcome is MessageOutcome.SUCCESS

    def test_nested_batches_join_the_outermost(self, duo):
        self.send_n(duo, 2)
        captured = capture_ack_messages(duo)
        with duo.receiver.ack_batch():
            with duo.receiver.ack_batch():
                duo.receiver.read_message("Q.IN")
            # Inner exit must not flush: the outer batch is still open.
            duo.deliver()
            assert captured == []
            duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert len(captured) == 1
        assert len(acks_from_message(captured[0])) == 2

    def test_batch_flushes_even_when_the_block_raises(self, duo):
        self.send_n(duo, 1)
        captured = capture_ack_messages(duo)
        with pytest.raises(RuntimeError):
            with duo.receiver.ack_batch():
                duo.receiver.read_message("Q.IN")
                raise RuntimeError("application failure mid-drain")
        duo.deliver()
        # The read happened; dropping its ack would leak a pending
        # condition, so the buffer flushes on the error path too.
        assert len(captured) == 1

    def test_single_read_outside_a_batch_is_unbatched(self, duo):
        cmids = self.send_n(duo, 2)
        captured = capture_ack_messages(duo)
        duo.receiver.read_message("Q.IN")
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert len(captured) == 2  # one wire message per read
        for message, cmid in zip(captured, cmids):
            assert ack_from_message(message).cmid == cmid


class TestCoalescedPump:
    def test_default_pump_is_immediate(self, duo):
        cmid = duo.service.send_message({"i": 0}, alice_condition())
        duo.deliver()
        duo.receiver.read_message("Q.IN")
        duo.deliver()
        assert duo.service.outcome(cmid).outcome is MessageOutcome.SUCCESS
