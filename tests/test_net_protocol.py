"""Sans-IO ChannelEngine: handshake, acks, retransmission, resync, credit."""

import pytest

from repro.mq.message import Message
from repro.net.framing import FrameError, encode_msg_frame
from repro.net.protocol import ChannelEngine, ProtocolError
from repro.net.rtt import RttEstimator


def make_pair(window=8, initial_rto=1000.0):
    sender = ChannelEngine("QM.SENDER", "sender", initial_rto_ms=initial_rto)
    receiver = ChannelEngine("QM.RECV", "receiver", window=window)
    return sender, receiver


def connect(sender, receiver, now=0.0):
    sender.connection_established(now)
    receiver.connection_established(now)
    # sender HELLO -> receiver; receiver HELLO -> sender
    ev_r = receiver.receive_bytes(sender.data_to_send(), now)
    ev_s = sender.receive_bytes(receiver.data_to_send(), now)
    return ev_s, ev_r


def pump(src, dst, now):
    """Move one direction of bytes; return events at dst."""
    data = src.data_to_send()
    if not data:
        return []
    return dst.receive_bytes(data, now)


def msg(message_id):
    return Message(body={"id": message_id}, message_id=message_id)


MSG = Message(body={"k": "v"}, message_id="m-1")


class TestHandshake:
    def test_connect_handshake(self):
        sender, receiver = make_pair(window=5)
        ev_s, ev_r = connect(sender, receiver)
        assert [e.kind for e in ev_r] == ["hello"]
        assert ev_r[0].manager == "QM.SENDER"
        assert [e.kind for e in ev_s] == ["handshaken"]
        assert sender.handshaken and receiver.handshaken
        assert sender.peer_window == 5
        assert sender.can_send()

    def test_cannot_send_before_handshake(self):
        sender = ChannelEngine("QM.S", "sender")
        sender.connection_established(0.0)
        assert not sender.can_send()

    def test_double_connect_rejected(self):
        sender = ChannelEngine("QM.S", "sender")
        sender.connection_established(0.0)
        with pytest.raises(ProtocolError):
            sender.connection_established(1.0)


class TestDeliveryAndAcks:
    def test_send_confirm_ack_delivered(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        seq = sender.send_message("Q1", MSG, "m-1", now_ms=10.0)
        assert seq == 1
        events = pump(sender, receiver, 15.0)
        assert [e.kind for e in events] == ["message"]
        assert events[0].queue == "Q1"
        assert vars(events[0].message) == vars(MSG)

        # No ack rides the wire until delivery is confirmed (journaled).
        assert receiver.data_to_send() == b""
        receiver.confirm_delivery(1)
        ev = pump(receiver, sender, 20.0)
        assert [e.kind for e in ev] == ["delivered"]
        assert ev[0].message_id == "m-1"
        assert sender.in_flight == 0

    def test_ack_gives_rtt_sample(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        sender.send_message("Q1", MSG, "m-1", now_ms=100.0)
        pump(sender, receiver, 150.0)
        receiver.confirm_delivery(1)
        pump(receiver, sender, 600.0)  # 500ms round trip
        assert sender.rtt.samples == 1
        assert sender.rtt.srtt == pytest.approx(500.0)

    def test_duplicate_msg_suppressed_and_reacked(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        sender.send_message("Q1", MSG, "m-1", now_ms=0.0)
        wire = sender.data_to_send()
        receiver.receive_bytes(wire, 1.0)
        receiver.confirm_delivery(1)
        receiver.data_to_send()  # drop the ack on the floor
        # Replay the same MSG frame (retransmit racing the ack).
        events = receiver.receive_bytes(wire, 2.0)
        assert events == []
        assert receiver.metrics["duplicates"] == 1
        # The duplicate triggered a fresh ack.
        ev = pump(receiver, sender, 3.0)
        assert [e.kind for e in ev] == ["delivered"]

    def test_sequence_gap_is_fatal(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        # Hand-craft seq 5 out of nowhere.
        rogue = encode_msg_frame("Q1", MSG, 5)
        with pytest.raises(ProtocolError, match="gap"):
            receiver.receive_bytes(rogue, 0.0)

    def test_confirm_beyond_cursor_rejected(self):
        _, receiver = make_pair()
        receiver.connection_established(0.0)
        with pytest.raises(ProtocolError):
            receiver.confirm_delivery(3)

    def test_corrupt_stream_raises_frame_error(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        with pytest.raises(FrameError):
            receiver.receive_bytes(b"\x00garbage bytes", 0.0)


class TestCredit:
    def test_window_exhaustion_blocks_send(self):
        sender, receiver = make_pair(window=2)
        connect(sender, receiver)
        sender.send_message("Q1", msg("a"), "a", 0.0)
        sender.send_message("Q1", msg("b"), "b", 0.0)
        assert not sender.can_send()
        with pytest.raises(Exception):
            sender.send_message("Q1", msg("c"), "c", 0.0)

    def test_ack_restores_credit(self):
        sender, receiver = make_pair(window=2)
        connect(sender, receiver)
        sender.send_message("Q1", msg("a"), "a", 0.0)
        sender.send_message("Q1", msg("b"), "b", 0.0)
        pump(sender, receiver, 1.0)
        receiver.confirm_delivery(2)
        pump(receiver, sender, 2.0)
        assert sender.in_flight == 0
        assert sender.can_send()

    def test_window_reopen_emits_standalone_ack(self):
        sender, receiver = make_pair(window=1)
        connect(sender, receiver)
        receiver.advertise_window(0)
        pump(receiver, sender, 1.0)
        assert sender.peer_window == 0
        assert not sender.can_send()
        receiver.advertise_window(4)
        ev = pump(receiver, sender, 2.0)
        assert any(e.kind == "window" and e.window == 4 for e in ev)
        assert sender.can_send()


class TestRetransmission:
    def test_timer_fires_after_rto_and_backs_off(self):
        sender, receiver = make_pair(initial_rto=100.0)
        connect(sender, receiver)
        sender.send_message("Q1", MSG, "m-1", now_ms=0.0)
        sender.data_to_send()  # lost on the wire
        assert sender.next_timer(0.0) == pytest.approx(100.0)
        assert sender.on_timer(50.0) == 0  # not due yet
        resent = sender.on_timer(100.0)
        assert resent == 1
        assert sender.metrics["retransmits"] == 1
        assert sender.rtt.rto == pytest.approx(200.0)  # doubled
        # Next deadline from the retransmit time.
        assert sender.next_timer(100.0) == pytest.approx(300.0)

    def test_retransmit_delivers_and_karn_suppresses_sample(self):
        sender, receiver = make_pair(initial_rto=100.0)
        connect(sender, receiver)
        sender.send_message("Q1", MSG, "m-1", now_ms=0.0)
        sender.data_to_send()  # first copy lost
        sender.on_timer(100.0)
        events = pump(sender, receiver, 110.0)
        assert [e.kind for e in events] == ["message"]
        receiver.confirm_delivery(1)
        ev = pump(receiver, sender, 120.0)
        assert [e.kind for e in ev] == ["delivered"]
        # Karn: the acked send was retransmitted -> no RTT sample.
        assert sender.rtt.samples == 0

    def test_go_back_n_retransmits_whole_window_in_order(self):
        sender, receiver = make_pair(window=8, initial_rto=100.0)
        connect(sender, receiver)
        for i in range(3):
            sender.send_message("Q1", msg(f"m{i}"), f"m{i}", now_ms=0.0)
        sender.data_to_send()  # all lost
        assert sender.on_timer(100.0) == 3
        events = pump(sender, receiver, 101.0)
        assert [e.data["seq"] for e in events] == [1, 2, 3]

    def test_no_timer_when_idle_or_disconnected(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        assert sender.next_timer(0.0) is None
        sender.send_message("Q1", MSG, "m-1", 0.0)
        sender.connection_lost(1.0)
        assert sender.next_timer(2.0) is None
        assert sender.on_timer(10_000.0) == 0


class TestReconnectResync:
    def test_resync_drops_confirmed_and_retransmits_rest(self):
        sender, receiver = make_pair(window=8)
        connect(sender, receiver)
        for i in range(3):
            sender.send_message("Q1", msg(f"m{i}"), f"m{i}", now_ms=0.0)
        pump(sender, receiver, 1.0)
        receiver.confirm_delivery(2)  # m0, m1 durable; ack lost with the conn
        receiver.data_to_send()
        sender.connection_lost(5.0)
        receiver.connection_lost(5.0)

        ev_s, ev_r = connect(sender, receiver, now=10.0)
        # Sender learns seq<=2 were delivered (resolve spool) on HELLO.
        delivered = [e for e in ev_s if e.kind == "delivered"]
        assert [e.seq for e in delivered] == [1, 2]
        assert sender.in_flight == 1
        # The unconfirmed m2 was retransmitted inside the handshake and
        # arrives as a fresh message, not a duplicate.
        events = [e for e in ev_r if e.kind == "message"]
        # ev_r only covers the HELLO exchange; pump the retransmit.
        events += pump(sender, receiver, 11.0)
        msg_events = [e for e in events if e.kind == "message"]
        assert [e.data["seq"] for e in msg_events] == [3]
        assert receiver.metrics["duplicates"] == 0

    def test_unconfirmed_redelivery_after_receiver_epoch_reset(self):
        # Receiver got seq 1 but never confirmed (crash before journal):
        # after reconnect the sender must resend it and the receiver must
        # deliver it again (message-id dedup upstairs decides).
        sender, receiver = make_pair()
        connect(sender, receiver)
        sender.send_message("Q1", MSG, "m-1", now_ms=0.0)
        pump(sender, receiver, 1.0)  # delivered but NOT confirmed
        sender.connection_lost(2.0)
        receiver.connection_lost(2.0)
        ev_s, _ = connect(sender, receiver, now=3.0)
        assert not [e for e in ev_s if e.kind == "delivered"]
        events = pump(sender, receiver, 4.0)
        assert [e.kind for e in events] == ["message"]
        assert events[0].data["seq"] == 1

    def test_seq_numbers_continue_across_epochs(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        sender.send_message("Q1", msg("a"), "a", 0.0)
        pump(sender, receiver, 1.0)
        receiver.confirm_delivery(1)
        pump(receiver, sender, 2.0)
        sender.connection_lost(3.0)
        receiver.connection_lost(3.0)
        connect(sender, receiver, now=4.0)
        seq = sender.send_message("Q1", msg("b"), "b", 5.0)
        assert seq == 2
        events = pump(sender, receiver, 6.0)
        assert [e.data["seq"] for e in events] == [2]

    def test_reconnect_metric_counts_only_reconnects(self):
        sender, receiver = make_pair()
        connect(sender, receiver)
        assert sender.metrics["reconnects"] == 0
        sender.connection_lost(1.0)
        receiver.connection_lost(1.0)
        connect(sender, receiver, now=2.0)
        assert sender.metrics["reconnects"] == 1


class TestRoleGuards:
    def test_receiver_cannot_send(self):
        _, receiver = make_pair()
        with pytest.raises(ProtocolError):
            receiver.send_message("Q", MSG, "m", 0.0)

    def test_sender_cannot_confirm(self):
        sender, _ = make_pair()
        with pytest.raises(ProtocolError):
            sender.confirm_delivery(1)

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ChannelEngine("QM", "router")
