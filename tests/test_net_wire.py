"""WireHost: queue managers talking over real sockets.

Each test runs an asyncio loop inline (``asyncio.run``) with two or
more ``WireHost``-wrapped managers in the same process — real unix /
TCP sockets, real frames, real reconnects, no subprocesses (the
subprocess deployment is exercised by the harness runner tests).
"""

import asyncio
import pickle
import time

import pytest

from repro.core.builder import destination, destination_set
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.errors import ChannelError, QueueFullError
from repro.mq.manager import XMIT_PREFIX, QueueManager
from repro.mq.message import Message
from repro.mq.network import Transport
from repro.net.framing import FRAME_HELLO, FRAME_MSG, encode_frame, encode_json_frame
from repro.net.host import inbox_of, parse_addr, parse_peer
from repro.net.wire import WireHost
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import WallClock


#: ``("put", "IN.Q", 1, "m1", <body>)`` up to its body
ROW_HEAD = b"\x80\x05(\x8c\x03put\x8c\x04IN.QK\x01\x8c\x02m1"


def manager(name, metrics=None):
    return QueueManager(name, WallClock(), journal="memory:", metrics=metrics)


async def linked_pair(tmp_path, a="QM.A", b="QM.B", **host_kwargs):
    """A dialing host for ``a`` and a serving host for ``b`` (a -> b)."""
    ma, mb = manager(a), manager(b)
    hb = WireHost(mb, **host_kwargs.pop("b_kwargs", {}))
    await hb.serve_unix(str(tmp_path / "b.sock"))
    ha = WireHost(ma, **host_kwargs)
    ha.connect_unix(b, str(tmp_path / "b.sock"))
    await ha.wait_connected(b)
    return ma, mb, ha, hb


async def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


class TestUnixRoundtrip:
    def test_remote_put_crosses_processes(self, tmp_path):
        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            for i in range(5):
                ma.put_remote("QM.B", "IN.Q", Message(body={"n": i}))
            await ha.drain_outbound()
            assert mb.depth("IN.Q") == 5
            bodies = sorted(m.body["n"] for m in mb.queue("IN.Q").snapshot())
            assert bodies == list(range(5))
            # Acked transfers resolve the sender's spooled in-doubt copies.
            assert ma.depth(XMIT_PREFIX + "QM.B") == 0
            stats = ha.wire_stats()["out:QM.B"]
            assert stats["delivered"] == 5
            assert stats["retransmits"] == 0
            await ha.close()
            await hb.close()

        asyncio.run(main())

    def test_wire_host_is_a_transport(self, tmp_path):
        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            assert isinstance(ha, Transport)
            # Local target bypasses the wire entirely.
            ma.ensure_queue("LOCAL.Q")
            ha.send("QM.A", "QM.A", "LOCAL.Q", Message(body="here"))
            assert ma.depth("LOCAL.Q") == 1
            with pytest.raises(ChannelError):
                ha.send("QM.A", "QM.NOWHERE", "Q", Message(body="lost"))
            await ha.close()
            await hb.close()

        asyncio.run(main())

    def test_wire_metrics_reach_manager_registry(self, tmp_path):
        async def main():
            metrics = MetricsRegistry()
            ma = manager("QM.A", metrics=metrics)
            mb = manager("QM.B")
            hb = WireHost(mb)
            await hb.serve_unix(str(tmp_path / "b.sock"))
            ha = WireHost(ma)
            ha.connect_unix("QM.B", str(tmp_path / "b.sock"))
            await ha.wait_connected("QM.B")
            ma.put_remote("QM.B", "IN.Q", Message(body="x"))
            await ha.drain_outbound()
            assert metrics.counter("wire.frames_sent") > 0
            assert metrics.counter("wire.frames_received") > 0
            await ha.close()
            await hb.close()

        asyncio.run(main())

    def test_bodies_json_cannot_carry_arrive_whole(self, tmp_path):
        # The MSG payload is the journal's put row, so the wire carries
        # every body a journal accepts, types intact.
        bodies = [(1, "two"), b"\x00\xffraw", {"a", "b"}, {1: "one", 2: (3,)}]

        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            for body in bodies:
                ma.put_remote("QM.B", "IN.Q", Message(body=body))
            await ha.drain_outbound()
            arrived = [m.body for m in mb.browse("IN.Q")]
            assert arrived == bodies
            assert [type(b) for b in arrived] == [type(b) for b in bodies]
            await ha.close()
            await hb.close()

        asyncio.run(main())


    def test_the_row_alone_names_the_target_queue(self, tmp_path, monkeypatch):
        import repro.net.protocol as protocol

        encoded = []
        real_encode = protocol.encode_msg_frame

        def spy(queue, message, seq):
            encoded.append((queue, dict(message.properties)))
            return real_encode(queue, message, seq)

        monkeypatch.setattr(protocol, "encode_msg_frame", spy)

        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            ma.put_remote("QM.B", "IN.Q", Message(body=1, properties={"p": 2}))
            await ha.drain_outbound()
            # The spooled copy's envelope names the queue; the frame does not.
            assert encoded == [("IN.Q", {"SYS_ROUTE_TO_QM": "QM.B", "p": 2})]
            # A row whose property names another queue still lands on its own.
            reader, writer = await asyncio.open_unix_connection(str(tmp_path / "b.sock"))
            stray = Message(body=3, properties={"SYS_ROUTE_TO_Q": "OTHER.Q"})
            writer.write(
                encode_json_frame(FRAME_HELLO, {"manager": "QM.C", "role": "sender"})
                + real_encode("IN.Q", stray, 1)
            )
            await writer.drain()
            await wait_until(lambda: mb.depth("IN.Q") == 2)
            assert not mb.has_queue("OTHER.Q")
            writer.close()
            await ha.close()
            await hb.close()

        asyncio.run(main())


#: set by :class:`_Exploit` when (and only when) something unpickles it
PWNED = []


def _pwn():
    PWNED.append("unpickled")


class _Exploit:
    def __reduce__(self):
        return (_pwn, ())  # by reference: a bound ``PWNED.append`` would pickle a copy


class TestWireNeverRunsPeerBytes:
    """``framing.py`` promises a MSG payload is checked opcode by opcode,
    then read by a loader that can never resolve a global."""

    def test_payload_naming_a_global_is_a_protocol_error(self, tmp_path):
        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "b.sock")
            )
            writer.write(
                encode_json_frame(FRAME_HELLO, {"manager": "QM.EVIL", "role": "sender"})
                + encode_frame(FRAME_MSG, pickle.dumps(_Exploit()))
            )
            await writer.drain()
            # The host answers the HELLO, then drops the connection.
            while await asyncio.wait_for(reader.read(4096), timeout=5.0):
                pass
            writer.close()
            assert PWNED == []
            assert not mb.has_queue("IN.Q")  # nothing put, not even a queue
            stats = hb.wire_stats()["in:QM.EVIL"]
            assert stats["rejected"] == 1 and stats["delivered"] == 0
            assert hb._inbound["QM.EVIL"].confirmed == 0  # nothing acked
            # A well-formed peer is still served.
            ma.put_remote("QM.B", "IN.Q", Message(body={"n": 1}))
            await ha.drain_outbound()
            assert [m.body for m in mb.browse("IN.Q")] == [{"n": 1}]
            await ha.close()
            await hb.close()

        asyncio.run(main())

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x80\x05Nr" + (2**26).to_bytes(4, "little") + b".",
            # a put row whose body nests past the pickler's stack
            ROW_HEAD + b"]" * 50_000 + b"a" * 49_999 + b"t.",
            # t = (t, t) 64 times over, in a set: 2**64 hash steps
            ROW_HEAD + b")\x94"
            + b"".join(b"h%ch%c\x86\x94" % (i, i) for i in range(64))
            + b"\x8f(h@\x90t.",
        ],
        ids=["memo index", "nested past the stack", "shared tuple hashed"],
    )
    def test_hostile_payload_drops_the_connection(self, tmp_path, caplog, payload):
        async def main():
            mb = manager("QM.B")
            hb = WireHost(mb)
            await hb.serve_unix(str(tmp_path / "b.sock"))
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "b.sock")
            )
            writer.write(
                encode_json_frame(FRAME_HELLO, {"manager": "QM.EVIL", "role": "sender"})
                + encode_frame(FRAME_MSG, payload)
            )
            await writer.drain()
            # A valid CRC over a payload the host must refuse (a memo index
            # that would size a 1 GB memo; data no journal takes; a hash no
            # loader finishes): it answers the HELLO, then drops the
            # connection, and promptly.
            started = time.monotonic()
            while await asyncio.wait_for(reader.read(4096), timeout=5.0):
                pass
            assert time.monotonic() - started < 2.0
            writer.close()
            # It holds nothing, on any queue: a refused put leaves no copy.
            assert [mb.depth(q) for q in mb.queue_names() if mb.depth(q)] == []
            # A well-behaved peer connecting afterwards is served.
            ma = manager("QM.A")
            ha = WireHost(ma)
            ha.connect_unix("QM.B", str(tmp_path / "b.sock"))
            await ha.wait_connected("QM.B")
            ma.put_remote("QM.B", "IN.Q", Message(body={"n": 1}))
            await ha.drain_outbound()
            assert [m.body for m in mb.browse("IN.Q")] == [{"n": 1}]
            await ha.close()
            await hb.close()

        asyncio.run(main())
        assert not [
            record.getMessage()
            for record in caplog.records
            if "never retrieved" in record.getMessage()
            or "Unhandled exception" in record.getMessage()
        ]

    def test_unencodable_body_is_refused_before_the_spool(self, tmp_path):
        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            with pytest.raises(ChannelError, match="cannot cross the wire"):
                ma.put_remote("QM.B", "IN.Q", Message(body=_Exploit()))
            # Nothing unpumpable was parked (or journaled) on the spool.
            assert ma.depth(XMIT_PREFIX + "QM.B") == 0
            await ha.close()
            await hb.close()

        asyncio.run(main())


    def test_body_the_peer_would_refuse_is_refused_before_the_spool(self, tmp_path):
        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            colliding = {k * (2**61 - 1) for k in range(1, 100)}  # one hash
            with pytest.raises(ChannelError, match="cannot cross the wire"):
                ma.put_remote("QM.B", "IN.Q", Message(body=colliding))
            assert ma.depth(XMIT_PREFIX + "QM.B") == 0
            # the channel stays open for what the peer takes
            ma.put_remote("QM.B", "IN.Q", Message(body=set(range(99))))
            await ha.drain_outbound()
            assert [m.body for m in mb.browse("IN.Q")] == [set(range(99))]
            await ha.close()
            await hb.close()

        asyncio.run(main())


class TestTcpRoundtrip:
    def test_remote_put_over_tcp(self, tmp_path):
        async def main():
            ma, mb = manager("QM.A"), manager("QM.B")
            hb = WireHost(mb)
            host, port = await hb.serve_tcp("127.0.0.1", 0)
            ha = WireHost(ma)
            ha.connect_tcp("QM.B", host, port)
            await ha.wait_connected("QM.B")
            ma.put_remote("QM.B", "IN.Q", Message(body="tcp"))
            await ha.drain_outbound()
            assert mb.depth("IN.Q") == 1
            await ha.close()
            await hb.close()

        asyncio.run(main())


class TestReconnect:
    def test_dial_before_server_exists(self, tmp_path):
        """The reconnect loop retries with backoff until the peer listens."""

        async def main():
            ma, mb = manager("QM.A"), manager("QM.B")
            ha = WireHost(ma, reconnect_min_ms=10, reconnect_max_ms=50)
            ha.connect_unix("QM.B", str(tmp_path / "late.sock"))
            ma.put_remote("QM.B", "IN.Q", Message(body="early"))
            await asyncio.sleep(0.05)  # several failed dial attempts
            hb = WireHost(mb)
            await hb.serve_unix(str(tmp_path / "late.sock"))
            await ha.wait_connected("QM.B")
            await ha.drain_outbound()
            assert mb.depth("IN.Q") == 1
            await ha.close()
            await hb.close()

        asyncio.run(main())

    def test_connection_drop_recovers_exactly_once(self, tmp_path):
        """Drop the socket mid-stream: everything still lands, once."""

        async def main():
            ma, mb, ha, hb = await linked_pair(
                tmp_path, reconnect_min_ms=10, reconnect_max_ms=50
            )
            for i in range(10):
                ma.put_remote("QM.B", "IN.Q", Message(body={"n": i}))
            # Let at least one delivery land so the handshake is done
            # and the connection is carrying traffic, then kill it from
            # the receiver side — the sender must notice, redial, resync
            # via HELLO and retransmit whatever was unacknowledged.
            await wait_until(
                lambda: mb.has_queue("IN.Q") and mb.depth("IN.Q") >= 1
            )
            assert hb._inbound_writers  # handshake registered the peer
            for writer in list(hb._inbound_writers.values()):
                writer.close()
            for i in range(10, 20):
                ma.put_remote("QM.B", "IN.Q", Message(body={"n": i}))
            await ha.drain_outbound(timeout=10.0)
            assert mb.depth("IN.Q") == 20
            ids = [m.message_id for m in mb.queue("IN.Q").snapshot()]
            assert len(ids) == len(set(ids))  # no duplicate deliveries
            bodies = sorted(m.body["n"] for m in mb.queue("IN.Q").snapshot())
            assert bodies == list(range(20))
            assert ha.wire_stats()["out:QM.B"]["reconnects"] >= 1
            assert ma.depth(XMIT_PREFIX + "QM.B") == 0
            await ha.close()
            await hb.close()

        asyncio.run(main())


class TestAckDurabilityOrdering:
    """Acks must order after the commit group that journaled the put —
    on the first delivery *and* on duplicate suppression."""

    def test_deferred_ack_flushes_without_inbound_traffic(self, tmp_path):
        """A confirm released by a durability callback pushes its ACK
        out on its own; it must not wait for the next inbound frame or
        a sender retransmission."""

        async def main():
            ma, mb, ha, hb = await linked_pair(
                tmp_path, initial_rto_ms=60_000.0
            )
            held = []
            mb.post_durable = held.append  # durability stalls (held group)
            ma.put_remote("QM.B", "IN.Q", Message(body="slow"))
            await wait_until(
                lambda: mb.has_queue("IN.Q") and mb.depth("IN.Q") == 1
            )
            await asyncio.sleep(0.05)
            # Delivered but unconfirmed: the in-doubt spool copy stays.
            assert ma.depth(XMIT_PREFIX + "QM.B") == 1
            assert len(held) == 1
            for callback in held:
                callback()  # the group flush lands
            # The ack reaches the sender although no frame ever travels
            # receiver-ward again (RTO is 60s, so no retransmit helps).
            await wait_until(lambda: ma.depth(XMIT_PREFIX + "QM.B") == 0)
            await ha.close()
            await hb.close()

        asyncio.run(main())

    def test_duplicate_suppression_ack_defers_until_durable(self, tmp_path):
        """A retransmit arriving before the original put's commit group
        flushes must not be acked early: the sender would resolve its
        spool copy for a message the receiver could still lose."""

        async def main():
            ma, mb, ha, hb = await linked_pair(
                tmp_path,
                reconnect_min_ms=10,
                reconnect_max_ms=50,
                initial_rto_ms=60_000.0,
            )
            held = []
            mb.post_durable = held.append
            ma.put_remote("QM.B", "IN.Q", Message(body="once"))
            await wait_until(
                lambda: mb.has_queue("IN.Q") and mb.depth("IN.Q") == 1
            )
            # Drop the connection before any ack could exist; the
            # reconnect handshake retransmits the unacked message.
            for writer in list(hb._inbound_writers.values()):
                writer.close()
            await wait_until(
                lambda: hb._inbound_stats["QM.A"].duplicates_suppressed == 1
            )
            assert mb.depth("IN.Q") == 1  # suppressed, not re-put
            await asyncio.sleep(0.05)
            # Both confirms (original put, duplicate) are still held
            # behind durability — no ack, so the spool copy survives.
            assert ma.depth(XMIT_PREFIX + "QM.B") == 1
            assert len(held) == 2
            for callback in held:
                callback()
            await wait_until(lambda: ma.depth(XMIT_PREFIX + "QM.B") == 0)
            assert mb.depth("IN.Q") == 1
            await ha.close()
            await hb.close()

        asyncio.run(main())


class TestDedupLedger:
    def test_ledger_prunes_to_ack_watermark(self, tmp_path):
        """Delivered entries retire once their seq is ack-covered; the
        ledger must not grow one entry per message for the host's life."""

        async def main():
            ma, mb, ha, hb = await linked_pair(tmp_path)
            for i in range(8):
                ma.put_remote("QM.B", "IN.Q", Message(body={"n": i}))
            await ha.drain_outbound()
            assert mb.depth("IN.Q") == 8
            await wait_until(lambda: not hb._delivered)
            assert not hb._delivered_order.get("QM.A")
            assert not hb._delivered_seq.get("QM.A")
            await ha.close()
            await hb.close()

        asyncio.run(main())

    def test_restart_seed_suppresses_retransmits(self, tmp_path):
        """Both hosts restart: the receiver recovers from its journal,
        the sender still holds an in-doubt spool copy (its ack died
        with the crash).  The reseeded ledger drops the retransmit."""

        async def main():
            journal = f"binfile:{tmp_path / 'b.journal'}"
            ma = QueueManager("QM.A", WallClock(), journal="memory:")
            mb = QueueManager("QM.B", WallClock(), journal=journal)
            hb = WireHost(mb)
            await hb.serve_unix(str(tmp_path / "b1.sock"))
            ha = WireHost(ma)
            ha.connect_unix("QM.B", str(tmp_path / "b1.sock"))
            await ha.wait_connected("QM.B")
            for i in range(3):
                ma.put_remote("QM.B", "IN.Q", Message(body={"n": i}))
            await ha.drain_outbound()
            survivor = mb.queue("IN.Q").snapshot()[0]
            await ha.close()
            await hb.close()

            # --- restart: fresh engines, fresh hosts -----------------
            mb2 = QueueManager.recover("QM.B", WallClock(), journal)
            assert mb2.depth("IN.Q") == 3
            hb2 = WireHost(mb2)
            await hb2.serve_unix(str(tmp_path / "b2.sock"))
            ma2 = QueueManager("QM.A", WallClock(), journal="memory:")
            ha2 = WireHost(ma2)
            ha2.connect_unix("QM.B", str(tmp_path / "b2.sock"))
            # The in-doubt copy the pre-crash sender never resolved:
            # same message id, re-pumped from the recovered spool.
            ha2.send("QM.A", "QM.B", "IN.Q", survivor)
            await ha2.wait_connected("QM.B")
            await ha2.drain_outbound()

            assert mb2.depth("IN.Q") == 3  # no duplicate delivery
            stats = hb2.wire_stats()["in:QM.A"]
            assert stats["duplicates_suppressed"] == 1
            assert ma2.depth(XMIT_PREFIX + "QM.B") == 0  # still acked
            await ha2.close()
            await hb2.close()

        asyncio.run(main())


class TestBackpressure:
    def test_full_spool_raises_queue_full(self, tmp_path):
        """Zero credit + bounded spool = QueueFullError out of put."""

        async def main():
            capacity = {"value": 0}
            ma, mb, ha, hb = await linked_pair(
                tmp_path,
                spool_max_depth=4,
                b_kwargs={"window_provider": lambda: capacity["value"]},
            )
            for i in range(4):
                ma.put_remote("QM.B", "IN.Q", Message(body={"n": i}))
            await asyncio.sleep(0.05)  # nothing moves: the peer granted 0
            assert not mb.has_queue("IN.Q")
            assert ma.depth(XMIT_PREFIX + "QM.B") == 4
            with pytest.raises(QueueFullError):
                ma.put_remote("QM.B", "IN.Q", Message(body="overflow"))
            # The application drains / frees capacity; the refreshed
            # window wakes the stalled sender and the spool empties.
            capacity["value"] = 64
            await hb.refresh_windows()
            await ha.drain_outbound()
            assert mb.depth("IN.Q") == 4
            ma.put_remote("QM.B", "IN.Q", Message(body={"n": 99}))
            await ha.drain_outbound()
            assert mb.depth("IN.Q") == 5
            await ha.close()
            await hb.close()

        asyncio.run(main())


class TestConditionalLifecycle:
    def test_end_to_end_conditional_send_over_wire(self, tmp_path):
        """Full paper lifecycle across two hosts: conditional send out,
        READ ack back over the receiver's own channel, outcome decided."""

        async def main():
            metrics = MetricsRegistry()
            ms = manager("QM.S", metrics=metrics)
            mr = manager("QM.R")
            hs = WireHost(ms)
            hr = WireHost(mr)
            await hs.serve_unix(str(tmp_path / "s.sock"))
            await hr.serve_unix(str(tmp_path / "r.sock"))
            hs.connect_unix("QM.R", str(tmp_path / "r.sock"))
            hr.connect_unix("QM.S", str(tmp_path / "s.sock"))
            await hs.wait_connected("QM.R")
            await hr.wait_connected("QM.S")

            service = ConditionalMessagingService(ms)
            inbox = inbox_of("QM.R")
            mr.ensure_queue(inbox)
            receiver = ConditionalMessagingReceiver(mr, recipient_id="QM.R")
            condition = destination_set(
                destination(inbox, manager="QM.R", recipient="QM.R"),
                msg_pick_up_time=60_000,
            )
            cmids = [
                service.send_message({"n": i}, condition) for i in range(3)
            ]

            async def drive():
                while any(service.outcome(c) is None for c in cmids):
                    with receiver.ack_batch():
                        while receiver.read_message(inbox) is not None:
                            pass
                    service.poll()
                    await asyncio.sleep(0.005)

            await asyncio.wait_for(drive(), timeout=10.0)
            for cmid in cmids:
                outcome = service.outcome(cmid)
                assert outcome is not None and outcome.succeeded
            assert metrics.counter("outcomes.success") == 3
            latency = metrics.histogram_stats("decision_latency_ms")
            assert latency.p50 >= 0
            await hs.close()
            await hr.close()

        asyncio.run(main())


class TestHostCli:
    def test_parse_addr(self):
        assert parse_addr("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_addr("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
        with pytest.raises(ValueError):
            parse_addr("carrier-pigeon:coop")
        with pytest.raises(ValueError):
            parse_addr("unix")

    def test_parse_peer(self):
        name, addr = parse_peer("QM.R0=unix:/tmp/r0.sock")
        assert name == "QM.R0"
        assert addr == ("unix", "/tmp/r0.sock")
        with pytest.raises(ValueError):
            parse_peer("no-address-here")

    def test_duplicate_channel_rejected(self, tmp_path):
        async def main():
            ma = manager("QM.A")
            ha = WireHost(ma)
            ha.connect_unix("QM.B", str(tmp_path / "b.sock"))
            with pytest.raises(ChannelError):
                ha.connect_unix("QM.B", str(tmp_path / "b.sock"))
            await ha.close()

        asyncio.run(main())
