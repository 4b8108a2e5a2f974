"""Asyncio wire transport: queue managers as separate OS processes.

:class:`WireHost` is the multi-process implementation of the
:class:`~repro.mq.network.Transport` seam.  One host wraps one local
:class:`~repro.mq.manager.QueueManager` inside an asyncio event loop:

* **outbound channels** (:meth:`WireHost.connect_unix` /
  :meth:`WireHost.connect_tcp`) dial a peer host and forward that
  peer's ``SYSTEM.XMIT.<peer>`` transmission queue over the socket,
  reconnecting with exponential backoff;
* **inbound channels** (:meth:`WireHost.serve_unix` /
  :meth:`WireHost.serve_tcp`) accept peer connections, deliver their
  messages into local queues and acknowledge them once journaled.

Everything protocol-shaped — framing, sequence numbers, cumulative
acks, credit windows, RFC 6298 retransmission, reconnect resync —
lives in the sans-IO :class:`~repro.net.protocol.ChannelEngine`; this
module is only the socket/task glue around it.

Durability and exactly-once mirror the in-process ``MessageNetwork``:

* a remote put parks the enveloped message on the durable spool
  *before* anything crosses the wire, and the wire pump only wakes via
  :meth:`QueueManager.post_durable` — a transfer can never outrun the
  commit group that made it compensatable;
* the sender resolves a spool copy only on a ``delivered`` event,
  i.e. after the receiver confirmed the message is in *its* journal;
  the resolution is a queue-level (unjournaled) removal, so the parked
  copy remains the channel's in-doubt record across sender crashes;
* the receiver suppresses redelivered messages by message id: a dedup
  ledger tracks every wire delivery, is seeded at construction from
  the recovered queue contents (so a restarted receiver still drops
  retransmits of journaled-but-unconsumed messages), and is pruned as
  the confirmed-ack watermark passes each entry — the sender can
  never retransmit an acked seq, so the ledger stays bounded by the
  unacked window instead of growing per delivered message.  The one
  edge outside the ledger: a message journaled *and consumed* whose
  ack died with a receiver crash is redelivered on retransmit
  (at-least-once at that edge; §11 of SEMANTICS.md spells this out).

Backpressure is credit-based end to end: the receiver advertises a
window from its local backlog, a sender out of credit stops pumping,
the bounded spool fills, and ``QueueManager.put`` raises
:class:`~repro.errors.QueueFullError` back into the application —
nothing buffers unboundedly.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ChannelError, MQError, PersistenceError
from repro.mq.manager import XMIT_PREFIX, QueueManager
from repro.mq.message import Message
from repro.mq.network import (
    PROP_ROUTE_TARGET_MANAGER,
    PROP_ROUTE_TARGET_QUEUE,
    ChannelStats,
    Transport,
)
from repro.mq.persistence import dump_data
from repro.net.framing import FRAME_HELLO, FrameDecoder, FrameError, check_data_pickle, decode_payload
from repro.net.protocol import DEFAULT_WINDOW, ChannelEngine, ProtocolError
from repro.obs.trace import STAGE_XMIT, cmid_of

__all__ = ["WireHost", "DEFAULT_SPOOL_DEPTH"]

#: Default bound on a channel's outbound spool queue.  When the peer
#: stalls (no credit, partition), the spool fills to this depth and
#: further sends raise :class:`QueueFullError` — the backpressure edge.
DEFAULT_SPOOL_DEPTH = 10_000

_READ_CHUNK = 64 * 1024


class _Outbound:
    """One outbound channel: engine + connection state + pump bookkeeping."""

    def __init__(self, peer: str, engine: ChannelEngine) -> None:
        self.peer = peer
        self.engine = engine
        self.kick = asyncio.Event()  # spool/credit activity: run the pump
        self.timer = asyncio.Event()  # retransmit deadline changed
        self.inflight: Set[str] = set()  # message ids on the wire
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task: Optional[asyncio.Task] = None
        self.stats = ChannelStats()
        self.connected = asyncio.Event()  # set while the socket is up


class WireHost(Transport):
    """Run a queue manager behind real sockets (one host per process).

    Args:
        manager: The local queue manager (attached as its transport).
        window: Credit window granted to each inbound peer when no
            ``window_provider`` is given.
        window_provider: Callable returning the current credit window
            for inbound channels (e.g. from inbox backlog); re-evaluated
            after every delivery so backlog growth throttles senders.
        spool_max_depth: Bound on each outbound spool queue; a full
            spool surfaces as ``QueueFullError`` from ``put``.
        initial_rto_ms: Initial retransmission timeout per channel
            (adapts via RFC 6298 once acks flow).
        reconnect_min_ms / reconnect_max_ms: Exponential-backoff bounds
            for redialling a dead peer.
        auto_create_queues: Create unknown destination queues on
            delivery (mirrors ``MessageNetwork``).
    """

    def __init__(
        self,
        manager: QueueManager,
        *,
        window: int = DEFAULT_WINDOW,
        window_provider: Optional[Callable[[], int]] = None,
        spool_max_depth: int = DEFAULT_SPOOL_DEPTH,
        initial_rto_ms: float = 1000.0,
        reconnect_min_ms: int = 50,
        reconnect_max_ms: int = 2000,
        auto_create_queues: bool = True,
    ) -> None:
        self.manager = manager
        self.name = manager.name
        self.window = window
        self.window_provider = window_provider
        self.spool_max_depth = spool_max_depth
        self.initial_rto_ms = initial_rto_ms
        self.reconnect_min_ms = reconnect_min_ms
        self.reconnect_max_ms = reconnect_max_ms
        self.auto_create_queues = auto_create_queues
        self.attach(manager)

        self._outbound: Dict[str, _Outbound] = {}
        self._connectors: Dict[str, Callable] = {}
        self._inbound: Dict[str, ChannelEngine] = {}
        self._inbound_writers: Dict[str, asyncio.StreamWriter] = {}
        self._inbound_stats: Dict[str, ChannelStats] = {}
        #: (queue, message_id) dedup ledger of wire deliveries.
        #: Entries delivered through a channel are pruned once that
        #: channel's confirmed-ack watermark passes their seq (the
        #: sender can never retransmit an acked seq), so membership is
        #: O(1) and size is bounded by the unacked window plus the
        #: restart seed below.
        self._delivered: Set[Tuple[str, str]] = set()
        #: per-peer FIFO of (seq, key) awaiting watermark pruning
        self._delivered_order: Dict[str, Deque[Tuple[int, Tuple[str, str]]]] = {}
        #: per-peer highest tracked seq per key (a redelivery re-tracks
        #: its key at the new seq; only the newest tracking may retire it)
        self._delivered_seq: Dict[str, Dict[Tuple[str, str], int]] = {}
        self._servers: List[asyncio.base_events.Server] = []
        self._closed = False
        #: event loop hosting the channels, for flushes scheduled from
        #: durability callbacks (captured when serving/dialling starts)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: peers with a deferred-ack flush already scheduled
        self._flush_scheduled: Set[str] = set()
        #: last-synced engine counter snapshots, for metric deltas
        self._metric_marks: Dict[int, Dict[str, int]] = {}
        # Restart dedup seed: a recovered manager's queues hold every
        # journaled-but-unconsumed message, including ones whose acks
        # never reached the sender.  Recording their ids now makes the
        # retransmits arriving after reconnect O(1) duplicates instead
        # of requiring a queue scan per incoming message.  (Outbound
        # spools are parking for *our* sends, not wire deliveries.)
        for queue_name in manager.queue_names():
            if queue_name.startswith(XMIT_PREFIX):
                continue
            for stored in manager.queue(queue_name).snapshot():
                self._delivered.add((queue_name, stored.message_id))

    # ------------------------------------------------------------------
    # time & metrics
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return float(self.manager.clock.now_ms())

    def _sync_metrics(self, engine: ChannelEngine) -> None:
        registry = self.manager.metrics
        if registry is None:
            return
        mark = self._metric_marks.setdefault(id(engine), {})
        for key, value in engine.metrics.items():
            delta = value - mark.get(key, 0)
            if delta:
                registry.incr(f"wire.{key}", delta)
                mark[key] = value
        if engine.rtt.srtt is not None:
            registry.set_gauge(f"wire.rtt_ms.{engine.peer_manager}",
                               engine.rtt.srtt)

    def wire_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-peer wire counters (outbound and inbound channels)."""
        out: Dict[str, Dict[str, object]] = {}
        for peer, ob in self._outbound.items():
            out[f"out:{peer}"] = {
                **ob.engine.metrics,
                "rtt_srtt_ms": ob.engine.rtt.srtt,
                "rto_ms": ob.engine.rtt.rto,
                "in_flight": ob.engine.in_flight,
                "delivered": ob.stats.delivered,
                "duplicates_suppressed": ob.stats.duplicates_suppressed,
            }
        for peer, engine in self._inbound.items():
            stats = self._inbound_stats.get(peer, ChannelStats())
            out[f"in:{peer}"] = {
                **engine.metrics,
                "delivered": stats.delivered,
                "duplicates_suppressed": stats.duplicates_suppressed,
                "rejected": stats.failed_attempts,
            }
        return out

    # ------------------------------------------------------------------
    # Transport implementation (the sender-facing API)
    # ------------------------------------------------------------------
    def send(
        self, source: str, target: str, queue_name: str, message: Message
    ) -> None:
        """Park ``message`` for ``target`` on the durable spool and kick
        the wire pump once the parking record is durable."""
        if target == self.name:
            self.manager.put(queue_name, message)
            return
        if target not in self._outbound:
            raise ChannelError(
                f"host {self.name!r} has no wire channel to {target!r}"
            )
        try:
            check_data_pickle(dump_data(message.body))
        except Exception as exc:  # noqa: BLE001 - report what body failed
            # Refused before parking: a spooled copy of this message could
            # never be pumped (a journal refuses it only when it logs it),
            # nor pass the receiver's check of what its loader may do.
            raise ChannelError(
                f"body of type {type(message.body).__name__} is not data"
                " and cannot cross the wire"
            ) from exc
        enveloped = message.with_properties(
            **{
                PROP_ROUTE_TARGET_MANAGER: target,
                PROP_ROUTE_TARGET_QUEUE: queue_name,
            }
        ).copy(source_manager=message.source_manager or source)
        spool = XMIT_PREFIX + target
        self.manager.ensure_queue(spool, max_depth=self.spool_max_depth)
        # QueueFullError propagates to the caller here: the bounded spool
        # is where wire backpressure meets QueueManager.put.
        self.manager.put(spool, enveloped)
        self._outbound[target].stats.sent += 1
        if self.manager.tracer.enabled:
            self.manager.tracer.emit(
                STAGE_XMIT,
                at_ms=self.manager.clock.now_ms(),
                cmid=cmid_of(enveloped),
                manager=self.name,
                queue=spool,
                message_id=enveloped.message_id,
                target_manager=target,
                target_queue=queue_name,
            )
        self.manager.post_durable(lambda: self._kick(target))

    def _kick(self, peer: str) -> None:
        ob = self._outbound.get(peer)
        if ob is not None:
            ob.kick.set()

    # ------------------------------------------------------------------
    # outbound channels
    # ------------------------------------------------------------------
    def connect_unix(self, peer: str, path: str) -> None:
        """Register an outbound channel to ``peer`` over a unix socket."""
        self._register_outbound(
            peer, lambda: asyncio.open_unix_connection(path)
        )

    def connect_tcp(self, peer: str, host: str, port: int) -> None:
        """Register an outbound channel to ``peer`` over TCP."""
        self._register_outbound(
            peer, lambda: asyncio.open_connection(host, port)
        )

    def _register_outbound(self, peer: str, connector: Callable) -> None:
        if peer in self._outbound:
            raise ChannelError(f"channel to {peer!r} already registered")
        engine = ChannelEngine(
            self.name, "sender", initial_rto_ms=self.initial_rto_ms
        )
        ob = _Outbound(peer, engine)
        self._outbound[peer] = ob
        self._connectors[peer] = connector
        self.manager.ensure_queue(
            XMIT_PREFIX + peer, max_depth=self.spool_max_depth
        )
        self._loop = asyncio.get_running_loop()
        ob.task = self._loop.create_task(
            self._run_outbound(ob, connector), name=f"wire-out-{peer}"
        )

    async def _run_outbound(self, ob: _Outbound, connector: Callable) -> None:
        backoff_ms = self.reconnect_min_ms
        while not self._closed:
            try:
                reader, writer = await connector()
            except (OSError, ConnectionError):
                await asyncio.sleep(backoff_ms / 1000.0)
                backoff_ms = min(backoff_ms * 2, self.reconnect_max_ms)
                continue
            backoff_ms = self.reconnect_min_ms
            ob.writer = writer
            ob.engine.connection_established(self._now())
            ob.connected.set()
            pump_task = asyncio.create_task(self._pump_loop(ob))
            retx_task = asyncio.create_task(self._retx_loop(ob))
            try:
                await self._flush(ob.engine, writer)
                while True:
                    data = await reader.read(_READ_CHUNK)
                    if not data:
                        break
                    events = ob.engine.receive_bytes(data, self._now())
                    self._handle_sender_events(ob, events)
                    ob.timer.set()
                    await self._flush(ob.engine, writer)
            except (
                FrameError,
                ProtocolError,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
            ):
                pass
            finally:
                ob.connected.clear()
                pump_task.cancel()
                retx_task.cancel()
                # Collect the cancelled tasks before starting the next
                # connection epoch: a pump/retx task that already died
                # on a broken socket would otherwise surface as a
                # "Task exception was never retrieved" warning, and a
                # still-cancelling task could race the new epoch.
                await asyncio.gather(
                    pump_task, retx_task, return_exceptions=True
                )
                ob.engine.connection_lost(self._now())
                ob.writer = None
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                self._sync_metrics(ob.engine)

    def _handle_sender_events(self, ob: _Outbound, events) -> None:
        for event in events:
            if event.kind == "delivered":
                ob.inflight.discard(event.message_id)
                self._resolve_spool(ob.peer, event.message_id)
                ob.stats.delivered += 1
                ob.kick.set()
            elif event.kind in ("handshaken", "window"):
                ob.kick.set()
        self._sync_metrics(ob.engine)

    def _resolve_spool(self, peer: str, message_id: str) -> None:
        # Queue-level (unjournaled) removal on purpose: the journaled
        # parked copy is the channel's in-doubt record; after a sender
        # crash it is re-pumped and the receiver's id-dedup resolves it.
        spool = XMIT_PREFIX + peer
        if not self.manager.has_queue(spool):
            return
        try:
            self.manager.queue(spool).get_by_id(message_id)
        except MQError:
            pass  # already resolved

    def _pump(self, ob: _Outbound) -> bool:
        """Move spooled messages into the engine while credit lasts."""
        engine = ob.engine
        if not engine.can_send():
            return False
        spool = XMIT_PREFIX + ob.peer
        if not self.manager.has_queue(spool):
            return False
        sent = False
        for parked in self.manager.browse(spool):
            if not engine.can_send():
                break
            if parked.message_id in ob.inflight:
                continue
            # The frame's row names the target queue; the envelope's copy
            # stays on the spool, where a restarted pump reads it.
            props = dict(parked.properties)
            target_queue = str(props.pop(PROP_ROUTE_TARGET_QUEUE))
            engine.send_message(
                target_queue, parked.copy(properties=props), parked.message_id, self._now()
            )
            ob.inflight.add(parked.message_id)
            sent = True
        return sent

    async def _pump_loop(self, ob: _Outbound) -> None:
        while True:
            await ob.kick.wait()
            ob.kick.clear()
            if self._pump(ob):
                ob.timer.set()
                writer = ob.writer
                if writer is not None:
                    await self._flush(ob.engine, writer)

    async def _retx_loop(self, ob: _Outbound) -> None:
        while True:
            due = ob.engine.next_timer(self._now())
            if due is None:
                await ob.timer.wait()
                ob.timer.clear()
                continue
            delay_s = max(0.0, (due - self._now()) / 1000.0)
            try:
                await asyncio.wait_for(ob.timer.wait(), timeout=delay_s)
                ob.timer.clear()
                continue
            except asyncio.TimeoutError:
                pass
            if ob.engine.on_timer(self._now()):
                writer = ob.writer
                if writer is not None:
                    await self._flush(ob.engine, writer)
                self._sync_metrics(ob.engine)

    # ------------------------------------------------------------------
    # inbound channels (server side)
    # ------------------------------------------------------------------
    async def serve_unix(self, path: str) -> str:
        """Listen for peer connections on a unix socket; returns ``path``."""
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_unix_server(self._accept, path=path)
        self._servers.append(server)
        return path

    async def serve_tcp(self, host: str, port: int) -> Tuple[str, int]:
        """Listen for peer connections on TCP; returns the bound address."""
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(self._accept, host=host, port=port)
        self._servers.append(server)
        sock = server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer: Optional[str] = None
        engine: Optional[ChannelEngine] = None
        try:
            # Handshake: the first frame names the peer, which names the
            # engine; the raw bytes (HELLO included) then replay into it.
            buf = bytearray()
            handshake = FrameDecoder()
            frames: List[Tuple[int, bytes]] = []
            while not frames:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                buf.extend(chunk)
                frames = handshake.feed(chunk)
            magic, payload = frames[0]
            if magic != FRAME_HELLO:
                raise ProtocolError("connection must open with HELLO")
            hello = decode_payload(payload)
            peer_name = hello.get("manager")
            if not isinstance(peer_name, str) or not peer_name:
                raise ProtocolError("HELLO missing manager name")
            peer = peer_name

            engine = self._inbound.get(peer)
            if engine is None:
                engine = ChannelEngine(self.name, "receiver", window=self._local_window())
                self._inbound[peer] = engine
                self._inbound_stats[peer] = ChannelStats()
            # A reconnect supersedes any stale connection from this peer.
            stale = self._inbound_writers.get(peer)
            if stale is not None:
                stale.close()
            if engine.connected:
                engine.connection_lost(self._now())
            engine.local_window = self._local_window()
            engine.connection_established(self._now())
            self._inbound_writers[peer] = writer

            events = engine.receive_bytes(bytes(buf), self._now())
            self._handle_receiver_events(peer, engine, events)
            await self._flush(engine, writer)
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                if self._inbound_writers.get(peer) is not writer:
                    return  # superseded by a newer connection
                events = engine.receive_bytes(data, self._now())
                self._handle_receiver_events(peer, engine, events)
                await self._flush(engine, writer)
        except asyncio.CancelledError:
            # Host shutdown cancels accept handlers mid-read.  Only the
            # teardown below is left, so finish cleanly — a cancelled
            # handler task would be re-raised (and logged) by asyncio's
            # stream connection callback.
            pass
        except (FrameError, ProtocolError):
            if peer is not None:
                self._inbound_stats[peer].failed_attempts += 1
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            if peer is not None and self._inbound_writers.get(peer) is writer:
                del self._inbound_writers[peer]
                if engine is not None and engine.connected:
                    engine.connection_lost(self._now())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            if engine is not None:
                self._sync_metrics(engine)

    def _local_window(self) -> int:
        if self.window_provider is not None:
            return max(0, int(self.window_provider()))
        return self.window

    def _handle_receiver_events(
        self, peer: str, engine: ChannelEngine, events
    ) -> None:
        stats = self._inbound_stats[peer]
        for event in events:
            if event.kind != "message":
                continue
            self._deliver(peer, engine, stats, event)
        # Re-advertise credit from current backlog; only a change emits.
        engine.advertise_window(self._local_window())
        self._sync_metrics(engine)

    def _deliver(
        self,
        peer: str,
        engine: ChannelEngine,
        stats: ChannelStats,
        event,
    ) -> None:
        final = event.message  # decoded for this delivery alone
        seq = event.seq
        queue_name = event.queue  # the row's queue: the one place it is named
        final_target = final.properties.pop(PROP_ROUTE_TARGET_MANAGER, None)
        if final_target is not None and str(final_target) != self.name:
            # Multi-hop forward: park on our own spool toward the final
            # target (raises ChannelError if we have no channel either).
            self.send(self.name, str(final_target), queue_name, final)
            stats.delivered += 1
            self._post_confirm(peer, engine, seq)
            return
        key = (queue_name, final.message_id)
        if key in self._delivered:
            # Redelivery (retransmit across a reconnect, a recovered
            # sender re-pumping its spool, or a retransmit of a message
            # seeded from our own recovered queues): suppress the
            # second put, but defer the ack exactly like the original
            # put's — the first delivery's commit group may still be
            # open (a group-commit batch), and acking before it
            # flushes would let the sender resolve its in-doubt spool
            # copy for a message this process could still lose.
            self._track_delivered(peer, seq, key)
            stats.duplicates_suppressed += 1
            self._post_confirm(peer, engine, seq)
            return
        if not self.manager.has_queue(queue_name):
            if not self.auto_create_queues:
                raise ProtocolError(
                    f"no such queue {queue_name!r} on {self.name!r}"
                )
            self.manager.define_queue(queue_name)
        try:
            self.manager.put(queue_name, final)
        except PersistenceError as exc:
            # Data no journal takes (nested past the pickler's stack): the
            # refused put left nothing behind, so drop the connection.
            raise ProtocolError(f"MSG from {peer!r} refused: {exc}") from exc
        self._track_delivered(peer, seq, key)
        stats.delivered += 1
        # Ack only once the put's commit group is durable: the sender
        # must never resolve its in-doubt spool copy for a message this
        # process could still lose — journal-before-ack across processes.
        self._post_confirm(peer, engine, seq)

    def _post_confirm(self, peer: str, engine: ChannelEngine, seq: int) -> None:
        """Ack ``seq`` once the current commit group is durable.

        The deferred callback may fire outside any socket read (the exit
        of a group-commit batch), where the accept loop schedules
        no write of its own — so after confirming, push the queued ACK
        bytes out explicitly instead of letting them sit in the engine
        outbox until the next inbound frame.
        """

        def _confirm() -> None:
            engine.confirm_delivery(seq)
            self._prune_delivered(peer, engine)
            self._schedule_inbound_flush(peer)

        self.manager.post_durable(_confirm)

    def _track_delivered(
        self, peer: str, seq: int, key: Tuple[str, str]
    ) -> None:
        self._delivered.add(key)
        self._delivered_order.setdefault(peer, deque()).append((seq, key))
        self._delivered_seq.setdefault(peer, {})[key] = seq

    def _prune_delivered(self, peer: str, engine: ChannelEngine) -> None:
        """Retire ledger entries the ack watermark has passed.

        A seq at or below ``engine.confirmed`` can never be redelivered
        as a message event (in-epoch duplicates die under the cursor,
        reconnects resync past it), so its dedup entry is dead weight —
        unless the same key was re-tracked by a later redelivery whose
        confirmation is still pending, in which case the newest tracking
        keeps it alive.
        """
        pending = self._delivered_order.get(peer)
        if not pending:
            return
        confirmed = engine.confirmed
        newest = self._delivered_seq[peer]
        while pending and pending[0][0] <= confirmed:
            seq, key = pending.popleft()
            if newest.get(key) == seq:
                del newest[key]
                self._delivered.discard(key)

    def _schedule_inbound_flush(self, peer: str) -> None:
        loop = self._loop
        if (
            loop is None
            or loop.is_closed()
            or self._closed
            or peer in self._flush_scheduled
        ):
            return
        self._flush_scheduled.add(peer)
        # threadsafe: a group-commit batch may close (and run its
        # post_commit hooks) off the loop thread.
        loop.call_soon_threadsafe(self._start_inbound_flush, peer)

    def _start_inbound_flush(self, peer: str) -> None:
        self._flush_scheduled.discard(peer)
        engine = self._inbound.get(peer)
        writer = self._inbound_writers.get(peer)
        if engine is None or writer is None or not engine.connected:
            return  # the ack rides the resync of the next connection
        asyncio.get_running_loop().create_task(
            self._flush_quietly(engine, writer)
        )

    async def _flush_quietly(
        self, engine: ChannelEngine, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._flush(engine, writer)
        except (ConnectionError, OSError):
            pass  # the accept loop owns teardown of a dying connection

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    async def _flush(
        self, engine: ChannelEngine, writer: asyncio.StreamWriter
    ) -> None:
        data = engine.data_to_send()
        if not data:
            return
        writer.write(data)
        await writer.drain()
        self._sync_metrics(engine)

    async def refresh_windows(self) -> None:
        """Re-advertise inbound credit from current local state.

        Deliveries shrink the advertised window as they arrive, but the
        application *draining* its backlog is invisible to the wire —
        without this, a sender stalled at window 0 never learns the
        backlog cleared.  The drain loop calls this after each batch;
        ``advertise_window`` only emits a frame on an actual change, so
        calling it every iteration is cheap.
        """
        window = self._local_window()
        for peer, engine in self._inbound.items():
            if not engine.connected:
                continue
            engine.advertise_window(window)
            writer = self._inbound_writers.get(peer)
            if writer is not None:
                await self._flush(engine, writer)

    async def wait_connected(self, peer: str, timeout: float = 10.0) -> None:
        """Block until the outbound channel to ``peer`` is up."""
        ob = self._outbound.get(peer)
        if ob is None:
            raise ChannelError(f"no wire channel to {peer!r}")
        await asyncio.wait_for(ob.connected.wait(), timeout)

    async def drain_outbound(self, timeout: float = 30.0) -> None:
        """Wait until every spool is empty and nothing is in flight."""

        async def _drained() -> None:
            while True:
                busy = False
                for peer, ob in self._outbound.items():
                    spool = XMIT_PREFIX + peer
                    depth = (
                        self.manager.depth(spool)
                        if self.manager.has_queue(spool)
                        else 0
                    )
                    if depth or ob.engine.in_flight:
                        busy = True
                        break
                if not busy:
                    return
                await asyncio.sleep(0.005)

        await asyncio.wait_for(_drained(), timeout)

    async def close(self) -> None:
        """Stop servers, tear down channels, cancel tasks."""
        self._closed = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        self._servers.clear()
        for ob in self._outbound.values():
            if ob.task is not None:
                ob.task.cancel()
        for ob in self._outbound.values():
            if ob.task is not None:
                try:
                    await ob.task
                except (asyncio.CancelledError, Exception):
                    pass
        for writer in list(self._inbound_writers.values()):
            writer.close()
        self._inbound_writers.clear()
