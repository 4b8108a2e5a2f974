"""Runnable wire-transport host processes (``python -m repro.net.host``).

Two modes, one per side of a multi-process conditional-messaging
deployment:

``receiver``
    A queue manager + :class:`~repro.net.wire.WireHost` serving an
    inbox queue.  Accepts data messages from a sender host, drains the
    inbox through :class:`~repro.core.receiver.ConditionalMessagingReceiver`
    (so READ acknowledgments flow back over its own outbound channel).
    Prints a ``READY`` line to stdout once listening; exits when stdin
    reaches EOF (so an orphaned host dies with its parent runner).

``sender``
    A queue manager + WireHost + full
    :class:`~repro.core.service.ConditionalMessagingService`.  Sends
    ``--messages`` conditional messages round-robin across the peer
    receivers (one destination each, pick-up deadline
    ``--pickup-ms``), waits for every outcome to decide, and prints a
    ``RESULT`` JSON line with throughput, decision-latency percentiles
    and wire counters.

Addresses are ``unix:<path>`` or ``tcp:<host>:<port>``.  Both modes
serve their own ``--listen`` address and dial every ``--peer
NAME=ADDR``; dialling retries with backoff, so start order does not
matter — the harness starts receivers first only to read their READY
lines.

The hosts use in-memory journals: the point of the benchmark is the
wire, and the journal backends are benchmarked separately
(``BENCH_persistence.json``).  Durability *ordering* is still real —
acks and transfer kicks ride :meth:`QueueManager.post_durable`, so the
commit-group sequencing matches a disk-backed deployment.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import List, Tuple

from repro.core.builder import destination, destination_set
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import QueueManager
from repro.net.wire import WireHost
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import WallClock

__all__ = ["main", "parse_addr", "inbox_of"]

#: Inbox drained in batches of this size under one ack batch, so READ
#: acknowledgments coalesce into one remote put (and one wire frame).
DRAIN_BATCH = 8


def parse_addr(spec: str) -> Tuple[str, object]:
    """Parse ``unix:<path>`` / ``tcp:<host>:<port>`` address specs."""
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad address {spec!r}")
    if kind == "unix":
        return "unix", rest
    if kind == "tcp":
        host, sep, port = rest.rpartition(":")
        if not sep:
            raise ValueError(f"bad tcp address {spec!r}")
        return "tcp", (host, int(port))
    raise ValueError(f"unknown address scheme {kind!r} in {spec!r}")


def parse_peer(spec: str) -> Tuple[str, Tuple[str, object]]:
    name, sep, addr = spec.partition("=")
    if not sep:
        raise ValueError(f"bad peer {spec!r} (want NAME=ADDR)")
    return name, parse_addr(addr)


def inbox_of(manager_name: str) -> str:
    """The conventional inbox queue name for a receiver host."""
    return f"IN.{manager_name}"


async def _serve(host: WireHost, addr: Tuple[str, object]) -> str:
    """Start serving; returns the *bound* address spec (so ``tcp:...:0``
    callers learn the ephemeral port the kernel picked)."""
    kind, where = addr
    if kind == "unix":
        await host.serve_unix(where)
        return f"unix:{where}"
    tcp_host, tcp_port = where
    bound_host, bound_port = await host.serve_tcp(tcp_host, tcp_port)
    return f"tcp:{bound_host}:{bound_port}"


def _dial(host: WireHost, peer: str, addr: Tuple[str, object]) -> None:
    kind, where = addr
    if kind == "unix":
        host.connect_unix(peer, where)
    else:
        tcp_host, tcp_port = where
        host.connect_tcp(peer, tcp_host, tcp_port)


async def _stdin_eof() -> None:
    """Resolve when stdin closes (parent runner exited or released us)."""
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.buffer.read)


async def run_receiver(args: argparse.Namespace) -> None:
    manager = QueueManager(args.name, WallClock(), journal="memory:")
    inbox = args.inbox or inbox_of(args.name)
    manager.ensure_queue(inbox)
    host = WireHost(
        manager,
        window_provider=lambda: max(0, args.capacity - manager.depth(inbox)),
    )
    for peer, addr in args.peers:
        _dial(host, peer, addr)
    bound = await _serve(host, args.listen)
    receiver = ConditionalMessagingReceiver(
        manager, recipient_id=args.recipient or args.name
    )
    print(f"READY {args.name} {bound}", flush=True)

    stop = asyncio.get_running_loop().create_task(_stdin_eof())
    processed = 0
    try:
        while not stop.done():
            batch = 0
            with receiver.ack_batch():
                for _ in range(DRAIN_BATCH):
                    if receiver.read_message(inbox) is None:
                        break
                    batch += 1
            await host.refresh_windows()
            processed += batch
            # Let the wire run between batches; back off on an empty inbox.
            await asyncio.sleep(0 if batch else 0.002)
    finally:
        stop.cancel()
        await host.close()
        print(f"DONE {args.name} processed={processed}", flush=True)


async def run_sender(args: argparse.Namespace) -> None:
    metrics = MetricsRegistry()
    manager = QueueManager(
        args.name, WallClock(), journal="memory:", metrics=metrics
    )
    host = WireHost(manager)
    await _serve(host, args.listen)
    for peer, addr in args.peers:
        _dial(host, peer, addr)
    for peer, _ in args.peers:
        await host.wait_connected(peer, timeout=args.timeout)
    service = ConditionalMessagingService(manager)
    peers = [peer for peer, _ in args.peers]
    conditions = {
        peer: destination_set(
            destination(inbox_of(peer), manager=peer, recipient=peer),
            msg_pick_up_time=args.pickup_ms,
        )
        for peer in peers
    }

    started = time.perf_counter()
    for i in range(args.messages):
        service.send_message({"n": i}, conditions[peers[i % len(peers)]])
        # Yield so the wire pump interleaves with the send loop.
        await asyncio.sleep(0)

    deadline = time.monotonic() + args.timeout
    while service.pending_count():
        if time.monotonic() >= deadline:
            break
        service.poll()
        await asyncio.sleep(0.002)
    elapsed = time.perf_counter() - started

    latency = metrics.histogram_stats("decision_latency_ms")
    wire = {}
    for label, counters in host.wire_stats().items():
        wire[label] = {
            key: counters.get(key)
            for key in (
                "frames_sent",
                "frames_received",
                "retransmits",
                "duplicates",
                "reconnects",
                "rtt_srtt_ms",
            )
            if key in counters
        }
    result = {
        "messages": args.messages,
        "receivers": len(peers),
        "decided_success": metrics.counter("outcomes.success"),
        "pending": service.pending_count(),
        "elapsed_s": elapsed,
        "sends_per_sec": (args.messages / elapsed) if elapsed else 0.0,
        "decision_latency_ms": {
            "p50": latency.p50,
            "p95": latency.p95,
            "p99": latency.p99,
        },
        "wire": wire,
    }
    print("RESULT " + json.dumps(result), flush=True)
    await host.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.host",
        description="Wire-transport host process (one queue manager).",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--name", required=True, help="queue manager name")
        p.add_argument(
            "--listen", required=True, type=parse_addr,
            help="address to serve (unix:<path> | tcp:<host>:<port>)",
        )
        p.add_argument(
            "--peer", dest="peers", action="append", type=parse_peer,
            default=[], metavar="NAME=ADDR",
            help="peer host to dial (repeatable)",
        )
        p.add_argument("--timeout", type=float, default=60.0,
                       help="overall wait bound in seconds")

    receiver = sub.add_parser("receiver", help="inbox-draining receiver host")
    common(receiver)
    receiver.add_argument("--inbox", default=None,
                          help="inbox queue (default IN.<name>)")
    receiver.add_argument("--recipient", default=None,
                          help="recipient id for acks (default <name>)")
    receiver.add_argument("--capacity", type=int, default=64,
                          help="inbox backlog bound advertised as credit")

    sender = sub.add_parser("sender", help="conditional-messaging sender host")
    common(sender)
    sender.add_argument("--messages", type=int, required=True,
                        help="conditional messages to send (round-robin)")
    sender.add_argument("--pickup-ms", type=int, default=60_000,
                        help="msg_pick_up_time condition deadline")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner = run_receiver if args.mode == "receiver" else run_sender
    try:
        asyncio.run(runner(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
