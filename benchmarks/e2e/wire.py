"""``wire_fanout1_openloop``: real sockets, smallest useful message.

One sender host and one receiver host — each a ``QueueManager`` on a
``binfile:`` journal behind a ``WireHost`` — on one asyncio loop, joined
by two unix-socket connections (one per direction), wall clock.  Fan-out
1 and a 256-character body make the per-message cost of ``net.wire`` /
``net.protocol`` / ``net.framing`` plus journal-before-ack dominate;
``core.sender`` fan-out is trivial here.

Phase A is an **open loop**: seeded Poisson arrivals at 150/s, 300/s and
450/s, each message timed from the instant it was *due* to its outcome
landing on ``DS.OUTCOME.Q``, generator lateness reported.  Independent
senders make an open loop.  Phase B is a **closed loop** with 32
outstanding, which finds saturation without a quantised rate search.
The receiver application drains its inbox on a ``queue.subscribe``
wake-up inside ``ack_batch()`` and calls ``refresh_windows()``, as
``repro.net.host`` does.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.builder import destination, destination_set
from repro.core.logqueues import OUTCOME_QUEUE
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import XMIT_PREFIX, QueueManager
from repro.net.wire import WireHost
from repro.sim.clock import WallClock

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    SENDER,
    Samples,
    Workload,
    check_outcomes,
    checkpoint_all,
    check_system_queues_empty,
    close_manager,
    drain_outcomes,
    ms_percentile,
    open_manager,
    queue_depths,
    restart_summary,
    socket_path,
    text_payloads,
    timed_restarts,
)

RECEIVER = "QM.R"
INBOX = "IN.QM.R"
BODY_CHARS = 256
PICK_UP_WINDOW_MS = 60_000
#: Inbox backlog the receiver advertises as credit (``repro.net.host``'s
#: default) and the batch it drains under one ack batch.
CAPACITY = 64
DRAIN_BATCH = 8
OUTSTANDING = 32
#: (arrivals per second, share of --seconds); the closed loop gets the rest.
#: The 300/s phase is the one the end-to-end latencies come from.
OPEN_PHASES = ((150, 2 / 12), (300, 5 / 12), (450, 2 / 12))
CLOSED_SHARE = 3 / 12
REPORTED_RATE = 300
#: Latency limit for ``loadgen.max_rate_ok``.
LIMIT_P95_MS = 25.0
CLOSE_TIMEOUT_S = 10.0
DECIDE_TIMEOUT_S = 30.0


class _Managers:
    """Both queue managers and the sender-side service, without sockets."""

    def __init__(self, directory: str, recover: bool = False) -> None:
        self.directory = directory
        clock = WallClock()
        self.sender = open_manager(SENDER, clock, "binfile", directory, recover)
        self.receiver = open_manager(RECEIVER, clock, "binfile", directory, recover)
        self.service = ConditionalMessagingService(self.sender)
        if recover:
            self.service.recover_from_log()
        self.ready_at = time.perf_counter()
        self.receiver.ensure_queue(INBOX)
        self.endpoint = ConditionalMessagingReceiver(self.receiver, recipient_id="R")

    def both(self) -> Tuple[QueueManager, QueueManager]:
        return self.sender, self.receiver

    def depths(self) -> Dict[str, Dict[str, int]]:
        return {m.name: queue_depths(m) for m in self.both()}

    def close(self) -> None:
        for manager in self.both():
            close_manager(manager)


class WireWorkload(Workload):
    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale, rss_after_ops=2_500)
        self.warmup_ops = self.sized(150, 8)
        self.in_flight = self.sized(500, 8)
        self.profile_ops = self.sized(200, 8)
        self.bodies = text_payloads(self.rng, BODY_CHARS)
        self.sequence = 0
        self.outstanding = 0
        self.on_decided: Optional[Callable[[], None]] = None
        self.reads = 0
        self.landed: Dict[str, float] = {}
        #: arrival rate -> Samples.summary of that open-loop phase
        self.open_phases: Dict[int, Dict[str, float]] = {}
        self.lateness_s: List[float] = []
        self.backlog_at_end: Dict[int, int] = {}
        self.loop = asyncio.new_event_loop()
        self.managers: _Managers = None  # type: ignore[assignment]
        self.hosts: List[WireHost] = []
        self.tasks: List[asyncio.Task] = []

    def _run(self, coroutine: Any) -> Any:
        return self.loop.run_until_complete(coroutine)

    # -- wiring ---------------------------------------------------------------

    async def _attach(self, managers: _Managers) -> None:
        """Put both managers behind WireHosts and start the applications."""
        self.managers = managers
        sender, receiver = managers.both()
        sender_host = WireHost(sender)
        receiver_host = WireHost(
            receiver,
            window_provider=lambda: max(0, CAPACITY - receiver.depth(INBOX)),
        )
        self.hosts = [sender_host, receiver_host]
        sender_socket = socket_path(managers.directory, "s.sock")
        receiver_socket = socket_path(managers.directory, "r.sock")
        await sender_host.serve_unix(sender_socket)
        await receiver_host.serve_unix(receiver_socket)
        sender_host.connect_unix(RECEIVER, receiver_socket)
        receiver_host.connect_unix(SENDER, sender_socket)
        await sender_host.wait_connected(RECEIVER)
        await receiver_host.wait_connected(SENDER)
        self.condition = destination_set(
            destination(INBOX, manager=RECEIVER, recipient="R"),
            msg_pick_up_time=PICK_UP_WINDOW_MS,
        )
        self.inbox_wakeup = asyncio.Event()
        self.outcome_wakeup = asyncio.Event()
        self.progress = asyncio.Event()
        receiver.queue(INBOX).subscribe(lambda _m: self.inbox_wakeup.set())
        sender.queue(OUTCOME_QUEUE).subscribe(self._outcome_landed)
        self.inbox_wakeup.set()  # a restart may have left messages waiting
        self.tasks = [
            self.loop.create_task(self._drain_outcomes()),
            self.loop.create_task(self._drain_inbox(receiver_host)),
        ]

    def _outcome_landed(self, message: Any) -> None:
        self.landed[message.correlation_id] = time.perf_counter()
        self.outcome_wakeup.set()

    async def _drain_outcomes(self) -> None:
        """The sending application: read DS.OUTCOME.Q, forget, move on."""
        service = self.managers.service
        while True:
            await self.outcome_wakeup.wait()
            self.outcome_wakeup.clear()
            records = drain_outcomes(service)
            self.outcomes.extend(records)
            self.outstanding -= len(records)
            if self.on_decided is not None:
                for _ in records:
                    self.on_decided()
            self.progress.set()

    async def _drain_inbox(self, host: WireHost) -> None:
        """The receiving application (the drain loop of ``repro.net.host``)."""
        endpoint = self.managers.endpoint
        while True:
            await self.inbox_wakeup.wait()
            self.inbox_wakeup.clear()
            batch = DRAIN_BATCH
            while batch == DRAIN_BATCH:
                batch = 0
                with endpoint.ack_batch():
                    while batch < DRAIN_BATCH and endpoint.read_message(INBOX):
                        batch += 1
                self.reads += batch
                await host.refresh_windows()

    async def _stop_tasks(self, tasks: List[asyncio.Task]) -> None:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _detach(self) -> None:
        """Hygiene order: everything decided, spools empty, then close."""
        await self._wait_decided()
        for host in self.hosts:
            await host.drain_outbound()
        await self._close_hosts()

    async def _close_hosts(self) -> None:
        await self._stop_tasks(self.tasks)
        for host in self.hosts:
            try:
                await asyncio.wait_for(host.close(), CLOSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                self.failures.add(f"WireHost.close() of {host.name} timed out")
        self.hosts = []
        # asyncio leaves the listening sockets' files behind.
        for name in os.listdir(self.managers.directory):
            if name.endswith(".sock"):
                os.unlink(os.path.join(self.managers.directory, name))

    # -- traffic --------------------------------------------------------------

    def _send(self) -> Tuple[str, float, float]:
        index = self.sequence % len(self.bodies)
        self.sequence += 1
        self.attempted += 1
        started = time.perf_counter()
        cmid = self.managers.service.send_message(
            {"seq": self.sequence, "payload": self.bodies[index]}, self.condition
        )
        sent = time.perf_counter()
        self.expected[cmid] = True
        self.outstanding += 1
        return cmid, started, sent

    async def _progress(self, deadline: float) -> bool:
        """Wait for the next outcome; False once ``deadline`` has passed."""
        self.progress.clear()
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            self.failures.add("undecided at the deadline", self.outstanding)
            self.outstanding = 0
            return False
        try:
            await asyncio.wait_for(self.progress.wait(), remaining)
        except asyncio.TimeoutError:
            pass
        return True

    async def _wait_decided(self) -> None:
        deadline = time.perf_counter() + DECIDE_TIMEOUT_S
        while self.outstanding > 0 and await self._progress(deadline):
            pass

    async def _closed_loop(self, stop: Callable[[int], bool]) -> int:
        """Keep OUTSTANDING in flight until ``stop(sent so far)``."""
        sent = 0
        while not stop(sent):
            while self.outstanding < OUTSTANDING and not stop(sent):
                self._send()
                sent += 1
            if not await self._progress(time.perf_counter() + DECIDE_TIMEOUT_S):
                break
        await self._wait_decided()
        return sent

    async def _open_loop(self, rate: int, seconds: float) -> None:
        """Seeded Poisson arrivals; each message timed from its due time."""
        offsets: List[float] = []
        at = self.rng.expovariate(rate)
        while at < seconds:
            offsets.append(at)
            at += self.rng.expovariate(rate)
        sent: List[Tuple[str, float, float]] = []  # cmid, due, seconds in send
        started = time.perf_counter()
        for offset in offsets:
            due = started + offset
            delay = due - time.perf_counter()
            # Always yield: the wire pump shares this loop.
            await asyncio.sleep(delay if delay > 0 else 0)
            cmid, began, returned = self._send()
            sent.append((cmid, due, returned - began))
            self.lateness_s.append(began - due)
        ended = time.perf_counter()
        self.backlog_at_end[rate] = self.outstanding
        await self._wait_decided()
        samples = Samples()
        for cmid, due, send_s in sent:
            landed = self.landed.get(cmid)
            samples.add(due, send_s, landed - due if landed is not None else None)
        self.open_phases[rate] = samples.summary(started, ended)

    def _counts(self) -> Dict[str, float]:
        managers = self.managers
        return layers.count(
            managers.both(), managers.service, [managers.endpoint], hosts=self.hosts
        )

    async def _measure(self, seconds: float) -> None:
        before = self._counts()
        cpu_before = time.process_time()
        decided_before = len(self.outcomes)
        began = time.perf_counter()
        for rate, share in OPEN_PHASES:
            await self._open_loop(rate, seconds * share)
            self.rss.note(len(self.outcomes) - decided_before)
        closed = Samples()
        closed_started = time.perf_counter()
        closed_deadline = closed_started + seconds * CLOSED_SHARE
        self.on_decided = lambda: closed.add(time.perf_counter(), 0.0, None)
        await self._closed_loop(lambda _sent: time.perf_counter() >= closed_deadline)
        self.on_decided = None
        saturation = closed.summary(closed_started, time.perf_counter())
        self.counted = layers.delta(self._counts(), before)
        decided = len(self.outcomes) - decided_before
        self.rss.note(decided)
        self.measured = {
            **saturation,
            "elapsed_s": time.perf_counter() - began,
            "busy_s": time.process_time() - cpu_before,
            "decided": decided,
            "failed": 0,
            "store_bytes": self.counted["journal.bytes"],
            "user_bytes": decided * BODY_CHARS,
        }
        stats = self.hosts[0].wire_stats().get(f"out:{RECEIVER}", {})
        self.measured["rtt_srtt_ms"] = stats.get("rtt_srtt_ms") or 0.0

    # -- phases ---------------------------------------------------------------

    def setup(self, directory: str) -> None:
        self._run(self._attach(_Managers(directory)))
        self._run(self._closed_loop(lambda sent: sent >= self.warmup_ops))
        self.landed.clear()

    def measure(self, seconds: float) -> None:
        self._run(self._measure(seconds))

    def recovery(self, reps: int) -> None:
        """K sends the receiver never reads, both hosts stopped, restart."""
        old = self.managers

        async def strand() -> Dict[str, Dict[str, int]]:
            await self._wait_decided()
            checkpoint_all(old.both())
            await self._stop_tasks(self.tasks[1:])  # the receiver stops reading
            for _ in range(self.in_flight):
                self._send()
            depth = -1
            while depth != old.receiver.depth(INBOX):  # until the wire goes quiet
                depth = old.receiver.depth(INBOX)
                await asyncio.sleep(0.05)
            depths = old.depths()
            await self._close_hosts()
            return depths

        depths = self._run(strand())
        records = sum(m.journal.size() for m in old.both())
        old.close()
        times, restarted = timed_restarts(
            old.directory, reps, lambda d: _Managers(d, recover=True)
        )
        self.failures.check(
            restarted.depths() == depths,
            "recovered queue depths differ from the depths before the close",
        )
        self._run(self._attach(restarted))
        self._run(self._wait_decided())
        self.recovered = restart_summary(times, self.in_flight, records)

    def verify(self) -> None:
        self._run(self._wait_decided())
        for host in self.hosts:
            self._run(host.drain_outbound())
        check_outcomes(self.failures, self.expected, self.outcomes)
        check_system_queues_empty(self.failures, self.managers.sender)
        self.failures.check(
            self.reads == len(self.expected),
            f"{self.reads} reads of {len(self.expected)} messages (duplicates?)",
        )
        for manager in self.managers.both():
            for queue_name in manager.queue_names():
                if queue_name == INBOX or queue_name.startswith(XMIT_PREFIX):
                    depth = manager.depth(queue_name)
                    self.failures.check(
                        depth == 0, f"{manager.name} {queue_name} holds {depth} at the end"
                    )

    def teardown(self) -> None:
        try:
            self._run(self._detach())
        finally:
            self.managers.close()
            self.loop.close()

    def profile_slice(self) -> int:
        return self._run(self._closed_loop(lambda sent: sent >= self.profile_ops))

    # -- results --------------------------------------------------------------

    def latencies(self) -> Dict[str, float]:
        return self.open_phases[REPORTED_RATE]

    def traced_facts(self, tracer: Any) -> Dict[str, float]:
        # spool wait: spooled by WireHost.send -> handed to the engine
        spooled = {s[5]: s[3] for s in tracer.spans_named("net.wire", "send")}
        waits = [
            (span[3] - spooled[span[5]]) / 1e9
            for span in tracer.spans_named("net.protocol", "send_message")
            if span[5] in spooled
        ]
        return {
            **super().traced_facts(tracer),
            "wire_messages": self.counted["wire.messages"],
            # Open-loop phases idle between arrivals, so the self times
            # are held against CPU time, not wall time.
            "busy_s": self.measured["busy_s"],
            "spool_wait_ms_p50": ms_percentile(waits, 50),
        }

    def layer_facts(self) -> Dict[str, float]:
        facts = super().layer_facts()
        facts["wire.rtt_srtt_ms"] = self.measured["rtt_srtt_ms"]
        facts["loadgen.lateness_ms_p99"] = ms_percentile(self.lateness_s, 99)
        phases = self.open_phases
        facts["loadgen.decision_ms_p50_r150"] = phases[150]["decision_ms_p50"]
        facts["loadgen.decision_ms_p50_r450"] = phases[450]["decision_ms_p50"]
        facts["loadgen.decision_ms_p99_r300"] = phases[300]["decision_ms_p99"]
        facts["loadgen.max_rate_ok"] = max(
            [
                rate
                for rate, phase in phases.items()
                if phase["n"]
                and phase["decision_ms_p95"] <= LIMIT_P95_MS
                and self.backlog_at_end[rate] <= max(8, rate * LIMIT_P95_MS / 1e3)
            ],
            default=0,
        )
        return facts
