"""``fanout8_binfile`` and ``fanout8_sqlstore``: closed loop, fan-out 8.

The paper's Example 1 shape without the nesting: one sender and eight
receiver queue managers in one process, joined by the synchronous
``MessageNetwork``, every manager on its own durable store, wall clock.
One conditional message is outstanding at a time::

    send_message -> 8 x read_message -> poll -> outcome on DS.OUTCOME.Q

``core.sender``, ``mq.manager``, ``mq.message``, the store layer and
``core.evaluation`` do nearly all the work; ``net.*`` and ``mq.pubsub``
do none.  The two variants differ only in the store URL scheme, so they
separate ``mq.persistence`` + ``mq.queue`` from ``mq.sqlstore``.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.chaos.invariants import EpisodeLedger, SendRecord
from repro.core.builder import destination, destination_set
from repro.sim.clock import WallClock

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    Deployment,
    Workload,
    check_invariants,
    check_outcomes,
    check_system_queues_empty,
    checkpoint_all,
    median,
    process_write_bytes,
    restart_summary,
    text_payloads,
    timed_restarts,
)

RECEIVERS = [f"R{i}" for i in range(8)]
PICK_UP_WINDOW_MS = 60_000
BODY_CHARS = 1024
#: per scheme: (warm-up iterations inside set-up, in-flight messages left
#: for the recovery phase, iterations under cProfile, iterations after
#: which peak RSS is sampled).  The SQL store runs ~6x slower per
#: iteration, so its fixed-count phases are sized down to fit the budget.
SIZES = {"binfile": (60, 500, 200, 2_000), "sqlstore": (12, 150, 40, 300)}


class FanoutWorkload(Workload):
    """One closed-loop fan-out-8 run on a given store scheme."""

    def __init__(self, scheme: str, seed: int, scale: float) -> None:
        warmup, in_flight, profiled, rss_after = SIZES[scheme]
        super().__init__(seed, scale, rss_after)
        self.scheme = scheme
        self.warmup_ops = self.sized(warmup, 2)
        self.in_flight = self.sized(in_flight, 4)
        self.profile_ops = self.sized(profiled, 4)
        self.bodies = text_payloads(self.rng, BODY_CHARS)
        self.compensations = text_payloads(self.rng, BODY_CHARS)
        self.ledger = EpisodeLedger()
        self.sequence = 0
        self.deployment: Deployment = None  # type: ignore[assignment]

    # -- phases ---------------------------------------------------------------

    def setup(self, directory: str) -> None:
        self.deployment = self._deploy(directory)
        for _ in range(self.warmup_ops):
            self._iteration(record=False)

    def _deploy(self, directory: str, recover: bool = False) -> Deployment:
        deployment = Deployment(
            directory, self.scheme, RECEIVERS, WallClock(), recover=recover
        )
        self.condition = destination_set(
            *[
                destination(
                    deployment.queue_of(name), manager=f"QM.{name}", recipient=name
                )
                for name in RECEIVERS
            ],
            msg_pick_up_time=PICK_UP_WINDOW_MS,
        )
        self.destinations = [
            (f"QM.{name}", deployment.queue_of(name)) for name in RECEIVERS
        ]
        return deployment

    def _send(self) -> str:
        index = self.sequence % len(self.bodies)
        self.sequence += 1
        self.attempted += 1
        cmid = self.deployment.service.send_message(
            {"seq": self.sequence, "payload": self.bodies[index]},
            self.condition,
            compensation={"undo": self.compensations[index]},
        )
        self.expected[cmid] = True
        self.ledger.record_send(SendRecord(cmid, self.destinations))
        return cmid

    def _read_all(self) -> None:
        """Every receiver reads the next message off its inbox."""
        deployment = self.deployment
        for name, receiver in deployment.receivers.items():
            received = receiver.read_message(deployment.queue_of(name))
            if received is None or not received.cmid:
                self.failures.add(f"{name}: no conditional message to read")
                continue
            self.ledger.record_read(received.cmid, f"QM.{name}")

    def _iteration(self, record: bool = True) -> None:
        deployment = self.deployment
        started = time.perf_counter()
        cmid = self._send()
        sent = time.perf_counter()
        self._read_all()
        deployment.service.poll()
        self.outcomes.extend(deployment.drain_outcomes())
        if record:
            landed = deployment.landed
            self.samples.add(
                time.perf_counter(),
                sent - started,
                landed[-1][1] - started if landed and landed[-1][0] == cmid else None,
            )
        deployment.landed.clear()

    def _counts(self) -> Dict[str, float]:
        deployment = self.deployment
        return layers.count(
            deployment.managers.values(),
            deployment.service,
            deployment.receivers.values(),
        )

    def measure(self, seconds: float) -> None:
        before = self._counts()
        wrote_before = process_write_bytes()
        decided_before = len(self.outcomes)
        started = now = time.perf_counter()
        deadline = started + seconds
        while now < deadline:
            self._iteration()
            now = time.perf_counter()
            self.rss.note(len(self.outcomes) - decided_before)
        decided = len(self.outcomes) - decided_before
        self.counted = layers.delta(self._counts(), before)
        self.measured = {
            **self.samples.summary(started, now),
            "elapsed_s": now - started,
            "decided": decided,
            "failed": 0,
            # SQL stores keep no byte count; what the process wrote is theirs.
            "store_bytes": self.counted["journal.bytes"]
            or process_write_bytes() - wrote_before,
            "user_bytes": decided * 2 * BODY_CHARS,
        }

    def recovery(self, reps: int) -> None:
        """K sends left unread, every store closed, restart timed ``reps`` x."""
        old = self.deployment
        checkpoint_all(old.managers.values())
        for _ in range(self.in_flight):
            self._send()
        depths = old.depths()
        records = old.log_records()
        old.close()
        times, self.deployment = timed_restarts(
            old.directory, reps, lambda d: self._deploy(d, recover=True)
        )
        self.failures.check(
            self.deployment.depths() == depths,
            "recovered queue depths differ from the depths before the close",
        )
        for _ in range(self.in_flight):
            self._read_all()
        self.deployment.service.poll()
        self.outcomes.extend(self.deployment.drain_outcomes())
        self.recovered = restart_summary(times, self.in_flight, records)

    def verify(self) -> None:
        check_outcomes(self.failures, self.expected, self.outcomes)
        check_system_queues_empty(self.failures, self.deployment.sender)
        check_invariants(self.failures, self.deployment, self.ledger, self.outcomes)

    def teardown(self) -> None:
        self.deployment.close()

    def profile_slice(self) -> int:
        for _ in range(self.profile_ops):
            self._iteration(record=False)
        return self.profile_ops

    def layer_facts(self) -> Dict[str, float]:
        facts = super().layer_facts()
        if self.scheme == "sqlstore":
            facts["sql.open_ms"] = median(self.deployment.store_open_s) * 1e3
        return facts
