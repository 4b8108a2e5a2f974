"""SCALE — evaluation-manager scaling (paper section 2.5).

The evaluation manager correlates every incoming acknowledgment on one
shared DS.ACK.Q to the right conditional message.  This bench sweeps

* the number of concurrently pending conditional messages,
* the acknowledgment volume, and
* the fan-out of one message's own condition,

measuring ack-processing cost.  Expected shape: per-ack work is
independent of how many *other* messages are pending (dict correlation,
no scans) and of the message's own fan-out — each message keeps a
``ConditionTracker`` built once at registration, and an acknowledgment
moves counters on one leaf-to-root path.  The per-ack full re-walk this
replaced cost 70 us per ack at fan-out 8 and 567 us at fan-out 128.

The fan-out ratio is asserted here — us per ack at fan-out 512 at most
2x that at fan-out 8 — and the CI ``benchmark-smoke`` job runs this
file, so it gates; a ratio divides machine speed out.

Messages that must stay pending carry one extra leaf on a topic no one
acknowledges: a subtree holding a topic leaf never runs out of copies,
so no number of acknowledgments can decide it before its timeout.
"""

import time

import pytest

from repro.core.acks import Acknowledgment, AckKind, ack_to_message
from repro.core.builder import destination, destination_set
from repro.core.evaluation import EvaluationManager
from repro.harness.reporting import Table
from repro.mq.manager import QueueManager
from repro.mq.pubsub import topic_queue_name
from repro.sim.clock import SimulatedClock

FAN_OUTS = (2, 8, 32, 128, 512)
ACKS_PER_POINT = 4_096  # acknowledgments timed per fan-out row
MAX_FAN_OUT_RATIO = 2.0


def build(pending, fan_out=4, never_decides=False):
    clock = SimulatedClock()
    manager = QueueManager("QM.S", clock)
    decided = []
    evaluation = EvaluationManager(
        manager, "DS.ACK.Q", on_decided=decided.append, scheduler=None
    )
    for m in range(pending):
        members = [
            destination(f"Q.{i}", manager="QM.S", recipient=f"R{i}")
            for i in range(fan_out)
        ]
        if never_decides:
            members.append(destination(topic_queue_name("scale.never")))
        condition = destination_set(*members, msg_pick_up_time=1_000_000)
        evaluation.register(f"CM-{m:06d}", condition, 0, 2_000_000)
    return manager, evaluation, decided


def one_ack(cmid, i=0):
    return ack_to_message(
        Acknowledgment(
            cmid=cmid,
            kind=AckKind.READ,
            queue=f"Q.{i}",
            manager="QM.S",
            recipient=f"R{i}",
            read_time_ms=10,
            commit_time_ms=None,
            original_message_id=f"m{i}",
        )
    )


@pytest.mark.parametrize("pending", [10, 100, 1_000])
def test_ack_processing_vs_pending_population(benchmark, pending):
    """Cost of processing one ack while N other messages are pending."""
    manager, evaluation, decided = build(pending, never_decides=True)
    target = f"CM-{pending - 1:06d}"
    counter = {"i": 0}

    def process_one_ack():
        counter["i"] = (counter["i"] + 1) % 4
        manager.put("DS.ACK.Q", one_ack(target, counter["i"]))

    benchmark.pedantic(process_one_ack, rounds=100, iterations=1)
    assert evaluation.record(target).pending and decided == []


def test_scale_table(benchmark, report):
    table = Table(
        "SCALE: evaluation manager — ack throughput vs pending population",
        ["pending msgs", "acks pumped", "wall ms", "acks/s", "decided"],
    )
    for pending in (10, 100, 1_000):
        manager, evaluation, decided = build(pending, fan_out=4)
        # Complete every message: 4 acks each.
        start = time.perf_counter()
        for m in range(pending):
            for i in range(4):
                manager.put("DS.ACK.Q", one_ack(f"CM-{m:06d}", i))
        wall_ms = (time.perf_counter() - start) * 1e3
        acks = pending * 4
        table.add_row(
            [pending, acks, wall_ms, acks / (wall_ms / 1e3), len(decided)]
        )
        assert len(decided) == pending
        assert all(d.succeeded for d in decided)
    report.emit(table)
    manager, evaluation, decided = build(100)
    benchmark.pedantic(
        lambda: manager.put("DS.ACK.Q", one_ack("CM-000050")),
        rounds=100,
    )


def us_per_ack(fan_out, repeats=3):
    """Best-of-``repeats`` wall us per ack, deciding enough fan-out-wide
    messages to pump ``ACKS_PER_POINT`` acks (registration not timed)."""
    messages = max(1, ACKS_PER_POINT // fan_out)
    best = float("inf")
    for _ in range(repeats):
        manager, evaluation, decided = build(messages, fan_out=fan_out)
        start = time.perf_counter()
        for m in range(messages):
            for i in range(fan_out):
                manager.put("DS.ACK.Q", one_ack(f"CM-{m:06d}", i))
        best = min(best, (time.perf_counter() - start) * 1e6 / (messages * fan_out))
        assert len(decided) == messages and all(d.succeeded for d in decided)
    return best


def test_scale_condition_size(benchmark, report):
    """Per-ack evaluation cost vs the message's own condition size."""
    table = Table(
        "SCALE: evaluation cost vs condition fan-out (acks to decide each message)",
        ["fan-out", "acks timed", "us/ack", "vs fan-out 8"],
    )
    costs = {fan_out: us_per_ack(fan_out) for fan_out in FAN_OUTS}
    for fan_out, cost in costs.items():
        acks = max(1, ACKS_PER_POINT // fan_out) * fan_out
        table.add_row([fan_out, acks, cost, cost / costs[8]])
    report.emit(table)
    assert costs[512] <= MAX_FAN_OUT_RATIO * costs[8], costs
    manager, evaluation, decided = build(1, fan_out=32, never_decides=True)
    counter = {"i": 0}

    def pump_one():
        counter["i"] = (counter["i"] + 1) % 32
        manager.put("DS.ACK.Q", one_ack("CM-000000", counter["i"]))

    benchmark.pedantic(pump_one, rounds=100)
    assert decided == []
