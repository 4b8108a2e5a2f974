"""BACKLOG — per-message cost against backlog depth and against history.

The two things a reliable-messaging layer is bought for are that it can
absorb a backlog and that it can run for a long time.  Both used to go
quadratic here: every keyed question the conditional layer asks its
queues ("was this original consumed here?", "which compensations are
staged for this id?", "is a pair co-resident?", "is this id already in
the target queue?") was answered by a Python walk over the whole queue.
Since PR 16 ``MessageQueue`` keeps id and correlation indexes and those
questions are keyed lookups.  This bench holds the two curves flat:

* **backlog** — wall-clock ms per conditional message (send, 8 reads,
  acks, decision, compensation discard) in steady state with K = 1 / 100
  / 500 / 1500 conditional messages outstanding, fan-out 8, ``binfile:``
  journals in a temp directory;
* **longevity** — a 4,000-message failure loop in bursts of 20 (three of
  four receivers read, the deadline passes, compensations are released
  and delivered against the receiver log, the fourth receiver's originals
  cancel against their compensations); rate of the first quarter vs the
  last.

Parent commit (PR 15, scans still in place), for the record: 2.43 / 2.94
/ 5.60 / 45.7 ms per conditional message at K = 1 / 100 / 500 / 1500
(ratio 18.8x), and 559 -> 190 decided/s over one 16 s
``timeout_compensate_virtual`` run (last / first ~ 0.34).  This file run
on the parent: 2.44 / 3.47 / 8.37 / 23.3 ms (9.5x) and 691 -> 214/s by
quarter (0.31); on PR 16: 2.39 / 2.39 / 2.52 / 2.68 ms (1.12x) and
890 -> 955/s (1.07).

Results land in ``BENCH_backlog.json`` at the repo root.  The two
*ratios* are asserted here — cost at 1500 outstanding at most 2x the
cost at 1, last quarter at least 0.85 of the first — and the CI
``benchmark-smoke`` job runs this file, so they gate; a ratio divides
machine speed out, so it fails for the right reason.
"""

import json
import os
import tempfile
import time

from repro.core.builder import destination, destination_set
from repro.harness.reporting import Table
from repro.mq.persistence import journal_factory_for
from repro.workloads.scenarios import Testbed

FANOUT = [f"R{i}" for i in range(1, 9)]
OUTSTANDING = (1, 100, 500, 1500)
MEASURED = 150  # conditional messages timed per backlog point
LOOP_MESSAGES = 4_000
BURST = 20
LOOP_RECEIVERS = ["R1", "R2", "R3", "R4"]
MAX_BACKLOG_RATIO = 2.0
MIN_LONGEVITY_RATIO = 0.85

RESULT_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_backlog.json")
)


def deploy(names, directory):
    return Testbed(
        names,
        latency_ms=1,
        journaled=True,
        journal_factory=journal_factory_for(
            "binfile", directory, sync="batch", compaction_threshold=50_000
        ),
    )


def condition_for(bed, names, pick_up_ms):
    return destination_set(
        *[
            destination(
                bed.queue_of(name), manager=f"QM.{name}", recipient=name,
                msg_pick_up_time=pick_up_ms,
            )
            for name in names
        ],
        evaluation_timeout=pick_up_ms + 100,
    )


def send(bed, condition, sequence):
    bed.service.send_message(
        {"seq": sequence, "payload": "x" * 256}, condition,
        compensation={"undo": sequence},
    )


def drain_outcomes(bed):
    for record in bed.service.poll_outcome_notifications():
        bed.service.forget(record.cmid)


def ms_per_message_at(outstanding, directory):
    """Steady state: send one, every receiver reads its oldest, it decides."""
    bed = deploy(FANOUT, directory)
    condition = condition_for(bed, FANOUT, pick_up_ms=10**8)
    for sequence in range(outstanding):
        send(bed, condition, sequence)
    bed.scheduler.run_for(5)
    started = time.perf_counter()
    for sequence in range(MEASURED):
        send(bed, condition, sequence)
        bed.scheduler.run_for(2)
        for name in FANOUT:
            assert bed.receiver(name).read_message(bed.queue_of(name)) is not None
        bed.scheduler.run_for(2)
        drain_outcomes(bed)
    elapsed = time.perf_counter() - started
    assert bed.service.pending_count() == outstanding
    assert bed.service.evaluation.stats.decided_success == MEASURED
    for journal in bed.journals.values():
        journal.close()
    return elapsed / MEASURED * 1e3


def failure_loop_quarter_rates(directory):
    """Decided/s of each quarter of the compensation loop."""
    bed = deploy(LOOP_RECEIVERS, directory)
    condition = condition_for(bed, LOOP_RECEIVERS, pick_up_ms=1_000)
    readers, absent = LOOP_RECEIVERS[:-1], LOOP_RECEIVERS[-1]
    rates = []
    sequence = 0
    for _quarter in range(4):
        started = time.perf_counter()
        for _burst in range(LOOP_MESSAGES // 4 // BURST):
            for _ in range(BURST):
                send(bed, condition, sequence)
                sequence += 1
            bed.scheduler.run_for(5)
            for name in readers:
                originals = bed.receiver(name).read_all(bed.queue_of(name))
                assert len(originals) == BURST
            bed.run_all()  # deadline passes; failures; compensations land
            for name in readers:
                undone = bed.receiver(name).read_all(bed.queue_of(name))
                assert len(undone) == BURST and undone[0].is_compensation
            assert bed.receiver(absent).read_all(bed.queue_of(absent)) == []
            drain_outcomes(bed)
        rates.append(LOOP_MESSAGES / 4 / (time.perf_counter() - started))
    assert bed.service.evaluation.stats.decided_failure == LOOP_MESSAGES
    assert bed.receiver(absent).stats.cancellations == LOOP_MESSAGES
    for journal in bed.journals.values():
        journal.close()
    return rates


def test_cost_is_flat_in_backlog_and_in_history(report):
    with tempfile.TemporaryDirectory() as root:
        backlog = {
            outstanding: ms_per_message_at(outstanding, os.path.join(root, f"k{outstanding}"))
            for outstanding in OUTSTANDING
        }
        rates = failure_loop_quarter_rates(os.path.join(root, "loop"))
    backlog_ratio = backlog[OUTSTANDING[-1]] / backlog[OUTSTANDING[0]]
    longevity_ratio = rates[-1] / rates[0]

    table = Table(
        f"BACKLOG: ms per conditional message, fan-out {len(FANOUT)}, binfile"
        f" ({MEASURED} messages/point)",
        ["outstanding", "ms/cmsg", "vs 1 outstanding"],
    )
    for outstanding, ms in backlog.items():
        table.add_row(
            [outstanding, round(ms, 2), f"{ms / backlog[OUTSTANDING[0]]:.2f}x"]
        )
    report.emit(table)
    table = Table(
        f"LONGEVITY: {LOOP_MESSAGES}-message compensation loop, decided/s by quarter",
        ["quarter", "decided/s", "vs first"],
    )
    for index, rate in enumerate(rates, start=1):
        table.add_row([index, round(rate, 1), f"{rate / rates[0]:.2f}x"])
    report.emit(table)

    payload = {
        "fanout": len(FANOUT),
        "measured_per_point": MEASURED,
        "ms_per_cmsg": {str(k): ms for k, ms in backlog.items()},
        "backlog_ratio_1500_vs_1": backlog_ratio,
        "loop_messages": LOOP_MESSAGES,
        "decided_per_s_by_quarter": rates,
        "longevity_ratio_last_vs_first": longevity_ratio,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    assert backlog_ratio <= MAX_BACKLOG_RATIO, backlog
    assert longevity_ratio >= MIN_LONGEVITY_RATIO, rates
