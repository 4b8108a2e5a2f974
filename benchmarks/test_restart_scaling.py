"""RESTART — what a restart costs against what is live in the log.

Time-to-restart is the outage a reliable-messaging layer is bought to
shorten.  Since PR 22 a restart passes over the log's bytes once, folds
the records undecoded, decodes only the messages that survive the fold,
and rewrites the log only when at least half of it is dead (or its tail
needed healing).  This bench restarts a fan-out-8 deployment on
``binfile:`` journals in a temp directory from two shapes of log:

* **all live** — every manager checkpoints, then 500 conditional
  messages are sent and left unread: a snapshot plus a raw log in which
  every message is still live but the spool copies already transferred
  (the shape ``benchmarks/e2e`` restarts from);
* **consumed** — 3,000 conditional messages sent, read by all eight
  receivers and decided, with no explicit checkpoint: every inbox put is
  dead, and so is most of the sender's log since its last
  auto-compaction.

For each: median seconds of three restarts (open + ``QueueManager.recover``
of all nine managers, each from a pristine copy of the closed store
directory), records scanned, messages live, messages decoded, logs and
bytes rewritten.

Parent commit (PR 16: every put decoded, a checkpoint after every
replay), for the record.  On the ``fanout8_binfile`` recovery phase of
``benchmarks/e2e``: 13,043 records, every put among them decoded, 19.8
MB read and 19.8 MB written back, ``recover_s`` 0.55-0.78 s; a
fresh-process restart after 3,060 consumed messages (93.7 MB, 132,623
records in nine logs) decoded every put and took 3.0-4.3 s.  This file
on the parent: all live 12,500 decoded, 9 logs / 19.6 MB rewritten, 0.47
s; consumed 90,928 decoded, 9 logs / 36.2 MB rewritten, 2.6 s.  On PR
22: all live 12,555 scanned / 12,500 live / 12,500 decoded, nothing
rewritten, 0.31 s; consumed 128,071 scanned / 53,824 live / 53,824
decoded, 1 log / 9.5 MB rewritten (the sender's; each receiver log is 4
records per message of which 2 are live — a hair under half dead — so it
is left as found), 2.5-3.3 s.  What the consumed restart still pays is one
``pickle.loads`` per record ever logged, most of it cyclic-GC passes
over the growing record list (1.3 s with the collector off): ROADMAP
direction 2's record format, not this bench's subject.

Since spool resolution is logged (one ``resolve`` record riding the next
commit group of the source), transferred copies stop resurrecting.  All
live: 13,055 scanned (+500 ``resolve`` records) / 8,500 live / 8,500
decoded (12,500 before: the 8 parked copies of each send were live),
nothing rewritten, 0.26-0.29 s.  Consumed: 155,085 scanned (+9
``resolve`` records per message) / 24,000 live / 24,000 decoded (53,824
before; what is left is the receivers' ``DS.RLOG.Q`` entries, which
nothing prunes yet), all 9 logs / 6.0 MB rewritten (each receiver log is
now more than half dead), 3.0-3.4 s: the scan of every record ever
logged, not the decode, is what a consumed restart pays.

Since a checkpoint writes its snapshot as run frames of 1,024 records
through one memo each, the consumed restart writes back 5,521,073 bytes
(6,002,731 as one frame per record); every other count is unchanged.
``benchmarks/check_bench_regression.py`` gates messages live, messages
decoded, records scanned and bytes rewritten of each shape at zero
tolerance upward.

Results land in ``BENCH_restart.json`` at the repo root.  Only the
machine-independent facts are asserted — decoded == live in both shapes,
nothing rewritten when all is live, a rewrite when most is dead — not the
seconds; the CI ``benchmark-smoke`` job runs this file.
"""

import json
import os
import shutil
import statistics
import tempfile
import time

from repro.core.builder import destination, destination_set
from repro.harness.reporting import Table
from repro.mq import persistence
from repro.mq.manager import QueueManager
from repro.mq.persistence import journal_factory_for
from repro.sim.clock import SimulatedClock
from repro.workloads.scenarios import Testbed

FANOUT = [f"R{i}" for i in range(1, 9)]
UNREAD_SENDS = 500
CONSUMED_MESSAGES = 3_000
RESTARTS = 3

RESULT_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_restart.json")
)


def journal_factory(directory):
    return journal_factory_for(
        "binfile", directory, sync="batch", compaction_threshold=50_000
    )


def deploy(directory):
    bed = Testbed(
        FANOUT, latency_ms=1, journaled=True, journal_factory=journal_factory(directory)
    )
    condition = destination_set(
        *[
            destination(
                bed.queue_of(name), manager=f"QM.{name}", recipient=name,
                msg_pick_up_time=10**8,
            )
            for name in FANOUT
        ],
        evaluation_timeout=10**8 + 100,
    )
    return bed, condition


def send(bed, condition, sequence):
    bed.service.send_message(
        {"seq": sequence, "payload": "x" * 1024}, condition,
        compensation={"undo": "y" * 1024},
    )
    bed.scheduler.run_for(2)


def close(bed):
    names = list(bed.journals)
    for journal in bed.journals.values():
        journal.close()
    return names


def build_all_live(directory):
    bed, condition = deploy(directory)
    for manager in [bed.sender_manager] + [n.manager for n in bed.receivers.values()]:
        manager.checkpoint()
    for sequence in range(UNREAD_SENDS):
        send(bed, condition, sequence)
    return close(bed)


def build_consumed(directory):
    bed, condition = deploy(directory)
    for sequence in range(CONSUMED_MESSAGES):
        send(bed, condition, sequence)
        for name in FANOUT:
            assert bed.receiver(name).read_message(bed.queue_of(name)) is not None
        bed.scheduler.run_for(2)
        for record in bed.service.poll_outcome_notifications():
            bed.service.forget(record.cmid)
    assert bed.service.evaluation.stats.decided_success == CONSUMED_MESSAGES
    return close(bed)


def restart(directory, names, decodes):
    """Open and recover every manager; what it cost and what it did."""
    clock = SimulatedClock()
    factory = journal_factory(directory)
    log_bytes = sum(
        os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory)
    )
    decoded_before = decodes["n"]
    started = time.perf_counter()
    journals = [factory(name) for name in names]
    for name, journal in zip(names, journals):
        QueueManager.recover(name, clock, journal)
    seconds = time.perf_counter() - started
    facts = {
        "seconds": seconds,
        "log_bytes": log_bytes,
        "records_scanned": sum(j.recover_records for j in journals),
        "messages_live": sum(j.recover_live for j in journals),
        "messages_decoded": decodes["n"] - decoded_before,
        "logs_rewritten": sum(j.rewrites for j in journals),
        # Nothing is appended after a restart's rewrite, so a rewritten
        # log's size is what the rewrite wrote.
        "bytes_rewritten": sum(
            os.path.getsize(j.path) for j in journals if j.rewrites
        ),
    }
    for journal in journals:
        journal.close()
    return facts


def timed_restarts(build, root, tag, decodes):
    pristine = os.path.join(root, tag)
    names = build(pristine)
    runs = []
    for rep in range(RESTARTS):
        work = f"{pristine}.r{rep}"
        shutil.copytree(pristine, work)
        runs.append(restart(work, names, decodes))
        shutil.rmtree(work)
    seconds = [run.pop("seconds") for run in runs]
    assert all(run == runs[0] for run in runs)  # the counts repeat exactly
    return {"seconds": statistics.median(seconds), **runs[0]}


def test_restart_cost_follows_live_state(report, monkeypatch):
    decodes = {"n": 0}
    original = persistence.decode_message

    def counting(record):
        decodes["n"] += 1
        return original(record)

    monkeypatch.setattr(persistence, "decode_message", counting)
    with tempfile.TemporaryDirectory() as root:
        all_live = timed_restarts(build_all_live, root, "live", decodes)
        consumed = timed_restarts(build_consumed, root, "consumed", decodes)

    table = Table(
        f"RESTART: fan-out {len(FANOUT)}, binfile, nine managers"
        f" (median of {RESTARTS} restarts)",
        ["log shape", "seconds", "log MB", "records scanned", "messages live",
         "messages decoded", "logs rewritten", "MB rewritten"],
    )
    for shape, facts in (("all live", all_live), ("consumed", consumed)):
        table.add_row(
            [
                shape,
                round(facts["seconds"], 3),
                round(facts["log_bytes"] / 1e6, 1),
                facts["records_scanned"],
                facts["messages_live"],
                facts["messages_decoded"],
                facts["logs_rewritten"],
                round(facts["bytes_rewritten"] / 1e6, 1),
            ]
        )
    report.emit(table)

    payload = {
        "fanout": len(FANOUT),
        "restarts_per_shape": RESTARTS,
        "all_live": {"unread_sends": UNREAD_SENDS, **all_live},
        "consumed": {"consumed_messages": CONSUMED_MESSAGES, **consumed},
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    for facts in (all_live, consumed):
        assert facts["messages_decoded"] == facts["messages_live"], facts
    assert all_live["bytes_rewritten"] == 0 and all_live["logs_rewritten"] == 0
    assert consumed["logs_rewritten"] >= 1 and consumed["bytes_rewritten"] > 0
    assert consumed["messages_live"] < consumed["records_scanned"] / 2
