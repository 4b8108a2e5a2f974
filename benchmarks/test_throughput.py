"""THROUGHPUT — hot-path journaling under conditional-send fan-out.

Two batching layers cut the journal-flush cost of the hot path:

* **group commit** routes every journaled write of one conditional send
  — staged compensations, the SLOG entry, the per-destination
  transmission parking — through a single commit group;
* **adaptive flush** (:meth:`Journal.enable_adaptive_flush`) holds the
  commit group open for an EWMA-derived window so *independent* writes
  arriving close together — concurrent sends, a receiver's drain-time
  gets, the ack intake — coalesce into one physical write.

This bench quantifies both:

* journal flushes per conditional send, group commit on vs. off, at
  fan-out ``FAN_OUT`` (the acceptance bar is a >= 3x reduction);
* end-to-end sustained throughput (msgs/sec of decided conditional
  messages, wall clock) through the full lifecycle — send, delivery,
  receipt acknowledgment, outcome decision — on a journaled testbed
  with adaptive flush enabled;
* decision latency percentiles (virtual ms, send -> outcome).  Sends
  are staggered and receivers drain off arrival-triggered events, so
  every decision is stamped at event granularity — the latency
  distribution reflects channel latency + jitter + flush hold, not the
  stride of a ``run_until`` polling loop.

Results land in ``BENCH_throughput.json`` at the repo root (consumed by
the CI benchmark-smoke step) and in the usual results table.  Set
``BENCH_SHORT=1`` for a fast smoke run.

``test_persistence_backends`` compares the journal backends
(memory / file / binfile — the binary-codec file store — and
sqlstore, the SQL-backed live queue store) at the same fan-out: journal
flushes per second under the conditional-send workload and wall-clock
recovery time from the resulting log, written to
``BENCH_persistence.json``.  Backends must agree on the recovered queue
depths — including across codecs, and including the store whose
"recovery" is just opening the database.
"""

import json
import os
import time

from repro.core.builder import destination, destination_set
from repro.harness.reporting import Table
from repro.harness.runner import run_multiprocess_benchmark
from repro.mq.manager import QueueManager
from repro.mq.persistence import journal_factory_for
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import SimulatedClock
from repro.workloads.scenarios import Testbed

FAN_OUT = 8
SHORT = os.environ.get("BENCH_SHORT", "") not in ("", "0")
N_MESSAGES = 25 if SHORT else 200
N_PERSISTENCE = 10 if SHORT else 50
#: Sends are issued in bursts of this many, 1 virtual ms apart within a
#: burst — close enough for the adaptive hold window to coalesce them.
SEND_BURST = 16
#: Virtual ms between burst starts.
BURST_GAP_MS = 40
#: Wall-clock throughput is noisy on shared machines; the lifecycle runs
#: this many times and the fastest run is reported (standard de-noising
#: for latency-sensitive microbenchmarks — the best run is the one with
#: the least scheduler/cache interference, i.e. closest to the true cost).
LIFECYCLE_RUNS = 1 if SHORT else 5
RESULT_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_throughput.json")
)
PERSISTENCE_RESULT_PATH = os.path.abspath(
    os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_persistence.json"
    )
)
PERSISTENCE_BACKENDS = ("memory", "file", "binfile", "sqlstore")

#: Multi-process scaling: receiver-host process counts to sweep.  The
#: workload is processing-bound (``MP_PROCESSING_MS`` of simulated work
#: per message), so adding receiver processes overlaps that work — the
#: scaling the deployment exists to buy.
MP_COUNTS = (1, 2) if SHORT else (1, 2, 4, 8)
MP_MESSAGES = 60 if SHORT else 200
MP_PROCESSING_MS = 10.0
MP_TRANSPORT = "unix"

RECEIVERS = [f"R{i}" for i in range(FAN_OUT)]


def _merge_result(path, payload):
    """Write ``payload`` into ``path``, preserving sections other tests
    in this module own (the file is shared between the single-process
    and multi-process benchmarks, which may run separately)."""
    existing = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except ValueError:
            existing = {}
    existing.update(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2)
        handle.write("\n")


def build_testbed(metrics=None, adaptive_flush=False, jitter_ms=0):
    return Testbed(
        RECEIVERS,
        latency_ms=5,
        jitter_ms=jitter_ms,
        journaled=True,
        metrics=metrics,
        adaptive_flush=adaptive_flush,
    )


def attach_push_receivers(testbed):
    """Drain each inbox from an arrival-triggered event, 1 ms after the
    first delivery of a burst (coalesced: one pending drain per queue).

    Event-granularity drains are what make the decision-latency
    percentiles honest — each decision lands at send + channel latency
    (+ jitter) + drain + ack return, not at the next fixed-width
    ``run_until`` boundary.
    """
    for name in RECEIVERS:
        queue_name = testbed.queue_of(name)
        manager = testbed.manager_of(name)
        manager.ensure_queue(queue_name)
        pending = {"scheduled": False}

        def drain(name=name, queue_name=queue_name, pending=pending):
            pending["scheduled"] = False
            testbed.receiver(name).read_all(queue_name)

        def on_arrival(_message, pending=pending, drain=drain):
            if not pending["scheduled"]:
                pending["scheduled"] = True
                testbed.scheduler.call_later(1, drain)

        manager.queue(queue_name).subscribe(on_arrival)


def build_condition(testbed):
    """All FAN_OUT receivers must pick the message up within a minute."""
    return destination_set(
        *[
            destination(
                testbed.queue_of(name), manager=f"QM.{name}", recipient=name
            )
            for name in RECEIVERS
        ],
        msg_pick_up_time=60_000,
    )


def flushes_per_send(group_commit):
    """Journal flushes one conditional send costs on the sender."""
    testbed = build_testbed()
    testbed.service.group_commit = group_commit
    condition = build_condition(testbed)
    journal = testbed.journals[Testbed.SENDER]
    n = 20
    before = journal.flush_count
    for i in range(n):
        testbed.service.send_message({"n": i}, condition)
    return (journal.flush_count - before) / n


def run_lifecycle(n_messages):
    """Send/deliver/ack/decide ``n_messages``; returns (metrics, elapsed_s).

    Sends go out in bursts (``SEND_BURST`` apart by 1 virtual ms) so the
    adaptive flush window has concurrency to coalesce, and receivers
    drain via arrival-triggered events so each outcome is decided — and
    its latency stamped — at the event that caused it.
    """
    metrics = MetricsRegistry()
    testbed = Testbed(
        RECEIVERS,
        latency_ms=5,
        jitter_ms=3,
        journaled=True,
        journal_factory=journal_factory_for("memory", codec="binary"),
        metrics=metrics,
        adaptive_flush=True,
        pump_coalesce_ms=1,
    )
    condition = build_condition(testbed)
    attach_push_receivers(testbed)
    started = time.perf_counter()
    for i in range(n_messages):
        at_ms = (i // SEND_BURST) * BURST_GAP_MS + (i % SEND_BURST)
        testbed.at(
            at_ms,
            lambda i=i: testbed.service.send_message({"n": i}, condition),
        )
    # The pick-up deadline is 60 virtual seconds out and every drain is
    # event-driven, so running to quiescence decides everything without
    # racing past the deadline.
    testbed.run_all()
    elapsed = time.perf_counter() - started
    return metrics, elapsed


def test_throughput(report):
    batched = flushes_per_send(group_commit=True)
    unbatched = flushes_per_send(group_commit=False)
    reduction = unbatched / batched if batched else float("inf")

    # Best-of-N: every run must decide every message (correctness is
    # per-run), but the reported wall-clock numbers come from the fastest
    # run so machine noise does not mask a real regression — or fake one.
    metrics = elapsed = None
    for _ in range(LIFECYCLE_RUNS):
        run_metrics, run_elapsed = run_lifecycle(N_MESSAGES)
        assert run_metrics.counter("outcomes.success") == N_MESSAGES
        if elapsed is None or run_elapsed < elapsed:
            metrics, elapsed = run_metrics, run_elapsed
    decided = metrics.counter("outcomes.success")
    msgs_per_sec = decided / elapsed if elapsed else float("inf")
    latency = metrics.histogram_stats("decision_latency_ms")
    flushes = metrics.counter("journal.flushes")
    records = metrics.counter("journal.records")
    batch_sizes = metrics.histogram("journal.batch_records")

    mean_batch_records = (
        sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    )

    table = Table(
        "THROUGHPUT: hot-path journaling at fan-out "
        f"{FAN_OUT} ({N_MESSAGES} msgs, adaptive flush)",
        ["metric", "value"],
    )
    table.add_row(["flushes/send (group commit)", batched])
    table.add_row(["flushes/send (per-record)", unbatched])
    table.add_row(["flush reduction", reduction])
    table.add_row(["lifecycle msgs/sec (wall)", msgs_per_sec])
    table.add_row(["decision latency p50 (virtual ms)", latency.p50])
    table.add_row(["decision latency p99 (virtual ms)", latency.p99])
    table.add_row(["journal records/flush (lifecycle)", records / flushes])
    table.add_row(["mean batch records (lifecycle)", mean_batch_records])
    report.emit(table)

    payload = {
        "fan_out": FAN_OUT,
        "messages": N_MESSAGES,
        "short": SHORT,
        "adaptive_flush": True,
        "flushes_per_send_batched": batched,
        "flushes_per_send_unbatched": unbatched,
        "flush_reduction": reduction,
        "msgs_per_sec": msgs_per_sec,
        "decision_latency_ms": {
            "p50": latency.p50,
            "p95": latency.p95,
            "p99": latency.p99,
        },
        "journal": {
            "flushes": flushes,
            "records": records,
            "bytes": metrics.counter("journal.bytes"),
            "mean_batch_records": mean_batch_records,
        },
    }
    _merge_result(RESULT_PATH, payload)

    # The acceptance bar: group commit cuts flushes per conditional send
    # by at least 3x at fan-out 8 (measured: one commit group vs. one
    # flush per compensation batch + SLOG entry + parked transmission).
    assert reduction >= 3.0
    assert batched <= unbatched
    # Adaptive flush coalesces independent writes: the mean physical
    # flush carries several records.
    assert mean_batch_records >= 4.0
    # Regression guard for the percentile bug: decisions are stamped at
    # event granularity, so latency reflects the ~5 ms channel (plus
    # jitter, drain, and ack return), not a 1,000 ms polling stride.
    assert latency.p50 < 1_000
    assert latency.p50 != latency.p99 or latency.p50 < 100


def test_multiprocess_throughput(report):
    """MULTIPROCESS: conditional-send throughput vs. receiver processes.

    Spawns real OS processes (``python -m repro.net.host``) wired over
    the asyncio unix-socket transport and sweeps the receiver count.
    Each message costs ``MP_PROCESSING_MS`` of application work on its
    receiver, so the sweep measures what the deployment buys: that work
    overlapping across processes while the wire protocol preserves
    exactly-once transfer.  Results land in the ``multiprocess`` section
    of ``BENCH_throughput.json`` (the single-process sections are
    preserved), gated in CI by ``check_bench_regression.py`` on
    ``speedup_vs_1``.
    """
    counts = []
    for processes in MP_COUNTS:
        result = run_multiprocess_benchmark(
            receivers=processes,
            messages=MP_MESSAGES,
            processing_ms=MP_PROCESSING_MS,
            transport=MP_TRANSPORT,
            timeout_s=120.0,
        )
        # Correctness before speed: every conditional message must
        # decide successfully at every process count.
        assert result["decided_success"] == MP_MESSAGES, result
        assert result["pending"] == 0, result
        wire = result["wire"]
        counts.append(
            {
                "processes": processes,
                "sends_per_sec": result["sends_per_sec"],
                "elapsed_s": result["elapsed_s"],
                "decision_latency_ms": result["decision_latency_ms"],
                "wire": {
                    "retransmits": sum(
                        c.get("retransmits", 0) for c in wire.values()
                    ),
                    "reconnects": sum(
                        c.get("reconnects", 0) for c in wire.values()
                    ),
                },
            }
        )

    base_rate = counts[0]["sends_per_sec"]
    for entry in counts:
        entry["speedup_vs_1"] = (
            entry["sends_per_sec"] / base_rate if base_rate else 0.0
        )
    by_count = {entry["processes"]: entry for entry in counts}
    # The headline ratio is taken at 4 processes in the full sweep; the
    # SHORT (CI) sweep stops at 2 — few-core runners make a wider
    # short-run sweep startup-dominated rather than informative — so it
    # falls back to the top of the sweep there.
    speedup = by_count.get(4, counts[-1])["speedup_vs_1"]

    table = Table(
        f"MULTIPROCESS: {MP_MESSAGES} msgs over {MP_TRANSPORT} sockets, "
        f"{MP_PROCESSING_MS:g} ms work/msg",
        ["processes", "sends/sec", "p50 (ms)", "p99 (ms)", "speedup"],
    )
    for entry in counts:
        table.add_row(
            [
                entry["processes"],
                round(entry["sends_per_sec"], 1),
                round(entry["decision_latency_ms"]["p50"], 1),
                round(entry["decision_latency_ms"]["p99"], 1),
                round(entry["speedup_vs_1"], 2),
            ]
        )
    report.emit(table)

    _merge_result(
        RESULT_PATH,
        {
            "multiprocess": {
                "transport": MP_TRANSPORT,
                "messages": MP_MESSAGES,
                "processing_ms": MP_PROCESSING_MS,
                "short": SHORT,
                "counts": counts,
                "speedup_vs_1": speedup,
            }
        },
    )

    # Scaling bar, kept soft in-test (shared CI runners share cores with
    # the spawned hosts); the committed full-mode baseline shows >= 1.5x
    # at 4 processes and the CI gate tracks it via speedup_vs_1.
    assert speedup >= 1.2
    # No connection should ever drop on a quiet local socket.
    assert all(entry["wire"]["reconnects"] == 0 for entry in counts)


def test_persistence_backends(report, tmp_path):
    """PERSISTENCE: journal backends compared at fan-out ``FAN_OUT``.

    For each backend, runs ``N_PERSISTENCE`` group-committed conditional
    sends on a journaled testbed (flushes/sec, sends/sec, wall clock)
    and one more for the exact records and bytes a send adds to the
    sender's store (the SQL store counts row operations and no bytes),
    then reopens the sender's journal and times
    :meth:`QueueManager.recover` over it.  Backends must agree on the
    recovered queue depths — the store changes, the state must not.
    """
    results = []
    recovered_depths = {}
    for backend in PERSISTENCE_BACKENDS:
        directory = os.path.join(str(tmp_path), backend)
        os.makedirs(directory, exist_ok=True)
        factory = journal_factory_for(backend, directory, sync="batch")
        testbed = Testbed(
            RECEIVERS,
            latency_ms=5,
            journaled=True,
            journal_factory=factory,
        )
        condition = build_condition(testbed)
        journal = testbed.journals[Testbed.SENDER]
        flushes_before = journal.flush_count
        started = time.perf_counter()
        for i in range(N_PERSISTENCE):
            testbed.service.send_message({"n": i}, condition)
        send_elapsed = time.perf_counter() - started
        flushes = journal.flush_count - flushes_before
        # One more send, of a fixed body and outside the timing: what it
        # adds to the sender's store is an exact count — the same on every
        # machine and at every N — which CI gates at zero tolerance.
        records_before, bytes_before = journal.records_written, journal.bytes_written
        testbed.service.send_message({"n": 0}, condition)
        records_per_send = journal.records_written - records_before
        bytes_per_send = journal.bytes_written - bytes_before

        # Recovery: reopen the store exactly as a restart would (memory
        # journals survive only in-process, so recover from the live
        # object) and time the full replay into a fresh manager.
        if backend == "memory":
            reopened = journal
        else:
            journal.close()
            reopened = factory(Testbed.SENDER)
        started = time.perf_counter()
        recovered = QueueManager.recover(
            Testbed.SENDER, SimulatedClock(), reopened
        )
        recovery_elapsed = time.perf_counter() - started
        recovered_depths[backend] = {
            name: recovered.depth(name) for name in recovered.queue_names()
        }
        for store in testbed.journals.values():
            store.close()
        reopened.close()
        results.append(
            {
                "backend": backend,
                "sends": N_PERSISTENCE,
                "flushes": flushes,
                "flushes_per_sec": flushes / send_elapsed if send_elapsed
                else float("inf"),
                "sends_per_sec": N_PERSISTENCE / send_elapsed if send_elapsed
                else float("inf"),
                "send_wall_s": send_elapsed,
                "records_per_send": records_per_send,
                "bytes_per_send": bytes_per_send,
                "recovery_wall_s": recovery_elapsed,
                "recovered_queues": len(recovered_depths[backend]),
            }
        )

    table = Table(
        f"PERSISTENCE: journal backends at fan-out {FAN_OUT} "
        f"({N_PERSISTENCE} sends)",
        ["backend", "flushes/sec", "sends/sec", "records/send", "bytes/send",
         "recovery (s)"],
    )
    for row in results:
        table.add_row(
            [
                row["backend"],
                round(row["flushes_per_sec"], 1),
                round(row["sends_per_sec"], 1),
                row["records_per_send"],
                row["bytes_per_send"],
                round(row["recovery_wall_s"], 4),
            ]
        )
    report.emit(table)

    payload = {
        "fan_out": FAN_OUT,
        "sends": N_PERSISTENCE,
        "short": SHORT,
        "sync": "batch",
        "backends": results,
    }
    with open(PERSISTENCE_RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    # Same workload, same recovered state, whatever the store.
    baseline = recovered_depths[PERSISTENCE_BACKENDS[0]]
    for backend in PERSISTENCE_BACKENDS[1:]:
        assert recovered_depths[backend] == baseline, backend
    # Group commit holds on every backend: one flush per send.
    for row in results:
        assert row["flushes"] <= row["sends"] * 2, row


def test_send_benchmark(benchmark):
    """pytest-benchmark timing of a group-committed conditional send."""
    testbed = build_testbed()
    condition = build_condition(testbed)

    def send():
        testbed.service.send_message({"n": 1}, condition)

    benchmark.pedantic(send, rounds=20 if SHORT else 50, iterations=2,
                       warmup_rounds=2)
