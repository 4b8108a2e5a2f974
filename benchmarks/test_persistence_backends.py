"""PERSISTENCE — what one conditional send costs each durable store.

For every scheme of the store table (memory and binfile — the log in
memory and on disk — and sqlstore, the SQL-backed live queue store)
this runs the same group-committed conditional sends at fan-out
``FAN_OUT`` and reports **counts**: flushes, and the exact records and
bytes one send of a fixed body adds to the sender's store (the SQL store
counts row operations and no bytes).  Counts are the same on every
machine and at every N, so ``check_bench_regression.py`` gates them at
zero tolerance against the committed ``BENCH_persistence.json``; wall
time per store is the end-to-end benchmark's job (``BENCHMARK.json``,
``fanout8_binfile`` / ``fanout8_sqlstore``).  The sender's store is then
reopened as a restart would and recovered: every store must agree on the
recovered queue depths — the store changes, the state must not.  Set
``BENCH_SHORT=1`` for fewer sends.
"""

import json
import os

from repro.core.builder import destination, destination_set
from repro.harness.reporting import Table
from repro.mq.manager import QueueManager
from repro.mq.persistence import journal_factory_for
from repro.sim.clock import SimulatedClock
from repro.workloads.scenarios import Testbed

FAN_OUT = 8
SHORT = os.environ.get("BENCH_SHORT", "") not in ("", "0")
N_SENDS = 10 if SHORT else 50
RESULT_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_persistence.json")
)
BACKENDS = ("memory", "binfile", "sqlstore")
RECEIVERS = [f"R{i}" for i in range(FAN_OUT)]


def test_persistence_backends(report, tmp_path):
    results = []
    recovered_depths = {}
    for backend in BACKENDS:
        directory = os.path.join(str(tmp_path), backend)
        os.makedirs(directory, exist_ok=True)
        factory = journal_factory_for(backend, directory, sync="batch")
        testbed = Testbed(
            RECEIVERS, latency_ms=5, journaled=True, journal_factory=factory
        )
        # All FAN_OUT receivers must pick the message up within a minute.
        condition = destination_set(
            *[
                destination(testbed.queue_of(name), manager=f"QM.{name}", recipient=name)
                for name in RECEIVERS
            ],
            msg_pick_up_time=60_000,
        )
        journal = testbed.journals[Testbed.SENDER]
        flushes_before = journal.flush_count
        for i in range(N_SENDS):
            testbed.service.send_message({"n": i}, condition)
        flushes = journal.flush_count - flushes_before
        # One more send, of a fixed body: what it adds to the sender's
        # store is exact — the same on every machine and at every N.
        records_before, bytes_before = journal.records_written, journal.bytes_written
        testbed.service.send_message({"n": 0}, condition)
        records_per_send = journal.records_written - records_before
        bytes_per_send = journal.bytes_written - bytes_before

        # Reopen the store exactly as a restart would (memory journals
        # survive only in-process, so recover from the live object).
        if backend == "memory":
            reopened = journal
        else:
            journal.close()
            reopened = factory(Testbed.SENDER)
        recovered = QueueManager.recover(Testbed.SENDER, SimulatedClock(), reopened)
        recovered_depths[backend] = {
            name: recovered.depth(name) for name in recovered.queue_names()
        }
        for store in testbed.journals.values():
            store.close()
        reopened.close()
        results.append(
            {
                "backend": backend,
                "sends": N_SENDS,
                "flushes": flushes,
                "records_per_send": records_per_send,
                "bytes_per_send": bytes_per_send,
                "recovered_queues": len(recovered_depths[backend]),
            }
        )

    table = Table(
        f"PERSISTENCE: durable stores at fan-out {FAN_OUT} ({N_SENDS} sends)",
        ["backend", "flushes", "records/send", "bytes/send", "recovered queues"],
    )
    for row in results:
        table.add_row(
            [row["backend"], row["flushes"], row["records_per_send"],
             row["bytes_per_send"], row["recovered_queues"]]
        )
    report.emit(table)

    payload = {
        "fan_out": FAN_OUT,
        "sends": N_SENDS,
        "short": SHORT,
        "sync": "batch",
        "backends": results,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    # Same workload, same recovered state, whatever the store.
    baseline = recovered_depths[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert recovered_depths[backend] == baseline, backend
    # Group commit holds on every backend: at most two flushes per send.
    for row in results:
        assert row["flushes"] <= row["sends"] * 2, row
