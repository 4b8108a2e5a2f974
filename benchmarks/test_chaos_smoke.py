"""CHAOS SMOKE — fixed-seed fault-injection corpus for CI.

Runs a deterministic corpus of chaos episodes — crash/recover at journal
flush boundaries, partitions, torn journal tails, duplicated and delayed
transfers — and asserts the paper-invariant suite finds zero violations.
Memory-journal episodes exercise the crash model cheaply; two families
of file-journal episodes (seeds from 100 and from 300) add torn-tail
recovery on real files (tears cut a frame mid-payload); sqlstore
episodes put the SQL queue store's crash/recover path (rollback of a
group that died before COMMIT, lock release on restart) under the same
faults;
tcp-transport episodes drive real wire-protocol engine pairs through
seeded connection drops (landing mid-frame), reconnect resync,
retransmission and deferred confirmations.

Results land in ``CHAOS_smoke.json`` at the repo root (uploaded by the
CI chaos-smoke job).  Any failing
episode is shrunk to a minimal reproducer written as
``CHAOS_repro_seed<N>.json`` at the repo root, which the CI job uploads
as an artifact; replay it locally with
``python -m repro.chaos --replay CHAOS_repro_seed<N>.json``.

Set ``BENCH_SHORT=1`` for a reduced corpus.
"""

import json
import logging
import os

from repro.harness.reporting import Table
from repro.harness.runner import run_chaos_corpus

SHORT = os.environ.get("BENCH_SHORT", "") not in ("", "0")
MEMORY_EPISODES = 15 if SHORT else 40
FILE_EPISODES = 5 if SHORT else 15
FILE_BASE_SEED = 100
SQLSTORE_EPISODES = 5 if SHORT else 15
SQLSTORE_BASE_SEED = 200
BINFILE_EPISODES = 5 if SHORT else 15
BINFILE_BASE_SEED = 300
WIRE_EPISODES = 10 if SHORT else 25
WIRE_BASE_SEED = 400

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)
RESULT_PATH = os.path.join(REPO_ROOT, "CHAOS_smoke.json")


def test_chaos_smoke_corpus(report, tmp_path):
    # Torn-tail healing logs a warning per healed file; that is the
    # mechanism under test, not noise worth failing CI log checks over.
    logging.getLogger("repro.mq.persistence").setLevel(logging.ERROR)
    corpora = [
        run_chaos_corpus(
            episodes=MEMORY_EPISODES,
            base_seed=0,
            journal="memory",
            repro_dir=REPO_ROOT,
        ),
        run_chaos_corpus(
            episodes=FILE_EPISODES,
            base_seed=FILE_BASE_SEED,
            journal="binfile",
            journal_dir=str(tmp_path),
            repro_dir=REPO_ROOT,
        ),
        run_chaos_corpus(
            episodes=SQLSTORE_EPISODES,
            base_seed=SQLSTORE_BASE_SEED,
            journal="sqlstore",
            journal_dir=str(tmp_path),
            repro_dir=REPO_ROOT,
        ),
        run_chaos_corpus(
            episodes=BINFILE_EPISODES,
            base_seed=BINFILE_BASE_SEED,
            journal="binfile",
            journal_dir=str(tmp_path),
            repro_dir=REPO_ROOT,
        ),
        run_chaos_corpus(
            episodes=WIRE_EPISODES,
            base_seed=WIRE_BASE_SEED,
            transport="tcp",
            repro_dir=REPO_ROOT,
        ),
    ]

    table = Table(
        "chaos smoke corpus",
        ["family", "episodes", "sends", "crashes", "faults", "failures"],
    )
    for corpus in corpora:
        table.add_row(
            [
                corpus.get("journal") or f"wire/{corpus['transport']}",
                corpus["episodes"],
                corpus["sends"],
                corpus.get("crashes", 0),
                corpus["faults_fired"],
                corpus["failures"],
            ]
        )
    report.emit(table)

    wire = corpora[-1]
    summary = {
        "episodes": sum(c["episodes"] for c in corpora),
        "sends": sum(c["sends"] for c in corpora),
        "crashes": sum(c.get("crashes", 0) for c in corpora),
        "faults_fired": sum(c["faults_fired"] for c in corpora),
        "failures": sum(c["failures"] for c in corpora),
        "violations": [v for c in corpora for v in c["violations"]],
        "repro_paths": [p for c in corpora for p in c["repro_paths"]],
        "corpora": corpora,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")

    assert summary["episodes"] >= (40 if SHORT else 110)
    # The corpus must actually exercise the fault space, not dodge it.
    assert summary["crashes"] >= (5 if SHORT else 20)
    assert summary["faults_fired"] >= (10 if SHORT else 50)
    # The wire family must really drop established connections and
    # deliver every message despite that.
    assert wire["reconnects"] >= (5 if SHORT else 15)
    assert wire["delivered"] == wire["sends"]
    assert summary["failures"] == 0, summary["violations"]
