"""Plumbing shared by the five workloads.

Everything here is benchmark-side: stores are opened through the
program's public URL registry, deployments are wired from public
constructors, and all arithmetic on samples (percentiles, medians) is
local so a change under ``src/`` cannot move how a number is computed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import shutil
import string
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.chaos.invariants import ChaosContext, EpisodeLedger, InvariantSuite
from repro.core.logqueues import (
    ACK_QUEUE,
    COMPENSATION_QUEUE,
    OUTCOME_QUEUE,
    SENDER_LOG_QUEUE,
)
from repro.core.outcome import OutcomeRecord
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import XMIT_PREFIX, QueueManager
from repro.mq.network import MessageNetwork
from repro.mq.persistence import journal_for

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
OUT_DIR = os.path.join(E2E_DIR, "out")
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Force-out policy per store scheme (see README, "Fixed conditions").
#: ``batch``: every commit group is encoded, written and flushed to the
#: OS; fsync runs only at checkpoints.  The fsyncs ``always`` would have
#: issued stay visible as ``mq.persistence.flushes_per_cmsg``.  The SQL
#: store runs ``none``: under ``batch`` (SQLite ``synchronous=NORMAL``)
#: it fsyncs at every WAL checkpoint, which at ~750 WAL pages per
#: fan-out-8 message is nearly every message, and the fsync of this
#: box's shared virtual disk is the noise ``batch`` was chosen to avoid.
SYNC_POLICY = {"binfile": "batch", "sqlstore": "none"}
#: Journals checkpoint themselves at this many live records, as a
#: long-running deployment must; without it a run's disk use and its
#: recovery time would grow with how fast the run happened to go.
COMPACTION_THRESHOLD = 50_000

DEFAULT_SEED = 20020702
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Timed recoveries per run; ``recover_s`` is their median.
RECOVER_REPS = 5

SENDER = "QM.SENDER"
_STORE_SUFFIX = {"binfile": ".journal", "sqlstore": ".db"}


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- arithmetic on samples ----------------------------------------------------


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a sorted, non-empty sample."""
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 50)


def ms_percentile(seconds: Sequence[float], pct: float) -> float:
    """A percentile of unsorted seconds, in milliseconds (0 when empty)."""
    return percentile(sorted(seconds), pct) * 1e3 if seconds else 0.0


class Samples:
    """Per-operation timings of one measured phase, summarised by window.

    This box's speed wanders by +-10 % from second to second (shared
    host), so a phase is cut into windows — about a second each, but
    never fewer than WINDOW_MIN_SAMPLES operations, so a window's p95
    means something — each window gets its own rate and percentiles, and
    the phase reports the **median window**.  A stall that hits one
    window moves one vote, not the result.
    """

    WINDOW_MIN_SAMPLES = 100

    def __init__(self) -> None:
        self.done_at: List[float] = []
        self.send_s: List[float] = []
        self.decision_s: List[float] = []

    def add(self, done_at: float, send_s: float, decision_s: Optional[float]) -> None:
        self.done_at.append(done_at)
        self.send_s.append(send_s)
        self.decision_s.append(decision_s if decision_s is not None else math.nan)

    def summary(self, started: float, ended: float) -> Dict[str, float]:
        """Median-window rate and percentiles; samples arrive in time order."""
        windows = max(
            1, min(int(ended - started), len(self.done_at) // self.WINDOW_MIN_SAMPLES)
        )
        width = (ended - started) / windows
        buckets: List[List[int]] = [[] for _ in range(windows)]
        for index, done_at in enumerate(self.done_at):
            buckets[min(windows - 1, max(0, int((done_at - started) / width)))].append(
                index
            )
        buckets = [bucket for bucket in buckets if bucket]
        # A window's rate is its completions over the time from the last
        # completion before it to its own last one — not over the nominal
        # width, which would quantise slow workloads to whole operations.
        rates: List[float] = []
        previous = started
        for bucket in buckets:
            last = self.done_at[bucket[-1]]
            rates.append(ratio(len(bucket), last - previous))
            previous = last

        def of_windows(values: List[float], pct: float) -> float:
            per_window = [
                ms_percentile(kept, pct)
                for bucket in buckets
                if (kept := [values[i] for i in bucket if values[i] == values[i]])
            ]
            return median(per_window) if per_window else 0.0

        middle = (started + ended) / 2.0
        first = sum(1 for done_at in self.done_at if done_at < middle)
        return {
            "per_s": median(rates) if rates else 0.0,
            "send_ms_p50": of_windows(self.send_s, 50),
            "send_ms_p95": of_windows(self.send_s, 95),
            "decision_ms_p50": of_windows(self.decision_s, 50),
            "decision_ms_p95": of_windows(self.decision_s, 95),
            "decision_ms_p99": of_windows(self.decision_s, 99),
            "n": len(self.done_at),
            "windows": windows,
            "drift_share": ratio(len(self.done_at) - first, first),
        }


#: The end-to-end latency metrics every workload takes from its
#: ``Samples.summary``; the p95s are per-layer (README, "End-to-end metrics").
LATENCY_METRICS = ("send_ms_p50", "decision_ms_p50")
TAIL_METRICS = ("send_ms_p95", "decision_ms_p95")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pin_to_one_cpu() -> None:
    """Keep this single-threaded process on one core.

    Measured here: migrating between the box's two cores costs up to
    10 % of throughput run to run; pinned runs agree within 3 %.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssProbe:
    """Peak RSS once a fixed amount of work has been done.

    The measured phase runs for a fixed time, so a faster commit does
    more work in it — and this system's per-message state (receiver log,
    evaluation records, delivery ledger) is never pruned.  Sampling at a
    fixed operation count keeps ``peak_rss_mb`` comparable across commits
    of different speed; a run that never gets that far reports its end.
    """

    def __init__(self, after_ops: int) -> None:
        self.after_ops = after_ops
        self.mb = 0.0

    def note(self, ops_done: int) -> None:
        if not self.mb and ops_done >= self.after_ops:
            self.mb = peak_rss_mb()

    def value(self) -> float:
        return self.mb or peak_rss_mb()


def process_write_bytes() -> int:
    """Bytes this process has handed to write() so far (procfs ``wchar``).

    The only byte count available for ``sqlstore:`` stores, which keep no
    ``bytes_written`` of their own.
    """
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


# -- inputs -------------------------------------------------------------------


def text_payloads(rng: random.Random, size: int, count: int = 32) -> List[str]:
    """``count`` seeded ASCII payloads of ``size`` characters each."""
    alphabet = string.ascii_letters + string.digits
    return ["".join(rng.choices(alphabet, k=size)) for _ in range(count)]


# -- what every workload shares ---------------------------------------------


class Failures:
    """What ``fail_share`` counts: every miss, with the first few reasons."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: List[str] = []

    def add(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.count += count
        if len(self.reasons) < 20:
            self.reasons.append(reason if count == 1 else f"{reason} (x{count})")

    def check(self, condition: bool, reason: str) -> bool:
        if not condition:
            self.add(reason)
        return condition


class Workload:
    """State and result assembly the five workloads share.

    A subclass provides ``setup(directory)``, ``measure(seconds)``,
    ``recovery(reps)``, ``verify()``, ``teardown()`` and
    ``profile_slice()``.  ``measure`` leaves ``self.counted`` (public
    counter deltas over the phase) and ``self.measured``: the phase's
    ``Samples.summary`` plus ``elapsed_s``, ``decided``, ``failed``
    (decided failure, as predicted), ``store_bytes`` and ``user_bytes``.
    ``recovery`` leaves ``self.recovered`` (a ``restart_summary``).
    """

    def __init__(self, seed: int, scale: float, rss_after_ops: int) -> None:
        self.rng = random.Random(seed)
        self.scale = scale
        self.rss = RssProbe(round(rss_after_ops * scale))
        self.failures = Failures()
        #: cmid -> predicted success, for every conditional message sent
        self.expected: Dict[str, bool] = {}
        self.outcomes: List[OutcomeRecord] = []
        self.attempted = 0
        self.samples = Samples()
        self.measured: Dict[str, float] = {}
        self.counted: Dict[str, float] = {}
        self.recovered: Dict[str, float] = {}

    def sized(self, count: int, floor: int) -> int:
        """A fixed count of the full-size run, shrunk by ``--scale``."""
        return max(floor, round(count * self.scale))

    def latencies(self) -> Dict[str, float]:
        """The summary the end-to-end latencies come from."""
        return self.measured

    def end_to_end(self) -> Dict[str, Any]:
        measured, latencies = self.measured, self.latencies()
        return {
            "decided_per_s": measured["per_s"],
            **{key: latencies[key] for key in LATENCY_METRICS},
            "journal_bytes_per_cmsg": ratio(
                measured["store_bytes"], measured["decided"]
            ),
            "_samples": {"n": latencies["n"], "windows": latencies["windows"]},
            "_tails": {key: latencies[key] for key in TAIL_METRICS},
            "_journal_bytes_per_user_byte": ratio(
                measured["store_bytes"], measured["user_bytes"]
            ),
        }

    def traced_facts(self, _tracer: Any) -> Dict[str, float]:
        """What the ledger needs to know about a traced measured phase."""
        measured = self.measured
        return {
            "cmsgs": measured["decided"],
            "failed": measured["failed"],
            "reads": self.counted["receiver.reads"],
            # what the layers' self times should add up to
            "busy_s": measured["elapsed_s"],
            "decided_per_s": measured["per_s"],
        }

    def layer_facts(self) -> Dict[str, float]:
        """Counter deltas of the untraced phase, plus what only it knows."""
        latencies = self.latencies()
        return {
            **self.counted,
            "cmsgs": self.measured["decided"],
            "drift_share": self.measured["drift_share"],
            **{key: latencies[key] for key in TAIL_METRICS},
        }


# -- temp space ---------------------------------------------------------------


@contextmanager
def scratch_root() -> Iterator[str]:
    """One temp dir under ``out/`` for every store and socket of a run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def socket_path(directory: str, name: str) -> str:
    """A unix-socket path short enough for ``sun_path`` (108 bytes).

    The checkout may sit arbitrarily deep, so the path is made relative
    to the working directory when that is shorter.
    """
    path = os.path.join(directory, name)
    relative = os.path.relpath(path)
    best = relative if len(relative) < len(path) else path
    if len(best.encode()) > 100:
        raise RuntimeError(
            f"unix socket path too long ({len(best)} bytes): run from the"
            f" repository root so {best!r} can be addressed relatively"
        )
    return best


# -- stores and deployments ---------------------------------------------------


def open_manager(
    name: str,
    clock: Any,
    scheme: str,
    directory: str,
    recover: bool = False,
    open_times: Optional[List[float]] = None,
) -> QueueManager:
    """Open (or, with ``recover``, restart) one manager on its own store.

    No ``metrics=`` registry is passed: ``SqlQueueStore`` calls a method
    ``MetricsRegistry`` does not have (README, "Defects met"), and the
    registry's histograms would grow with the run.  ``open_times``
    collects how long opening the store itself took.
    """
    filename = name.replace(".", "_") + _STORE_SUFFIX[scheme]
    started = time.perf_counter()
    store = journal_for(
        f"{scheme}:{os.path.join(directory, filename)}",
        sync=SYNC_POLICY[scheme],
        compaction_threshold=COMPACTION_THRESHOLD,
    )
    if open_times is not None:
        open_times.append(time.perf_counter() - started)
    if recover:
        return QueueManager.recover(name, clock, store)
    return QueueManager(name, clock, journal=store)


def store_of(manager: QueueManager) -> Any:
    """The journal or SQL store behind a manager (both count flushes)."""
    return manager.journal if manager.journal is not None else manager.store


def close_manager(manager: QueueManager) -> None:
    store_of(manager).close()


def drain_outcomes(service: ConditionalMessagingService) -> List[OutcomeRecord]:
    """What a sending application does: read DS.OUTCOME.Q, then forget."""
    records = service.poll_outcome_notifications()
    for record in records:
        service.forget(record.cmid)
    return records


def queue_depths(manager: QueueManager) -> Dict[str, int]:
    """Depth of every queue except transmission spools.

    Spool copies are resolved at queue level on transfer (the journal
    keeps them as in-doubt records), so a restart legitimately resurrects
    delivered ones until the channels re-drive; every other queue must
    come back exactly as it was.
    """
    return {
        name: manager.depth(name)
        for name in manager.queue_names()
        if not name.startswith(XMIT_PREFIX)
    }


class Deployment:
    """Sender + named receivers in one process, each on its own store.

    The shape ``repro.workloads.scenarios.Testbed`` builds, minus its
    fixed virtual clock and memory journals, plus restart: ``recover``
    reopens the same store directory through ``QueueManager.recover`` and
    ``recover_from_log``.
    """

    def __init__(
        self,
        directory: str,
        scheme: str,
        receiver_names: Sequence[str],
        clock: Any,
        scheduler: Any = None,
        latency_ms: int = 0,
        recover: bool = False,
    ) -> None:
        self.directory = directory
        self.scheme = scheme
        self.clock = clock
        self.scheduler = scheduler
        self.network = MessageNetwork(scheduler=scheduler)
        self.store_open_s: List[float] = []
        self.sender = self._open(SENDER, recover)
        self.managers: Dict[str, QueueManager] = {SENDER: self.sender}
        self.receivers: Dict[str, ConditionalMessagingReceiver] = {}
        for name in receiver_names:
            manager = self._open(f"QM.{name}", recover)
            self.managers[manager.name] = manager
            self.receivers[name] = ConditionalMessagingReceiver(
                manager, recipient_id=name
            )
        self.service = ConditionalMessagingService(self.sender, scheduler=scheduler)
        if recover:
            self.service.recover_from_log()
        self.ready_at = time.perf_counter()
        # Channels last: on a restart connect() re-drives the spools the
        # journals resurrected, which is channel work, not recovery.
        for name in receiver_names:
            self.network.connect(SENDER, f"QM.{name}", latency_ms=latency_ms)
        self.landed: List[Any] = []
        self.sender.queue(OUTCOME_QUEUE).subscribe(self._outcome_landed)

    def _open(self, name: str, recover: bool) -> QueueManager:
        manager = open_manager(
            name, self.clock, self.scheme, self.directory, recover, self.store_open_s
        )
        self.network.add_manager(manager)
        return manager

    def _outcome_landed(self, message: Any) -> None:
        self.landed.append((message.correlation_id, time.perf_counter()))

    def queue_of(self, name: str) -> str:
        """Inbox of a named receiver (``Testbed`` naming)."""
        return f"Q.{name}"

    def drain_outcomes(self) -> List[OutcomeRecord]:
        return drain_outcomes(self.service)

    def depths(self) -> Dict[str, Dict[str, int]]:
        return {name: queue_depths(m) for name, m in self.managers.items()}

    def log_records(self) -> int:
        """Records a restart would have to replay (0 for SQL stores)."""
        return sum(
            m.journal.size() for m in self.managers.values() if m.journal is not None
        )

    def close(self) -> None:
        for manager in self.managers.values():
            close_manager(manager)


def checkpoint_all(managers: Any) -> None:
    """Checkpoint before the recovery phase's in-flight sends.

    What restarts is then a snapshot plus the raw log of exactly those
    sends.  Without it a restart re-delivers every message consumed since
    the sender's last checkpoint: spool copies are resolved at queue
    level, never in the journal, and the record that they were delivered
    does not survive the restart (README, "Defects met").
    """
    for manager in managers:
        manager.checkpoint()


def timed_restarts(directory: str, reps: int, restart: Any) -> Any:
    """Restart ``reps`` times from identical copies of a closed store dir.

    ``QueueManager.recover`` checkpoints the journal it replays, so a
    second restart of the same files would read a compacted log; each
    repetition therefore gets its own pristine copy.  ``restart(dir)``
    returns something with ``ready_at`` and ``close()``.  Returns
    ``(seconds per restart, the last restarted deployment)`` — earlier
    ones are closed.
    """
    pristine = directory + ".pristine"
    os.rename(directory, pristine)
    times: List[float] = []
    restarted = None
    for rep in range(reps):
        if restarted is not None:
            restarted.close()
        work = f"{directory}.r{rep}"
        shutil.copytree(pristine, work)
        # Start each restart from a collected heap, so that a full
        # collection of what earlier phases left does not land inside one.
        gc.collect()
        started = time.perf_counter()
        restarted = restart(work)
        times.append(restarted.ready_at - started)
    return times, restarted


def restart_summary(times: Sequence[float], in_flight: int, records: int) -> Dict[str, float]:
    """What a recovery phase reports: the median restart and its inputs."""
    middle = median(times)
    return {
        "recover_s": middle,
        "in_flight": in_flight,
        "log_records": records,
        "records_per_s": ratio(records, middle),
    }


# -- output checks ------------------------------------------------------------


def check_outcomes(
    failures: Failures,
    expected: Dict[str, bool],
    outcomes: Sequence[OutcomeRecord],
) -> None:
    """Every cmid has exactly one outcome, of the polarity predicted."""
    seen: Dict[str, int] = {}
    for record in outcomes:
        seen[record.cmid] = seen.get(record.cmid, 0) + 1
        if record.cmid not in expected:
            failures.add(f"outcome for unknown cmid {record.cmid}")
        elif record.succeeded != expected[record.cmid]:
            failures.add(
                f"{record.cmid}: outcome {record.outcome.value},"
                f" predicted {'success' if expected[record.cmid] else 'failure'}:"
                f" {record.reasons[:2]}"
            )
    for cmid in expected:
        count = seen.get(cmid, 0)
        if count != 1:
            failures.add(f"{cmid}: {count} outcomes, want exactly 1")


def check_system_queues_empty(failures: Failures, sender: QueueManager) -> None:
    for queue_name in (SENDER_LOG_QUEUE, ACK_QUEUE, COMPENSATION_QUEUE):
        depth = sender.depth(queue_name)
        failures.check(depth == 0, f"{queue_name} holds {depth} at the end")


def check_invariants(
    failures: Failures,
    deployment: Deployment,
    ledger: EpisodeLedger,
    outcomes: Sequence[OutcomeRecord],
) -> None:
    """Run the paper-invariant suite over the finished deployment.

    The suite reads outcomes off DS.OUTCOME.Q, which the application has
    drained, so the drained records are put back first (untimed).
    """
    sender = deployment.sender
    with sender.group_commit():
        for record in outcomes:
            sender.put(OUTCOME_QUEUE, record.to_message())
    context = ChaosContext(
        sender_name=sender.name,
        managers=deployment.managers,
        journals={},
        ledger=ledger,
    )
    suite = InvariantSuite()
    violations = (
        suite.check_outcome_uniqueness(context)
        + suite.check_compensation_consistency(context)
        + suite.check_ack_correlation(context)
    )
    for violation in violations:
        failures.add(f"invariant {violation}")
