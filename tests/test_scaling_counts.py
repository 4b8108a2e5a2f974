"""Counts that cannot creep back: the per-message path neither browses a
queue nor does Python work per stored message, however deep the backlog
and however long the history, a restart decodes what is live, not what
was ever logged, and an acknowledgment costs the same satisfaction work
at any fan-out.

Timing would be noise in tier-1; these are exact counts.  ``browses`` is
the queue's own counter; *visits* are calls of ``Message.is_expired`` /
``Message.get_property``, the two things any walk over stored messages
ends up calling (visibility check, control-property decode).
"""

import contextlib
import cProfile
import os
import pstats
import re

import pytest

import repro
import repro.core.satisfaction as satisfaction
from repro.core.acks import Acknowledgment, AckKind, ack_to_message
from repro.core.builder import destination, destination_set
from repro.core.evaluation import EvaluationManager
from repro.core.logqueues import (
    COMPENSATION_QUEUE,
    RECEIVER_LOG_QUEUE,
    SENDER_LOG_QUEUE,
)
from repro.core.outcome import MessageOutcome
from repro.mq import persistence
from repro.mq.manager import XMIT_PREFIX, QueueManager
from repro.mq.message import Message
from repro.mq.persistence import journal_factory_for
from repro.mq.queue import MessageQueue
from repro.sim.clock import SimulatedClock
from repro.workloads.scenarios import Testbed

FANOUT8 = [f"R{i}" for i in range(1, 9)]
PICK_UP_MS = 1_000


def condition_for(bed, names, pick_up_ms=PICK_UP_MS):
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


def send(bed, condition):
    cmid = bed.service.send_message({"n": 1}, condition, compensation={"undo": 1})
    bed.scheduler.run_for(2)  # every copy reaches its inbox
    return cmid


def read(bed, name):
    return bed.receiver(name).read_message(bed.queue_of(name))


@pytest.fixture
def visits(monkeypatch):
    """Counts every ``is_expired`` / ``get_property`` call on any Message."""
    counter = {"n": 0}
    for method in ("is_expired", "get_property"):
        original = getattr(Message, method)

        def counting(self, *args, _original=original, **kwargs):
            counter["n"] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Message, method, counting)
    return counter


def test_no_queue_on_the_message_path_is_browsed():
    bed = Testbed(FANOUT8, latency_ms=1)
    condition = condition_for(bed, FANOUT8)
    for round_no in range(6):
        cmid = send(bed, condition)
        late = ["R8"] if round_no == 2 else []
        for name in FANOUT8:
            if name not in late:
                assert read(bed, name).cmid == cmid
        bed.run_all()  # acks land, or the timeout fires and compensations go out
        if late:
            assert bed.service.outcome(cmid).outcome is MessageOutcome.FAILURE
            for name in FANOUT8[:-1]:
                assert read(bed, name).is_compensation
            assert read(bed, "R8") is None  # original met its compensation
        else:
            assert bed.service.outcome(cmid).outcome is MessageOutcome.SUCCESS
    delivered = sum(
        node.receiver.stats.compensations_delivered for node in bed.receivers.values()
    )
    assert delivered == 7
    assert bed.receiver("R8").stats.cancellations == 1

    managers = [bed.sender_manager] + [node.manager for node in bed.receivers.values()]
    checked = 0
    for manager in managers:
        for name in manager.queue_names():
            if (
                name in (RECEIVER_LOG_QUEUE, COMPENSATION_QUEUE, SENDER_LOG_QUEUE)
                or name.startswith("Q.")
                or name.startswith(XMIT_PREFIX)
            ):
                assert manager.queue(name).stats.browses == 0, (manager.name, name)
                checked += 1
    assert checked >= 3 + 8 + 8 + 8  # system queues, inboxes, spools, receiver logs


def visits_per_message_at(bed, visits, names, outstanding, measured=10):
    """Steady state at ``outstanding`` unread conditional messages: send
    one, every receiver reads its oldest, the oldest decides."""
    condition = condition_for(bed, names, pick_up_ms=10**7)
    for _ in range(outstanding):
        send(bed, condition)
    before = visits["n"]
    for _ in range(measured):
        send(bed, condition)
        for name in names:
            assert read(bed, name) is not None
        bed.scheduler.run_for(2)
    assert bed.service.pending_count() == outstanding
    return (visits["n"] - before) / measured


@pytest.mark.parametrize("backend", ["memory", "sqlstore"])
def test_visits_per_message_do_not_grow_with_the_backlog(backend, visits, tmp_path):
    names = FANOUT8[:2] if backend == "sqlstore" else FANOUT8  # sqlstore: keep tier-1 quick
    per_message = {}
    for outstanding in (1, 500):
        bed = Testbed(
            names,
            latency_ms=1,
            journaled=True,
            journal_factory=journal_factory_for(
                backend, str(tmp_path / str(outstanding)), sync="none"
            ),
        )
        per_message[outstanding] = visits_per_message_at(bed, visits, names, outstanding)
        for journal in bed.journals.values():
            journal.close()
    assert per_message[500] == pytest.approx(per_message[1], abs=1.0), per_message


def test_visits_per_message_do_not_grow_with_history(visits):
    """A ``timeout``-style failure loop: R1 reads, R2 stays away, the
    deadline passes, R1 is handed the compensation (a receiver-log
    lookup), R2's original cancels against its compensation.  The
    3,000th round must cost what the 1st did."""
    names = ["R1", "R2"]
    bed = Testbed(names, latency_ms=1)
    condition = condition_for(bed, names)

    def failure_round():
        before = visits["n"]
        cmid = send(bed, condition)
        assert read(bed, "R1").cmid == cmid
        bed.run_all()
        assert read(bed, "R1").is_compensation
        assert read(bed, "R2") is None
        bed.service.poll_outcome_notifications()
        return visits["n"] - before

    first = failure_round()
    for _ in range(2_998):
        failure_round()
    assert failure_round() == first
    assert bed.manager_of("R1").depth(RECEIVER_LOG_QUEUE) == 3_000
    assert bed.receiver("R2").stats.cancellations == 3_000


def journal_totals(bed):
    journals = bed.journals.values()
    return (
        sum(j.records_written for j in journals),
        sum(j.flush_count for j in journals),
        sum(j.bytes_written for j in journals),
    )


def test_a_fanout_send_writes_each_payload_once_on_a_binary_journal():
    """The send group — 8 spooled copies, 8 staged compensations and the
    sender-log entry, all carrying the same two application objects — is
    one frame holding each object once; a whole conditional message
    flushes once per durable event (1 send, 8 arrivals, 8 reads, 8 ack
    arrivals with their evaluation, 1 outcome get), its spool resolutions
    add one ``resolve`` record to groups written anyway (the sender's 8 to
    its first ack arrival, each receiver's to its next group), and its
    bytes stay under a pinned bound."""
    bed = Testbed(
        FANOUT8,
        latency_ms=1,
        journaled=True,
        journal_factory=journal_factory_for("memory"),
    )
    condition = condition_for(bed, FANOUT8)

    def conditional_message(marker):
        cmid = bed.service.send_message(
            {"text": f"BODY-{marker}" + "b" * 1000},
            condition,
            compensation={"undo": f"COMP-{marker}" + "c" * 1000},
        )
        bed.scheduler.run_for(2)
        for name in FANOUT8:
            assert read(bed, name).cmid == cmid
        bed.run_all()
        assert bed.service.outcome(cmid).outcome is MessageOutcome.SUCCESS
        bed.service.poll_outcome_notifications()  # the sender drains DS.OUTCOME.Q

    conditional_message("WARMUP")  # queue definitions and the like
    sender_log = bed.journals[bed.SENDER]
    frames_before = len(sender_log._frames)
    records, flushes, nbytes = journal_totals(bed)
    conditional_message("MARKER")
    send_group = sender_log._frames[frames_before]
    assert len(persistence._scan_journal(send_group, "<send group>")[0]) == 17
    assert send_group.count(b"BODY-MARKER") == 1  # 8 before the shared memo
    assert send_group.count(b"COMP-MARKER") == 1  # 8 before the shared memo
    after = journal_totals(bed)
    assert (after[0] - records, after[1] - flushes) == (76 + 9, 26)
    # 2 KB of user payload; 22.7 KB measured (54.5 KB before): the send
    # group plus one copy in each of the eight receivers' own journals.
    assert after[2] - nbytes <= 25_500


@pytest.mark.parametrize("scheme", sorted(persistence.JOURNAL_SCHEMES))
def test_a_commit_group_writes_nothing_of_its_own(scheme, tmp_path):
    """Every read and every arrival with a listener opens a group, so a
    group must cost no write: an empty group flushes nothing, and groups
    nested inside one another flush once, at the outermost exit."""
    store = journal_factory_for(scheme, str(tmp_path), sync="none")("QM.S")
    manager = QueueManager("QM.S", SimulatedClock(), journal=store)
    manager.define_queue("A.Q")

    def written():
        return store.flush_count, store.records_written

    before = written()
    for _ in range(3):
        with manager.group_commit():
            with manager.group_commit():
                pass
    assert written() == before
    with manager.group_commit():
        manager.put("A.Q", Message(body=1))
        with manager.group_commit():
            manager.put("A.Q", Message(body=2))
            with manager.group_commit():
                pass
        assert written() == before  # nothing leaves before the outermost exit
    assert written() == (before[0] + 1, before[1] + 2)

    def empty_group():
        with manager.group_commit():
            pass

    # One context object per layer and a depth counter: ten calls through
    # the manager, the journal or store and auto-compaction.
    assert python_calls(empty_group) <= 10
    store.close()


class WalkCountingList(list):
    """A queue's entry list that counts every entry a walk over it yields."""

    walked = 0

    def __iter__(self):
        for entry in super().__iter__():
            self.walked += 1
            yield entry


def test_a_get_does_not_walk_an_inbox_whose_messages_all_expire():
    """A FIFO inbox where every message carries an expiry: each get takes
    the message holding the earliest one, and must not answer that by
    recomputing the minimum over everything left."""
    walked = {}
    for depth in (20, 2_000):
        queue = MessageQueue("IN.Q", SimulatedClock())
        for i in range(depth + 10):
            queue.put(Message(body=i, expiry_ms=1_000_000 + i))
        entries = queue._entries = WalkCountingList(queue._entries)
        assert [queue.get().body for _ in range(10)] == list(range(10))
        walked[depth] = entries.walked / 10
    assert walked[2_000] == walked[20], walked


@pytest.mark.parametrize("backend", ["memory", "binfile"])
def test_restart_decodes_only_the_messages_that_survive(backend, monkeypatch, tmp_path):
    """1,000 journaled puts, 900 journaled gets: the replay folds all
    1,900 records but decodes (and validates) the 100 survivors only."""
    decodes = {"n": 0}
    original = persistence.decode_message

    def counting(record):
        decodes["n"] += 1
        return original(record)

    monkeypatch.setattr(persistence, "decode_message", counting)
    clock = SimulatedClock()
    factory = journal_factory_for(backend, str(tmp_path), sync="none")
    manager = QueueManager("QM.S", clock, journal=factory("QM.S"))
    manager.define_queue("A.Q")
    for i in range(1_000):
        manager.put("A.Q", Message(body=i))
    for _ in range(900):
        manager.get("A.Q")
    journal = manager.journal
    if backend != "memory":
        journal.close()
        journal = factory("QM.S")  # a restarted process opens the file anew
    recovered = QueueManager.recover("QM.S", clock, journal)
    assert decodes["n"] == 100
    assert (journal.recover_records, journal.recover_live) == (1_901, 100)
    assert [m.body for m in recovered.browse("A.Q")] == list(range(900, 1_000))
    journal.close()


def test_a_sql_store_writes_messages_not_bookkeeping(tmp_path):
    """Every statement a fan-out-8 conditional message costs on ``sqlstore``
    stores: after set-up nothing touches the queue registry, nothing asks
    for an expiry watermark while no message carries an expiry, a
    transaction begins only for a commit group that writes, one per
    durable event, and what it writes is one row per put or get."""
    bed = Testbed(
        FANOUT8,
        latency_ms=1,
        journaled=True,
        journal_factory=journal_factory_for("sqlstore", str(tmp_path), sync="none"),
    )
    condition = condition_for(bed, FANOUT8)
    managers = [bed.sender_manager] + [node.manager for node in bed.receivers.values()]

    def conditional_message():
        cmid = send(bed, condition)
        for name in FANOUT8:
            assert read(bed, name).cmid == cmid
        bed.run_all()
        assert bed.service.outcome(cmid).outcome is MessageOutcome.SUCCESS
        bed.service.poll_outcome_notifications()

    def totals():
        stores = bed.journals.values()
        stats = [m.queue(name).stats for m in managers for name in m.queue_names()]
        return (
            sum(store.flush_count for store in stores),
            sum(store.records_written for store in stores),
            sum(s.puts + s.gets for s in stats),
        )

    conditional_message()  # set-up: queue definitions and the like
    statements = []
    for store in bed.journals.values():
        store._con.set_trace_callback(statements.append)
    before = totals()
    for _ in range(3):
        conditional_message()
    flushes, records, puts_and_gets = (a - b for a, b in zip(totals(), before))
    for store in bed.journals.values():
        store._con.set_trace_callback(None)
    # One transaction per durable event: the 26 commit groups of the binary
    # journal.  The 16 spool resolutions join the next transaction their
    # store writes anyway, and the channel seqs ride the transactions of
    # the parks and arrivals they number.
    assert flushes == 3 * 26
    assert [s for s in statements if re.search(r"\bqueues\b", s)] == []
    assert [s for s in statements if "MIN(expiry_ms)" in s] == []
    assert len([s for s in statements if s.startswith("BEGIN")]) == flushes
    assert records == puts_and_gets
    for journal in bed.journals.values():
        journal.close()


def python_calls(action):
    """Calls of functions defined in ``repro`` or ``contextlib`` during ``action()``."""
    profiler = cProfile.Profile()
    profiler.runcall(action)
    roots = (os.path.dirname(repro.__file__), contextlib.__file__)
    return sum(
        calls
        for (filename, _line, _name), (_primitive, calls, *_times)
        in pstats.Stats(profiler).stats.items()
        if filename.startswith(roots)
    )


def satisfaction_calls(action):
    """Calls of functions defined in ``core/satisfaction.py`` during ``action()``."""
    profiler = cProfile.Profile()
    profiler.runcall(action)
    stats = pstats.Stats(profiler).stats
    return sum(
        calls
        for (filename, _line, _name), (_primitive, calls, *_times) in stats.items()
        if filename == satisfaction.__file__
    )


@pytest.mark.parametrize("shape", ["set deadline", "leaf deadlines"])
def test_a_fanout8_message_costs_at_most_100_satisfaction_calls(shape):
    """Registration, eight acks and the decision: the tracker is built
    once and each ack moves one leaf-to-root path.  (A full re-walk per
    acknowledgment cost 856 calls per message.)"""
    bed = Testbed(FANOUT8, latency_ms=1)
    if shape == "set deadline":  # the end-to-end benchmark's condition
        condition = destination_set(
            *[
                destination(bed.queue_of(name), manager=f"QM.{name}", recipient=name)
                for name in FANOUT8
            ],
            msg_pick_up_time=PICK_UP_MS,
        )
    else:
        condition = condition_for(bed, FANOUT8)
    cmids = []

    def conditional_message():
        cmids.append(send(bed, condition))
        for name in FANOUT8:
            assert read(bed, name).cmid == cmids[-1]
        bed.run_all()

    conditional_message()  # queue definitions and the like
    calls = satisfaction_calls(lambda: [conditional_message() for _ in range(4)])
    assert calls / 4 <= 100, calls / 4
    for cmid in cmids:
        record = bed.service.evaluation.record(cmid)
        assert record.decided.outcome is MessageOutcome.SUCCESS
        assert record.decided.reasons == []
        assert record.tracker is None  # decided records are kept; trackers are not


def calls_per_ack(fan_out):
    """(calls of every ack between the first and the last, calls of the
    deciding last ack).  The first builds the message's tracker, the one
    O(fan-out) step."""
    manager = QueueManager("QM.S", SimulatedClock())
    decided = []
    evaluation = EvaluationManager(manager, "DS.ACK.Q", decided.append)
    names = [f"R{i}" for i in range(fan_out)]
    evaluation.register(
        "CM-1",
        destination_set(
            *[destination(f"Q.{name}", recipient=name) for name in names],
            msg_pick_up_time=PICK_UP_MS,
        ),
        0,
        PICK_UP_MS + 100,
    )
    per_ack = [
        satisfaction_calls(
            lambda name=name: manager.put(
                "DS.ACK.Q",
                ack_to_message(
                    Acknowledgment(
                        "CM-1", AckKind.READ, f"Q.{name}", "QM.S", name,
                        10, None, f"m.{name}",
                    )
                ),
            )
        )
        for name in names
    ]
    assert len(decided) == 1 and evaluation.record("CM-1").tracker is None
    assert per_ack[0] > per_ack[1] and len(set(per_ack[1:-1])) == 1, per_ack
    return per_ack[1], per_ack[-1]


def test_satisfaction_calls_per_ack_do_not_grow_with_fan_out():
    assert calls_per_ack(512) == calls_per_ack(8)
