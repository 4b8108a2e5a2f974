"""Channel sequence numbers: exactly-once transfer across restarts.

A restart of the whole deployment keeps no memory but the stores.  The
target's durable watermark must drop every copy a source re-drives —
consumed messages included — and the watermark itself must accept each
seq once, whatever the arrival order and wherever a crash cuts it.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError
from repro.mq import persistence
from repro.mq.manager import XMIT_PREFIX, QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.network import MessageNetwork
from repro.mq.persistence import Journal, journal_factory_for
from repro.mq.sequence import PROP_ROUTE_SEQ, SeqWatermark
from repro.mq.sqlstore import SqlQueueStore
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler
from repro.workloads.scenarios import Testbed

RECEIVERS = ["R1", "R2", "R3"]
SCHEMES = sorted(persistence.JOURNAL_SCHEMES)


def spool_depth(managers):
    return sum(
        manager.depth(name)
        for manager in managers
        for name in manager.queue_names()
        if name.startswith(XMIT_PREFIX)
    )


def restart_mid_run(scheme, tmp_path, sends=6, consumed=3):
    """Send, read a subset, crash every manager without a checkpoint,
    restart them on a fresh network and re-drive the spools.

    Returns ``(copies re-driven, duplicates suppressed, inbox bodies per
    receiver after the re-drive)``.
    """
    bed = Testbed(
        RECEIVERS,
        latency_ms=1,
        journaled=True,
        journal_factory=journal_factory_for(scheme, str(tmp_path), sync="none"),
    )
    for name in RECEIVERS:
        bed.manager_of(name).define_queue(bed.queue_of(name))
    for n in range(sends):
        for name in RECEIVERS:
            bed.sender_manager.put_remote(
                f"QM.{name}", bed.queue_of(name), Message(body=n)
            )
    bed.run_all()
    for name in RECEIVERS:
        for _ in range(consumed):
            bed.manager_of(name).get(bed.queue_of(name))
    bed.run_all()

    # The crash: every process dies; only the stores survive.
    scheduler = EventScheduler(bed.clock)
    network = MessageNetwork(scheduler=scheduler)
    recovered = {
        name: network.add_manager(QueueManager.recover(name, bed.clock, journal))
        for name, journal in bed.journals.items()
    }
    redriven = spool_depth(recovered.values())
    for name in RECEIVERS:
        network.connect(bed.SENDER, f"QM.{name}", latency_ms=1)
    scheduler.run_all()
    suppressed = sum(
        network.channel(a, b).stats.duplicates_suppressed
        for a in recovered
        for b in recovered
        if a != b and (a == bed.SENDER or b == bed.SENDER)
    )
    inboxes = {
        name: [m.body for m in recovered[f"QM.{name}"].browse(bed.queue_of(name))]
        for name in RECEIVERS
    }
    assert spool_depth(recovered.values()) == 0
    for journal in bed.journals.values():
        journal.close()
    return redriven, suppressed, inboxes


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_restart_redelivers_no_consumed_message(scheme, tmp_path):
    """Consumed messages stay consumed: every copy the restart re-drives
    is a duplicate the targets drop."""
    redriven, suppressed, inboxes = restart_mid_run(scheme, tmp_path)
    assert inboxes == {name: [3, 4, 5] for name in RECEIVERS}
    assert redriven > 0  # the crash landed inside the resolution window
    assert suppressed == redriven


@pytest.mark.parametrize("scheme", ["memory", "sqlstore"])
def test_the_restart_check_catches_a_skipped_watermark_note(
    scheme, tmp_path, monkeypatch
):
    """Canary: arrivals that leave their ``(peer, seq)`` out of the commit
    group make the restart deliver consumed messages again."""
    log_put = Journal.log_put
    monkeypatch.setattr(
        Journal,
        "log_put",
        lambda self, queue_name, message, channel=None: log_put(
            self, queue_name, message
        ),
    )
    monkeypatch.setattr(SqlQueueStore, "note_channel", lambda *args: None)
    redriven, suppressed, inboxes = restart_mid_run(scheme, tmp_path)
    assert suppressed < redriven
    assert inboxes != {name: [3, 4, 5] for name in RECEIVERS}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_copy_resolved_since_the_last_group_is_written_by_close(scheme, tmp_path):
    """Closing the store writes pending resolutions: an orderly restart
    re-drives nothing."""
    factory = journal_factory_for(scheme, str(tmp_path), sync="none")
    clock = SimulatedClock()
    network = MessageNetwork()
    source = network.add_manager(QueueManager("QM.A", clock, journal=factory("QM.A")))
    target = network.add_manager(QueueManager("QM.B", clock, journal=factory("QM.B")))
    network.connect("QM.A", "QM.B")
    target.define_queue("IN.Q")
    source.put_remote("QM.B", "IN.Q", Message(body=1))
    assert source.depth(XMIT_PREFIX + "QM.B") == 0  # gone from view at once
    for manager in (source, target):
        (manager.store or manager.journal).close()
    # A restarted process opens the store anew (memory: the same object).
    reopened = source.journal if scheme == "memory" else factory("QM.A")
    recovered = QueueManager.recover("QM.A", clock, reopened)
    assert recovered.depth(XMIT_PREFIX + "QM.B") == 0
    assert recovered.last_spool_seq("QM.B") == 1  # never reused
    reopened.close()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_out_of_order_set_stays_flat_over_a_long_run(scheme, tmp_path):
    """2,000 messages over a jittered channel, consumed as they come: the
    delivery ledger — the seqs accepted above the cumulative watermark —
    stays within the reorder window and is empty once the channel drains."""
    registry = MetricsRegistry()
    factory = journal_factory_for(scheme, str(tmp_path), sync="none")
    clock = SimulatedClock()
    scheduler = EventScheduler(clock)
    network = MessageNetwork(scheduler=scheduler, seed=7)
    source = network.add_manager(QueueManager("QM.A", clock, journal=factory("QM.A")))
    target = network.add_manager(
        QueueManager("QM.B", clock, journal=factory("QM.B"), metrics=registry)
    )
    network.connect("QM.A", "QM.B", latency_ms=1, jitter_ms=20)
    target.define_queue("IN.Q")
    peak = []
    for start in range(0, 2_000, 100):
        for n in range(start, start + 100):
            source.put_remote("QM.B", "IN.Q", Message(body=n))
            scheduler.run_for(1)
        peak.append(registry.gauge("delivered_ledger.network"))
        while target.get_wait("IN.Q") is not None:
            pass
    scheduler.run_all()
    assert max(peak) <= 20  # at most one message parked per ms of jitter
    assert max(peak[10:]) <= max(peak[:10]) + 5
    assert registry.gauge("delivered_ledger.network") == 0
    assert target.accepted_out_of_order() == 0
    for manager in (source, target):
        (manager.store or manager.journal).close()


# -- the watermark on its own ---------------------------------------------------


@st.composite
def arrivals(draw):
    """A channel's seqs 1..n in an order displaced by at most ``window``,
    with duplicates, and the arrival indexes a crash cuts at."""
    n = draw(st.integers(min_value=0, max_value=60))
    window = draw(st.integers(min_value=1, max_value=8))
    keys = [seq + draw(st.integers(min_value=0, max_value=window - 1)) for seq in range(1, n + 1)]
    order = [seq for _key, seq in sorted(zip(keys, range(1, n + 1)))]
    stream = []
    for seq in order:
        stream.append(seq)
        if stream and draw(st.booleans()) and draw(st.booleans()):
            stream.append(draw(st.sampled_from(stream)))  # a re-driven copy
    cuts = draw(st.sets(st.integers(min_value=0, max_value=len(stream))))
    return n, window, stream, cuts


@settings(max_examples=300, deadline=None)
@given(arrivals())
def test_the_watermark_accepts_each_seq_exactly_once(case):
    n, window, stream, cuts = case
    snapshot, logged = (0, ()), []  # durable: a snapshot, then the notes
    durable_accepts = []
    watermark = SeqWatermark()
    index = 0
    while index < len(stream):
        seq = stream[index]
        fresh = watermark.accept(seq)
        if index in cuts:
            # A crash before the arrival's group is written: the restart
            # rebuilds the watermark from what is durable (checkpointing
            # on the way up), and the source re-drives the lost copy.
            watermark = SeqWatermark(*snapshot)
            for note in logged:
                watermark.accept(note)
            snapshot, logged = watermark.state(), []
            if fresh:
                stream.insert(index + 1, seq)
        elif fresh:
            logged.append(seq)
            durable_accepts.append(seq)
        assert all(above > watermark.cumulative for above in watermark.above)
        assert len(watermark.above) < window
        index += 1
    assert sorted(durable_accepts) == list(range(1, n + 1))
    assert watermark.state() == (n, ())


@given(
    st.lists(st.integers(min_value=1, max_value=50), max_size=40),
    st.integers(min_value=1, max_value=60),
)
def test_settling_accepts_exactly_what_lies_below_the_floor(seqs, floor):
    watermark = SeqWatermark()
    for seq in seqs:
        watermark.accept(seq)
    watermark.settle(floor)
    assert all(watermark.covers(seq) for seq in range(1, floor))
    assert all(watermark.covers(seq) == (seq in seqs) for seq in range(floor, 60))
    assert all(above > watermark.cumulative + 1 for above in watermark.above)


def test_a_watermark_advances_over_the_seqs_that_arrived_early():
    watermark = SeqWatermark()
    assert not watermark.covers(1)
    assert [watermark.accept(seq) for seq in (2, 4, 2)] == [True, True, False]
    assert watermark.state() == (0, (2, 4))
    assert watermark.accept(1)
    assert watermark.state() == (2, (4,))
    assert watermark.accept(3) and watermark.state() == (4, ())
    assert SeqWatermark(*watermark.state()).state() == (4, ())


# -- stores -----------------------------------------------------------------------


def test_a_log_replays_channels_from_rows_resolutions_and_a_snapshot():
    journal = persistence.MemoryJournal()
    parked = [
        Message(body=n, properties={PROP_ROUTE_SEQ: n + 1}) for n in range(3)
    ]
    journal.log_put_many((XMIT_PREFIX + "QM.B", m) for m in parked)
    journal.log_resolved("QM.B", 1)
    journal.log_resolved("QM.B", 3)
    # Resolutions wait for the next group, an arrival from two peers here.
    journal.log_put("IN.Q", Message(body="a", source_manager="QM.B"), ("QM.B", 5))
    journal.log_put("IN.Q", Message(body="b", source_manager="QM.X"), ("QM.C", 1))
    _names, live = journal.recover()
    assert [m.body for m in live[XMIT_PREFIX + "QM.B"]] == [1]
    assert {peer: (sent, accepted.state()) for peer, (sent, accepted)
            in journal.recovered_channels.items()} == {
        "QM.B": (3, (0, (5,))), "QM.C": (0, (1, ())),
    }
    journal.checkpoint(live, [("QM.B", 3, 0, (5,)), ("QM.C", 0, 1, ())])
    journal.recover()
    assert journal.recovered_channels["QM.B"][0] == 3
    assert journal.recovered_channels["QM.B"][1].state() == (0, (5,))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_copy_is_stamped_when_a_restart_could_redrive_it(scheme, tmp_path):
    """A non-persistent copy on a log store dies with a crash, so it travels
    without a seq; the store keeps even non-persistent rows."""
    factory = journal_factory_for(scheme, str(tmp_path), sync="none")
    manager = QueueManager("QM.A", SimulatedClock(), journal=factory("QM.A"))
    volatile = Message(body=1, delivery_mode=DeliveryMode.NON_PERSISTENT)
    expected = 1 if scheme == "sqlstore" else None
    assert manager.next_spool_seq("QM.B", volatile) == expected
    assert manager.next_spool_seq("QM.B", Message(body=2)) == (expected or 0) + 1
    assert QueueManager("QM.V", SimulatedClock()).next_spool_seq("QM.B", volatile) is None
    (manager.store or manager.journal).close()


def test_deferred_store_writes_wait_for_a_transaction_that_writes(tmp_path):
    store = SqlQueueStore(str(tmp_path / "s.db"), sync="none")
    manager = QueueManager("QM.A", SimulatedClock(), journal=store)
    manager.define_queue("Q")
    stored = [manager.put("Q", Message(body=n)) for n in range(3)]
    flushes = store.flush_count
    store.deferred(lambda: manager.queue("Q").get_by_id(stored[0].message_id))
    assert manager.depth("Q") == 2  # visible at once; the read wrote nothing
    assert store.flush_count == flushes
    store.discard_pending()  # a crash loses it
    assert manager.depth("Q") == 3
    store.deferred(lambda: manager.queue("Q").get_by_id(stored[0].message_id))
    manager.put("Q", Message(body=3))  # one transaction carries both
    assert (store.flush_count, manager.depth("Q")) == (flushes + 1, 3)
    store.deferred(lambda: manager.queue("Q").get_by_id(stored[1].message_id))
    store.close()  # closing commits the rest
    reopened = SqlQueueStore(str(tmp_path / "s.db"), sync="none")
    assert [m.body for m in QueueManager("QM.A", SimulatedClock(), journal=reopened).browse("Q")] == [2, 3]
    reopened.close()


@pytest.mark.parametrize("scheme", ["binfile", "sqlstore"])
def test_a_watermark_survives_consumption_checkpoint_and_reopen(scheme, tmp_path):
    factory = journal_factory_for(scheme, str(tmp_path), sync="none")
    clock = SimulatedClock()
    target = QueueManager("QM.B", clock, journal=factory("QM.B"))
    target.define_queue("IN.Q")
    for seq in (1, 2, 4):
        assert target.put_inbound("IN.Q", Message(body=seq), ("QM.A", seq))
    assert target.put_inbound("IN.Q", Message(body="again"), ("QM.A", 2)) is None
    while target.get_wait("IN.Q") is not None:
        pass
    target.checkpoint()
    (target.store or target.journal).close()
    recovered = QueueManager.recover("QM.B", clock, factory("QM.B"))
    assert [recovered.has_accepted("QM.A", seq) for seq in range(1, 6)] == [
        True, True, False, True, False,
    ]
    assert recovered.depth("IN.Q") == 0
    (recovered.store or recovered.journal).close()


def test_a_forwarding_hop_drops_a_copy_it_accepted_already():
    clock = SimulatedClock()
    scheduler = EventScheduler(clock)
    network = MessageNetwork(scheduler=scheduler)
    for name in ("QM.A", "QM.B", "QM.C"):
        network.add_manager(QueueManager(name, clock))
    network.connect("QM.A", "QM.B", latency_ms=5)
    network.connect("QM.B", "QM.C", latency_ms=5)
    network.set_route("QM.A", "QM.C", "QM.B")
    network.manager("QM.A").put_remote("QM.C", "IN.Q", Message(body="x"))
    scheduler.run_for(1)
    parked = list(network.manager("QM.A").browse(XMIT_PREFIX + "QM.B"))
    scheduler.run_all()
    network._deliver(network.channel("QM.A", "QM.B"), parked[0])  # replayed
    scheduler.run_all()
    assert network.manager("QM.C").depth("IN.Q") == 1
    assert network.channel("QM.A", "QM.B").stats.duplicates_suppressed == 1
    assert network.manager("QM.B").last_spool_seq("QM.C") == 1


def test_a_redrive_settles_the_hole_an_expired_copy_leaves():
    """A parked copy that expires never reaches the target; the heal's
    re-drive tells the target so, and the out-of-order set stays empty."""
    clock = SimulatedClock()
    scheduler = EventScheduler(clock)
    network = MessageNetwork(scheduler=scheduler)
    source = network.add_manager(QueueManager("QM.A", clock))
    target = network.add_manager(QueueManager("QM.B", clock))
    network.connect("QM.A", "QM.B", latency_ms=5)
    target.define_queue("IN.Q")
    network.partition("QM.A", "QM.B")
    source.put_remote("QM.B", "IN.Q", Message(body="late", expiry_ms=50))
    source.put_remote("QM.B", "IN.Q", Message(body="kept"))
    scheduler.run_until(100)
    network.heal("QM.A", "QM.B")
    scheduler.run_all()
    assert [m.body for m in target.browse("IN.Q")] == ["kept"]
    assert target.has_accepted("QM.A", 1) and target.accepted_out_of_order() == 0


@pytest.mark.parametrize(
    "record",
    [
        {"op": "resolve"},
        {"op": "resolve", "resolved": [["QM.B"]]},
        {"op": "channel", "peer": "QM.B", "sent": 1},
        {"op": "put", "queue": "Q", "channel": "QM.B", "message": {"message_id": "m"}},
    ],
)
def test_a_malformed_channel_record_is_a_persistence_error(record):
    journal = persistence.MemoryJournal()
    journal.append(record)
    journal.append({"op": "define", "queue": "Q"})
    with pytest.raises(PersistenceError):
        journal.recover()
