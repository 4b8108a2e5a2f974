"""Property-based tests: topic pattern matching, cross-backend recovery
equivalence (same op sequence -> identical recovered queue state on every
store of the scheme table) and keyed-lookup equivalence of the two queue
classes."""

import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import MQError
from repro.mq.manager import QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import JOURNAL_SCHEMES, journal_factory_for
from repro.mq.pubsub import TopicBroker, topic_matches, validate_pattern
from repro.mq.queue import MessageQueue
from repro.mq.sqlstore import SqlMessageQueue, SqlQueueStore
from repro.sim.clock import SimulatedClock
from tests.test_property_mq import QueueOpDriver, queue_op

# -- topic_matches ----------------------------------------------------------

literal_segments = st.lists(
    st.sampled_from(["a", "b", "c", "px", "nyse"]), min_size=1, max_size=5
)
pattern_segments = st.lists(
    st.sampled_from(["a", "b", "c", "px", "nyse", "*"]), min_size=1, max_size=5
)


@settings(max_examples=200, deadline=None)
@given(literal_segments)
def test_literal_pattern_matches_only_itself(segments):
    topic = ".".join(segments)
    assert topic_matches(topic, topic)
    # Any extra or missing segment breaks a wildcard-free match.
    assert not topic_matches(topic, topic + ".extra")
    if len(segments) > 1:
        assert not topic_matches(topic, ".".join(segments[:-1]))


@settings(max_examples=200, deadline=None)
@given(pattern_segments, literal_segments)
def test_star_requires_equal_segment_counts(pattern_parts, topic_parts):
    """A `#`-free pattern can only match a topic of the same length, and
    matches iff every non-`*` segment agrees."""
    pattern = ".".join(pattern_parts)
    topic = ".".join(topic_parts)
    expected = len(pattern_parts) == len(topic_parts) and all(
        p in ("*", t) for p, t in zip(pattern_parts, topic_parts)
    )
    assert topic_matches(pattern, topic) == expected


@settings(max_examples=200, deadline=None)
@given(literal_segments, literal_segments)
def test_hash_matches_any_strict_extension(prefix, tail):
    """`prefix.#` matches `prefix.<anything non-empty>` and never the
    bare prefix itself."""
    pattern = ".".join(prefix) + ".#"
    assert topic_matches(pattern, ".".join(prefix + tail))
    assert not topic_matches(pattern, ".".join(prefix))


@settings(max_examples=100, deadline=None)
@given(literal_segments, st.integers(min_value=0, max_value=3), literal_segments)
def test_mid_pattern_hash_always_rejected(prefix, extra, topic_parts):
    """A mid-pattern `#` raises MQError for *every* topic — it cannot
    hide behind an early segment mismatch."""
    pattern = ".".join(prefix + ["#"] + ["x"] * (extra + 1))
    with pytest.raises(MQError):
        validate_pattern(pattern)
    with pytest.raises(MQError):
        topic_matches(pattern, ".".join(topic_parts))


def test_bad_pattern_fails_at_subscribe_not_publish():
    """Regression: a mid-pattern `#` used to be accepted by subscribe and
    then raise out of every subsequent publish on the broker."""
    clock = SimulatedClock()
    broker = TopicBroker(QueueManager("QM.PS", clock))
    broker.subscribe("px.#", "good")
    with pytest.raises(MQError):
        broker.subscribe("px.#.ibm", "bad")
    # The broker stays healthy: no stored bad pattern poisons publishes.
    assert broker.publish("px.nyse.ibm", Message(body={"px": 1})) == 1


# -- cross-backend recovery equivalence -------------------------------------

BACKENDS = sorted(JOURNAL_SCHEMES)
#: restarts in a row at each restart point: the second and third start
#: from whatever log the one before left (as found, or compacted)
RESTARTS_IN_A_ROW = 3

queue_names = st.sampled_from(["A.Q", "B.Q"])
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            queue_names,
            st.integers(min_value=0, max_value=9),   # priority
            st.booleans(),                            # persistent?
        ),
        st.tuples(st.just("get"), queue_names),
        st.tuples(
            st.just("put_batch"),
            queue_names,
            st.integers(min_value=1, max_value=4),    # batch size
        ),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restart")),
    ),
    min_size=1,
    max_size=25,
)


class QueueModel:
    """What the queues must hold: (body, priority, persistent) entries in
    delivery order — priority descending, first in first out within one."""

    def __init__(self, keeps_volatile):
        self.keeps_volatile = keeps_volatile
        self.queues = {"A.Q": [], "B.Q": []}

    def put(self, queue, body, priority=4, persistent=True):
        entries = self.queues[queue]
        index = len(entries)
        while index and entries[index - 1][1] < priority:
            index -= 1
        entries.insert(index, (body, priority, persistent))

    def get(self, queue):
        if self.queues[queue]:
            self.queues[queue].pop(0)

    def restart(self):
        if not self.keeps_volatile:
            self.queues = {
                queue: [entry for entry in entries if entry[2]]
                for queue, entries in self.queues.items()
            }


def _queue_state(manager):
    return {
        queue: [(m.body, m.priority, m.is_persistent()) for m in manager.browse(queue)]
        for queue in ("A.Q", "B.Q")
    }


def _restart(manager, backend, factory, clock):
    """Crash and recover as a new process would: path schemes get a fresh
    store object over the same file, ``memory`` its surviving journal."""
    store = manager.journal or manager.store
    if JOURNAL_SCHEMES[backend][2]:
        store.close()
        store = factory("QM.EQ")
    return QueueManager.recover("QM.EQ", clock, store)


@settings(max_examples=25, deadline=None)
@given(ops)
def test_same_ops_recover_identically_on_every_backend(op_list):
    """One op sequence on every scheme against one model, with restarts at
    random points — no checkpoint first, three in a row, each compared
    with the model — and one at the end."""
    for backend in BACKENDS:
        with tempfile.TemporaryDirectory() as tmpdir:
            clock = SimulatedClock()
            factory = journal_factory_for(backend, tmpdir, sync="batch")
            # The one legitimate difference: the SQL database outlives the
            # manager, so non-persistent messages survive a restart too.
            model = QueueModel(keeps_volatile=backend == "sqlstore")
            manager = QueueManager("QM.EQ", clock, journal=factory("QM.EQ"))
            for queue in ("A.Q", "B.Q"):
                manager.define_queue(queue)
            counter = 0
            for op in op_list + [("restart",)]:
                if op[0] == "put":
                    _, queue, priority, persistent = op
                    mode = (
                        DeliveryMode.PERSISTENT if persistent
                        else DeliveryMode.NON_PERSISTENT
                    )
                    manager.put(
                        queue,
                        Message(body=counter, priority=priority, delivery_mode=mode),
                    )
                    model.put(queue, counter, priority, persistent)
                    counter += 1
                elif op[0] == "get":
                    if manager.depth(op[1]) > 0:
                        manager.get(op[1])
                    model.get(op[1])
                elif op[0] == "put_batch":
                    _, queue, size = op
                    batch = [Message(body=counter + i) for i in range(size)]
                    with manager.group_commit():
                        manager.put_many(queue, batch)
                    for message in batch:
                        model.put(queue, message.body)
                    counter += size
                elif op[0] == "checkpoint":
                    manager.checkpoint()
                else:
                    assert _queue_state(manager) == model.queues, (backend, "live")
                    model.restart()
                    for nth in range(RESTARTS_IN_A_ROW):
                        manager = _restart(manager, backend, factory, clock)
                        assert _queue_state(manager) == model.queues, (backend, nth)
            (manager.journal or manager.store).close()


# -- keyed lookups: both queue classes answer alike ---------------------------


class SimulatedCrash(BaseException):
    """A crash before the commit group reached the store."""


def crash_before_flush(_ops):
    raise SimulatedCrash


#: The queue ops plus what only a store does: a commit group a pre-flush
#: crash rolls back, presumed-abort lock release, queue deletion, restart.
lockstep_ops = st.lists(
    st.one_of(
        queue_op,
        st.tuples(st.just("crashed"), queue_op),
        st.tuples(st.just("release_locks")),
        st.tuples(st.just("delete_queue")),
        st.tuples(st.just("reopen")),
    ),
    max_size=40,
)


def assert_counts_match_rows(store, name):
    """The store's in-memory counts are what its rows say."""
    counts = store.counts[name]
    assert (counts.total, counts.locked, counts.watermark) == store._con.execute(
        "SELECT COUNT(*), COUNT(lock_owner),"
        " MIN(CASE WHEN lock_owner IS NULL THEN expiry_ms END)"
        " FROM messages WHERE queue = ?",
        (name,),
    ).fetchone()


EXPIRES_AT_5, EXPIRES_AT_50 = (4, None, 5, False), (4, None, 50, False)


@settings(max_examples=60, deadline=None)
@given(lockstep_ops)
# Every way the watermark moves: a lock hides the earliest expiry, a
# rollback and a lock release show it again, a sweep and a purge pass it.
@example([
    ("put", EXPIRES_AT_5), ("put", EXPIRES_AT_50), ("get", "tx1"),
    ("rollback", "tx1"), ("get", "tx2"), ("release_locks",),
    ("advance", 10), ("purge",),
])  # fmt: skip
# Every way the counts are re-read: a rolled-back group, a reopen with a
# lock held, a deleted queue.
@example([
    ("put", EXPIRES_AT_5), ("crashed", ("put", EXPIRES_AT_50)),
    ("crashed", ("get", None)), ("get", "tx1"), ("reopen",),
    ("delete_queue",), ("put", EXPIRES_AT_50),
])  # fmt: skip
def test_sql_queue_answers_keyed_lookups_like_the_memory_queue(op_list):
    """The op sequences of ``test_property_mq`` on a ``MessageQueue`` and a
    ``SqlMessageQueue`` in lockstep: every op has the same outcome and
    every lookup — by id, by correlation, collisions, locked sets — the
    same answer in the same order, lock and expiry visibility included.
    After every op the store's depth, locked count and expiry watermark
    equal what its rows say, whatever rolled back, unlocked or reopened."""
    clock = SimulatedClock()
    with tempfile.TemporaryDirectory() as tmpdir:
        path = f"{tmpdir}/lockstep.db"
        store = SqlQueueStore(path, sync="none")
        try:
            memory = MessageQueue("IX.Q", clock)
            sql = SqlMessageQueue(store, "IX.Q", clock)
            driver = QueueOpDriver(clock, [memory, sql])
            for op in op_list:
                if op[0] == "crashed":  # the SQL queue alone; nothing survives
                    driver.queues = [sql]
                    store.on_pre_flush = crash_before_flush
                    try:
                        with store.transaction():
                            driver.apply(op[1])
                    except SimulatedCrash:
                        pass
                    store.on_pre_flush = None
                elif op[0] == "release_locks":  # unlocked in place, no backout
                    store.release_locks("")
                    memory.restore(memory.snapshot())
                elif op[0] == "delete_queue":
                    store.delete_queue("IX.Q")
                    memory = MessageQueue("IX.Q", clock)
                    sql = SqlMessageQueue(store, "IX.Q", clock)
                elif op[0] == "reopen":
                    store.close()
                    store = SqlQueueStore(path, sync="none")
                    sql = SqlMessageQueue(store, "IX.Q", clock)
                else:
                    from_memory, from_sql = driver.apply(op)
                    assert from_sql == from_memory, op
                driver.queues = [memory, sql]
                assert_counts_match_rows(store, "IX.Q")
                assert driver.observe(sql) == driver.observe(memory), op
                assert_counts_match_rows(store, "IX.Q")
        finally:
            store.close()
