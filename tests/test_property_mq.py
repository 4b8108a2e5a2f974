"""Property-based tests for MOM substrate invariants."""

from typing import List

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import EmptyQueueError
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.persistence import MemoryJournal, decode_message, expand_row, put_row
from repro.mq.queue import MessageQueue
from repro.mq.selectors import Selector
from repro.sim.clock import SimulatedClock

priorities = st.integers(min_value=0, max_value=9)
bodies = st.one_of(
    st.none(), st.integers(), st.text(max_size=20), st.lists(st.integers(), max_size=5)
)
prop_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(alphabet="abcxyz'", max_size=8),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
prop_maps = st.dictionaries(
    st.text(alphabet="abcdefg", min_size=1, max_size=6), prop_values, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(st.lists(priorities, min_size=1, max_size=30))
def test_queue_delivers_priority_then_fifo(priority_list):
    queue = MessageQueue("P.Q", SimulatedClock())
    for index, priority in enumerate(priority_list):
        queue.put(Message(body=index, priority=priority))
    delivered = []
    while not queue.is_empty():
        delivered.append(queue.get())
    # Expected: stable sort of (priority desc, arrival asc).
    expected = sorted(
        range(len(priority_list)), key=lambda i: (-priority_list[i], i)
    )
    assert [m.body for m in delivered] == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(priorities, min_size=1, max_size=20), st.randoms())
def test_rollback_preserves_delivery_order(priority_list, rng):
    """A transactional get + rollback must not change what a later
    consumer observes (except backout counts)."""
    clock = SimulatedClock()
    direct = MessageQueue("A.Q", clock)
    churned = MessageQueue("B.Q", clock)
    for index, priority in enumerate(priority_list):
        direct.put(Message(body=index, priority=priority))
        churned.put(Message(body=index, priority=priority))
    # Lock a random prefix of deliveries, then roll back.
    lock_count = rng.randint(0, len(priority_list))
    for _ in range(lock_count):
        churned.get(lock_owner="tx")
    churned.rollback_locked("tx")
    direct_order = [direct.get().body for _ in range(len(priority_list))]
    churned_order = [churned.get().body for _ in range(len(priority_list))]
    assert churned_order == direct_order


@settings(max_examples=200, deadline=None)
@given(bodies, prop_maps, priorities)
def test_message_codec_roundtrip(body, props, priority):
    message = Message(body=body, properties=props, priority=priority)
    restored = decode_message(expand_row(put_row("Q", message))["message"])
    assert restored.body == body
    assert restored.properties == props
    assert restored.priority == priority
    assert restored.message_id == message.message_id


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(bodies, st.booleans()), min_size=1, max_size=15),
    st.integers(min_value=0, max_value=14),
)
def test_recovery_reflects_committed_history(history, consume_count):
    """Recovering from the journal yields exactly the persistent messages
    put minus those destructively got, regardless of interleaving."""
    clock = SimulatedClock()
    journal = MemoryJournal()
    manager = QueueManager("QM.H", clock, journal=journal)
    manager.define_queue("A.Q")
    persistent_alive = []
    for body, persistent in history:
        from repro.mq.message import DeliveryMode

        message = Message(
            body=body,
            delivery_mode=(
                DeliveryMode.PERSISTENT if persistent else DeliveryMode.NON_PERSISTENT
            ),
        )
        stored = manager.put("A.Q", message)
        persistent_alive.append((stored.message_id, persistent))
    for _ in range(min(consume_count, len(history))):
        got = manager.get("A.Q")
        persistent_alive = [
            (mid, p) for mid, p in persistent_alive if mid != got.message_id
        ]
    recovered = QueueManager.recover("QM.H", clock, journal)
    recovered_ids = {m.message_id for m in recovered.browse("A.Q")}
    expected_ids = {mid for mid, persistent in persistent_alive if persistent}
    assert recovered_ids == expected_ids


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_selector_comparison_agrees_with_python(a, b):
    message = Message(body=None, properties={"a": a, "b": b})
    assert Selector("a < b").matches(message) == (a < b)
    assert Selector("a = b").matches(message) == (a == b)
    assert Selector("a >= b").matches(message) == (a >= b)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab%_", max_size=6), st.text(alphabet="ab", max_size=6))
def test_selector_like_matches_prefix_semantics(pattern, value):
    """LIKE with only %/_ wildcards over a tiny alphabet: compare against
    a straightforward regex translation."""
    import re

    regex = "^" + "".join(
        ".*" if c == "%" else "." if c == "_" else re.escape(c) for c in pattern
    ) + "$"
    expected = re.match(regex, value) is not None
    message = Message(body=None, properties={"v": value})
    escaped_pattern = pattern.replace("'", "''")
    assert Selector(f"v LIKE '{escaped_pattern}'").matches(message) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_2pc_never_mixes_outcomes(votes_yes):
    """All-yes commits everything; any no rolls everything back."""
    from repro.objects.coordinator import TwoPhaseCoordinator, TxOutcome
    from repro.objects.resource import FailingResource, Vote

    coordinator = TwoPhaseCoordinator()
    resources = [
        FailingResource(f"r{i}", vote=Vote.COMMIT if yes else Vote.ROLLBACK)
        for i, yes in enumerate(votes_yes)
    ]
    for resource in resources:
        coordinator.register("tx", resource)
    outcome = coordinator.commit("tx")
    if all(votes_yes):
        assert outcome is TxOutcome.COMMITTED
        assert all(r.committed == ["tx"] for r in resources)
        assert all(r.rolled_back == [] for r in resources)
    else:
        assert outcome is TxOutcome.ROLLED_BACK
        assert all(r.committed == [] for r in resources)
        assert all(r.rolled_back == ["tx"] for r in resources)


# -- key indexes vs. the ordered list ----------------------------------------
#
# The id and correlation indexes are redundant with ``_entries`` by
# construction; these sequences drive every mutation of the queue and
# check after each step that no keyed lookup can tell the difference.
# ``tests/test_property_backends.py`` runs the same sequences against
# ``SqlMessageQueue`` in lockstep.

CORRELATIONS = [None, "c0", "c1", "c2"]
OWNERS = ["tx1", "tx2"]
owners_or_none = st.sampled_from([None] + OWNERS)
picks = st.integers(min_value=0, max_value=40)

message_specs = st.tuples(
    priorities,
    st.sampled_from(CORRELATIONS),
    st.sampled_from([None, 5, 50]),  # expiry, relative to now
    st.booleans(),                   # reuse the id of the previous message?
)
queue_op = st.one_of(
    st.tuples(st.just("put"), message_specs),
    st.tuples(st.just("put_many"), st.lists(message_specs, max_size=4)),
    st.tuples(st.just("get"), owners_or_none),
    st.tuples(st.just("get_selector"), st.sampled_from(CORRELATIONS), owners_or_none),
    st.tuples(st.just("get_by_id"), picks, owners_or_none),
    st.tuples(st.just("remove_locked"), st.sampled_from(OWNERS), picks),
    st.tuples(st.just("commit"), st.sampled_from(OWNERS)),
    st.tuples(st.just("rollback"), st.sampled_from(OWNERS)),
    st.tuples(st.just("purge")),
    st.tuples(st.just("restore"), picks),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=60)),
)
queue_ops = st.lists(queue_op, max_size=40)


def _seen(message):
    return None if message is None else (message.body, message.backout_count)


class QueueOpDriver:
    """Applies one op sequence to one or more queues over a shared clock.

    Ids are picked from the list of every id ever issued, never from a
    queue's state, so the same op means the same thing on every queue.
    """

    def __init__(self, clock, queues):
        self.clock = clock
        self.queues = queues
        self.issued = []

    def _build(self, spec):
        priority, correlation, expiry_rel, reuse_id = spec
        message = Message(
            body=len(self.issued),
            priority=priority,
            correlation_id=correlation,
            expiry_ms=None if expiry_rel is None else self.clock.now_ms() + expiry_rel,
        )
        if reuse_id and self.issued:
            message = message.copy(message_id=self.issued[-1])
        self.issued.append(message.message_id)
        return message

    def _pick(self, index):
        return self.issued[index % len(self.issued)] if self.issued else "MSG-NONE"

    def apply(self, op):
        """Run ``op`` on every queue; returns each queue's outcome."""
        kind = op[0]
        if kind == "put":
            message = self._build(op[1])
            run = lambda q: _seen(q.put(message))
        elif kind == "put_many":
            batch = [self._build(spec) for spec in op[1]]
            run = lambda q: [_seen(m) for m in q.put_many(batch)]
        elif kind == "get":
            run = lambda q: _seen(q.get(lock_owner=op[1]))
        elif kind == "get_selector":
            run = lambda q: _seen(
                q.get(selector=lambda m: m.correlation_id == op[1], lock_owner=op[2])
            )
        elif kind == "get_by_id":
            message_id = self._pick(op[1])
            run = lambda q: _seen(q.get_by_id(message_id, lock_owner=op[2]))
        elif kind == "remove_locked":
            message_id = self._pick(op[2])
            run = lambda q: _seen(q.remove_locked(op[1], message_id))
        elif kind == "commit":
            run = lambda q: [_seen(m) for m in q.commit_locked(op[1])]
        elif kind == "rollback":
            run = lambda q: [_seen(m) for m in q.rollback_locked(op[1])]
        elif kind == "purge":
            run = lambda q: q.purge()
        elif kind == "restore":
            def run(q):
                kept = q.snapshot()
                if kept:
                    del kept[op[1] % len(kept)]
                q.restore(kept)
        else:
            self.clock.advance(op[1])
            run = lambda q: None
        outcomes = []
        for queue in self.queues:
            try:
                outcomes.append(run(queue))
            except EmptyQueueError:
                outcomes.append("empty")
        return outcomes

    def observe(self, queue):
        """Everything the keyed lookups (and the ordered ones) answer."""
        ids = set(self.issued) | {"MSG-NONE"}
        return {
            "depth": queue.depth(),  # first: lazy expiry, as on any access
            "total": queue.total_depth(),
            "contains": {i for i in ids if queue.contains_id(i)},
            "by_id": {i: _seen(queue.find_by_id(i)) for i in ids},
            "correlated": {
                c: [_seen(m) for m in queue.find_correlated(c)] for c in CORRELATIONS
            },
            "collisions": [_seen(m) for m in queue.find_collisions()],
            "locked": {o: [_seen(m) for m in queue.locked_messages(o)] for o in OWNERS},
            "browse": [_seen(m) for m in queue.browse()],
            "peek": _seen(queue.peek()),
        }


def _linear_reference(queue, driver):
    """The same answers from a walk over ``_entries`` alone."""
    now = driver.clock.now_ms()
    entries = queue._entries
    visible = [
        e for e in entries if e.locked_by is None and not e.message.is_expired(now)
    ]
    ids = set(driver.issued) | {"MSG-NONE"}
    carried = [e.message.correlation_id for e in entries]
    return {
        "depth": len([e for e in entries if e.locked_by is None]),
        "total": len(entries),
        "contains": {e.message.message_id for e in entries} & ids,
        "by_id": {
            i: next((_seen(e.message) for e in visible if e.message.message_id == i), None)
            for i in ids
        },
        "correlated": {
            c: [_seen(e.message) for e in visible if c is not None and e.message.correlation_id == c]
            for c in CORRELATIONS
        },
        "collisions": [
            _seen(e.message)
            for e in visible
            if e.message.correlation_id is not None
            and carried.count(e.message.correlation_id) > 1
        ],
        "locked": {
            o: [_seen(e.message) for e in entries if e.locked_by == o] for o in OWNERS
        },
        "browse": [_seen(e.message) for e in visible],
        "peek": _seen(visible[0].message) if visible else None,
    }


@settings(max_examples=300, deadline=None)
@given(queue_ops)
def test_key_indexes_never_disagree_with_the_ordered_list(op_list):
    clock = SimulatedClock()
    queue = MessageQueue("IX.Q", clock)
    driver = QueueOpDriver(clock, [queue])
    for op in op_list:
        driver.apply(op)
        observed = driver.observe(queue)
        assert observed == _linear_reference(queue, driver), op
        assert queue._entries == sorted(queue._entries, key=lambda e: e.sort_key)
        shared = {
            c for c in CORRELATIONS[1:]
            if sum(e.message.correlation_id == c for e in queue._entries) > 1
        }
        assert queue._shared_corr == len(shared)
        assert sorted(queue._locked) == sorted(
            {e.locked_by for e in queue._entries if e.locked_by is not None}
        )
