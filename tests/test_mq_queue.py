"""Unit tests for a single message queue."""

import pytest

from repro.errors import EmptyQueueError, MQError, QueueFullError
from repro.mq.message import Message
from repro.mq.queue import MessageQueue
from repro.sim.clock import SimulatedClock


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def queue(clock):
    return MessageQueue("TEST.Q", clock)


def put_bodies(queue, *bodies, **kwargs):
    return [queue.put(Message(body=body, **kwargs)) for body in bodies]


class TestBasics:
    def test_requires_name(self, clock):
        with pytest.raises(MQError):
            MessageQueue("", clock)

    def test_put_get_fifo(self, queue):
        put_bodies(queue, "a", "b", "c")
        assert [queue.get().body for _ in range(3)] == ["a", "b", "c"]

    def test_get_empty_raises(self, queue):
        with pytest.raises(EmptyQueueError):
            queue.get()

    def test_put_stamps_put_time(self, queue, clock):
        clock.set(42)
        stored = queue.put(Message(body=None))
        assert stored.put_time_ms == 42

    def test_priority_order_beats_fifo(self, queue):
        queue.put(Message(body="low", priority=1))
        queue.put(Message(body="high", priority=8))
        queue.put(Message(body="mid", priority=5))
        assert [queue.get().body for _ in range(3)] == ["high", "mid", "low"]

    def test_fifo_within_priority(self, queue):
        put_bodies(queue, "a", "b", priority=5)
        assert queue.get().body == "a"
        assert queue.get().body == "b"

    def test_depth_counts_visible(self, queue):
        put_bodies(queue, "a", "b")
        assert queue.depth() == 2
        queue.get()
        assert queue.depth() == 1

    def test_max_depth_enforced(self, clock):
        queue = MessageQueue("SMALL.Q", clock, max_depth=2)
        put_bodies(queue, 1, 2)
        with pytest.raises(QueueFullError):
            queue.put(Message(body=3))

    def test_selector_get_picks_matching(self, queue):
        queue.put(Message(body="x", properties={"n": 1}))
        queue.put(Message(body="y", properties={"n": 2}))
        got = queue.get(selector=lambda m: m.get_property("n") == 2)
        assert got.body == "y"
        assert queue.depth() == 1

    def test_selector_no_match_raises(self, queue):
        queue.put(Message(body="x", properties={"n": 1}))
        with pytest.raises(EmptyQueueError):
            queue.get(selector=lambda m: False)


class TestExpiry:
    def test_expired_messages_invisible(self, queue, clock):
        queue.put(Message(body="short", expiry_ms=100))
        queue.put(Message(body="keeper"))
        clock.set(101)
        assert queue.depth() == 1
        assert queue.get().body == "keeper"

    def test_expired_routed_to_callback(self, clock):
        expired = []
        queue = MessageQueue("E.Q", clock, on_expired=expired.append)
        queue.put(Message(body="dead", expiry_ms=10))
        clock.set(11)
        queue.depth()  # triggers a sweep
        assert [m.body for m in expired] == ["dead"]
        assert queue.stats.expired == 1

    def test_locked_messages_not_swept(self, queue, clock):
        queue.put(Message(body="locked", expiry_ms=10))
        message = queue.get(lock_owner="tx1")
        clock.set(11)
        queue.depth()
        assert queue.total_depth() == 1
        assert queue.locked_messages("tx1")[0].message_id == message.message_id


class TestBrowse:
    def test_browse_is_non_destructive(self, queue):
        put_bodies(queue, "a", "b")
        assert [m.body for m in queue.browse()] == ["a", "b"]
        assert queue.depth() == 2

    def test_browse_with_selector(self, queue):
        queue.put(Message(body="x", properties={"keep": True}))
        queue.put(Message(body="y", properties={"keep": False}))
        kept = [m.body for m in queue.browse(lambda m: m.get_property("keep"))]
        assert kept == ["x"]

    def test_browse_skips_locked(self, queue):
        put_bodies(queue, "a", "b")
        queue.get(lock_owner="tx1")
        assert [m.body for m in queue.browse()] == ["b"]

    def test_peek(self, queue):
        assert queue.peek() is None
        put_bodies(queue, "a")
        assert queue.peek().body == "a"
        assert queue.depth() == 1


class TestLocking:
    def test_locked_get_hides_message(self, queue):
        put_bodies(queue, "a")
        queue.get(lock_owner="tx1")
        assert queue.depth() == 0
        assert queue.total_depth() == 1
        with pytest.raises(EmptyQueueError):
            queue.get()

    def test_commit_locked_destroys(self, queue):
        put_bodies(queue, "a", "b")
        queue.get(lock_owner="tx1")
        committed = queue.commit_locked("tx1")
        assert [m.body for m in committed] == ["a"]
        assert queue.total_depth() == 1

    def test_rollback_restores_in_order_with_backout(self, queue):
        put_bodies(queue, "a", "b")
        queue.get(lock_owner="tx1")
        rolled = queue.rollback_locked("tx1")
        assert rolled[0].backout_count == 1
        assert queue.get().body == "a"  # original order preserved
        assert queue.stats.backouts == 1

    def test_remove_locked_targets_one_message(self, queue):
        put_bodies(queue, "a", "b")
        first = queue.get(lock_owner="tx1")
        queue.get(lock_owner="tx1")
        removed = queue.remove_locked("tx1", first.message_id)
        assert removed.body == "a"
        assert len(queue.locked_messages("tx1")) == 1

    def test_remove_locked_missing_raises(self, queue):
        with pytest.raises(EmptyQueueError):
            queue.remove_locked("tx1", "nope")

    def test_get_by_id(self, queue):
        stored = put_bodies(queue, "a", "b")[1]
        got = queue.get_by_id(stored.message_id)
        assert got.body == "b"
        with pytest.raises(EmptyQueueError):
            queue.get_by_id(stored.message_id)

    def test_commit_takes_out_of_order_locks_out_in_queue_order(self, queue):
        """Locks taken back to front, interleaved with another owner's:
        commit removes exactly the owner's entries (two separate runs
        here) and returns them in delivery order."""
        stored = put_bodies(queue, "a", "b", "c", "d", "e", "f")
        for body, owner in [("f", "tx1"), ("c", "tx2"), ("e", "tx1"),
                            ("a", "tx1"), ("b", "tx1")]:
            by_body = {m.body: m for m in stored}
            queue.get_by_id(by_body[body].message_id, lock_owner=owner)
        assert [m.body for m in queue.locked_messages("tx1")] == ["a", "b", "e", "f"]
        assert [m.body for m in queue.commit_locked("tx1")] == ["a", "b", "e", "f"]
        assert [m.body for m in queue.snapshot()] == ["c", "d"]
        assert [m.body for m in queue.rollback_locked("tx2")] == ["c"]
        assert [m.body for m in queue.browse()] == ["c", "d"]
        assert not queue.contains_id(stored[0].message_id)


class TestKeyedLookups:
    def test_find_correlated_is_ordered_visible_and_not_a_browse(self, queue, clock):
        queue.put(Message(body="low", correlation_id="k", priority=1))
        queue.put(Message(body="other", correlation_id="x"))
        queue.put(Message(body="high", correlation_id="k", priority=9))
        queue.put(Message(body="dying", correlation_id="k", expiry_ms=10))
        queue.put(Message(body="held", correlation_id="k"))
        queue.get(selector=lambda m: m.body == "held", lock_owner="tx")
        assert [m.body for m in queue.find_correlated("k")] == ["high", "dying", "low"]
        clock.advance(11)
        assert [m.body for m in queue.find_correlated("k")] == ["high", "low"]
        assert queue.find_correlated("nobody") == []
        assert queue.stats.browses == 0

    def test_contains_id_counts_locked_copies(self, queue):
        stored = put_bodies(queue, "a")[0]
        queue.get(lock_owner="tx")
        assert queue.find_by_id(stored.message_id) is None
        assert queue.contains_id(stored.message_id)
        queue.commit_locked("tx")
        assert not queue.contains_id(stored.message_id)

    def test_find_collisions_lists_only_shared_correlation_ids(self, queue):
        for body, correlation in [("a1", "a"), ("b1", "b"), ("n1", None),
                                  ("a2", "a"), ("n2", None)]:
            queue.put(Message(body=body, correlation_id=correlation))
        assert [m.body for m in queue.find_collisions()] == ["a1", "a2"]
        queue.get()  # a1 leaves: "a" is unique again
        assert queue.find_collisions() == []

    def test_duplicate_message_ids_resolve_in_delivery_order(self, queue):
        first = queue.put(Message(body="first"))
        queue.put(Message(body="second").copy(message_id=first.message_id))
        assert queue.find_by_id(first.message_id).body == "first"
        assert queue.get_by_id(first.message_id).body == "first"
        assert queue.get_by_id(first.message_id).body == "second"
        assert not queue.contains_id(first.message_id)


class TestMaintenance:
    def test_purge_spares_locked(self, queue):
        put_bodies(queue, "a", "b", "c")
        queue.get(lock_owner="tx1")
        assert queue.purge() == 2
        assert queue.total_depth() == 1

    def test_snapshot_restore_roundtrip(self, queue, clock):
        put_bodies(queue, "a", "b")
        queue.put(Message(body="hot", priority=9))
        snapshot = queue.snapshot()
        fresh = MessageQueue("TEST.Q", clock)
        fresh.restore(snapshot)
        assert [m.body for m in fresh.browse()] == ["hot", "a", "b"]

    def test_put_listener_fires(self, queue):
        seen = []
        queue.subscribe(lambda m: seen.append(m.body))
        put_bodies(queue, "a", "b")
        assert seen == ["a", "b"]

    def test_stats_accumulate(self, queue):
        put_bodies(queue, "a", "b")
        queue.get()
        list(queue.browse())
        assert queue.stats.puts == 2
        assert queue.stats.gets == 1
        assert queue.stats.browses == 1
        assert queue.stats.high_water_depth == 2


class TestIncrementalBookkeeping:
    """Regressions for depth()/is_empty() scans and the expiry watermark."""

    def test_depth_matches_maintained_count(self, queue):
        put_bodies(queue, "a", "b", "c")
        queue.get(lock_owner="tx1")
        # The visible count is maintained incrementally; depth() reads it
        # instead of re-deriving it with a scan (it used to sum() a
        # generator over the entry list on every call).
        assert queue._visible == 2
        assert queue.depth() == 2
        assert not queue.is_empty()

    def test_visible_count_tracks_every_transition(self, queue, clock):
        stored = put_bodies(queue, "a", "b", "c")
        assert queue._visible == 3
        queue.get(lock_owner="tx1")            # lock: -1
        assert queue._visible == 2
        queue.rollback_locked("tx1")           # unlock: +1
        assert queue._visible == 3
        queue.get()                            # destructive get: -1
        assert queue._visible == 2
        queue.get_by_id(stored[1].message_id)  # by-id get: -1
        assert queue._visible == 1
        queue.purge()
        assert queue._visible == 0 and queue.is_empty()

    # A removal leaves the watermark where it is (recomputing it there
    # would cost a pass over the queue per get); the one sweep that runs
    # when the clock passes a stale watermark removes nothing and makes
    # it exact again, so later accesses skip the scan.

    def test_watermark_clears_after_commit_locked(self, queue, clock):
        queue.put(Message(body="expiring", expiry_ms=clock.now_ms() + 10))
        put_bodies(queue, "forever")
        queue.get(lock_owner="tx1")  # locks the expiring message
        queue.commit_locked("tx1")   # ...and destroys it
        clock.advance(20)
        assert queue.depth() == 1  # the only expiring message is gone
        assert queue._next_expiry_ms is None
        assert queue.stats.expired == 0

    def test_watermark_recomputed_after_remove_locked(self, queue, clock):
        soon = queue.put(Message(body="soon", expiry_ms=clock.now_ms() + 10))
        later = queue.put(Message(body="later", expiry_ms=clock.now_ms() + 1000))
        queue.get_by_id(soon.message_id, lock_owner="tx1")
        queue.remove_locked("tx1", soon.message_id)
        clock.advance(20)
        assert queue.depth() == 1
        # The nearest deadline left is the "later" message.
        assert queue._next_expiry_ms == later.expiry_ms

    def test_watermark_cleared_by_purge(self, queue, clock):
        queue.put(Message(body="x", expiry_ms=clock.now_ms() + 10))
        queue.purge()
        assert queue._next_expiry_ms is None

    def test_stale_watermark_would_not_resurrect(self, queue, clock):
        # After removing the only expiring message, advancing past its
        # old deadline must not dead-letter anything or flip stats.
        queue.put(Message(body="x", expiry_ms=clock.now_ms() + 10))
        queue.get()
        clock.advance(100)
        assert queue.depth() == 0
        assert queue.stats.expired == 0
        assert queue._next_expiry_ms is None
