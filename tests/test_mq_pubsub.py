"""Unit tests for the publish/subscribe substrate."""

import pytest

from repro.errors import MQError, QueueFullError
from repro.mq.manager import QueueManager
from repro.mq.message import Message
import repro.mq.pubsub as pubsub_module
from repro.mq.pubsub import (
    Subscription,
    SubscriptionTrie,
    SUBSCRIPTION_QUEUE_PREFIX,
    TopicBroker,
    topic_matches,
    topic_queue_name,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def broker(manager):
    return TopicBroker(manager)


class TestTopicMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("px.nyse.ibm", "px.nyse.ibm", True),
            ("px.nyse.ibm", "px.nyse.sun", False),
            ("px.nyse.*", "px.nyse.ibm", True),
            ("px.nyse.*", "px.nyse", False),
            ("px.*", "px.nyse.ibm", False),
            ("px.*.ibm", "px.nyse.ibm", True),
            ("px.#", "px.nyse.ibm", True),
            ("px.#", "px.nyse", True),
            ("px.#", "px", False),
            ("#", "anything.at.all", True),
            ("*", "one", True),
            ("*", "one.two", False),
        ],
    )
    def test_matches(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected

    def test_hash_must_be_final(self):
        with pytest.raises(MQError):
            topic_matches("px.#.ibm", "px.nyse.ibm")

    def test_mid_pattern_hash_rejected_even_on_segment_mismatch(self):
        # The pattern is validated before matching: a mid-pattern '#'
        # must raise even when an earlier segment already disagrees
        # (previously the mismatch returned False and hid the error).
        with pytest.raises(MQError):
            topic_matches("px.#.ibm", "fx.nyse.ibm")

    @pytest.mark.parametrize("bad", ["", ".", "a.", ".a", "a..b"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(MQError):
            topic_matches(bad, "a")
        with pytest.raises(MQError):
            topic_matches("a", bad)


class TestSubscribePublish:
    def test_publish_fans_out_to_matching_subscriptions(self, broker, manager):
        broker.subscribe("px.nyse.*", "nyse-feed")
        broker.subscribe("px.#", "all-prices")
        broker.subscribe("fx.#", "fx-only")
        delivered = broker.publish("px.nyse.ibm", Message(body={"px": 120}))
        assert delivered == 2
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "nyse-feed") == 1
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "all-prices") == 1
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "fx-only") == 0

    def test_copies_are_independent_messages(self, broker, manager):
        broker.subscribe("t", "a")
        broker.subscribe("t", "b")
        broker.publish("t", Message(body="x", correlation_id="corr"))
        copy_a = manager.get(SUBSCRIPTION_QUEUE_PREFIX + "a")
        copy_b = manager.get(SUBSCRIPTION_QUEUE_PREFIX + "b")
        assert copy_a.message_id != copy_b.message_id
        assert copy_a.correlation_id == copy_b.correlation_id == "corr"
        assert copy_a.body == copy_b.body == "x"

    def test_selector_filters_deliveries(self, broker, manager):
        broker.subscribe("t", "big-only", selector="qty > 100")
        broker.publish("t", Message(body=1, properties={"qty": 50}))
        broker.publish("t", Message(body=2, properties={"qty": 500}))
        queue = SUBSCRIPTION_QUEUE_PREFIX + "big-only"
        assert [m.body for m in manager.browse(queue)] == [2]

    def test_unmatched_publication_counted(self, broker):
        broker.publish("lonely.topic", Message(body=None))
        assert broker.stats.unmatched == 1
        assert broker.stats.published == 1

    def test_unsubscribe_stops_delivery(self, broker, manager):
        broker.subscribe("t", "temp")
        broker.publish("t", Message(body=1))
        broker.unsubscribe("temp")
        broker.publish("t", Message(body=2))
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "temp") == 1

    def test_bad_pattern_rejected_at_subscribe_time(self, broker, manager):
        # Regression: a mid-pattern '#' used to be accepted here and then
        # raise out of every subsequent publish whose topic walk reached
        # it — one bad subscription poisoned the whole broker.
        broker.subscribe("px.nyse.*", "good")
        with pytest.raises(MQError):
            broker.subscribe("px.#.ibm", "bad")
        assert broker.publish("px.nyse.ibm", Message(body={"px": 1})) == 1
        with pytest.raises(MQError):
            broker.subscription("bad")  # never stored

    def test_duplicate_subscription_rejected(self, broker):
        broker.subscribe("t", "dup")
        with pytest.raises(MQError):
            broker.subscribe("t", "dup")

    def test_subscription_lookup(self, broker):
        created = broker.subscribe("t", "s1")
        assert broker.subscription("s1") is created
        with pytest.raises(MQError):
            broker.subscription("ghost")

    def test_custom_queue_name(self, broker, manager):
        broker.subscribe("t", "s1", queue_name="MY.INBOX")
        broker.publish("t", Message(body=1))
        assert manager.depth("MY.INBOX") == 1

    def test_topic_ingress_queue_rejected_as_subscription_queue(self, broker):
        with pytest.raises(MQError):
            broker.subscribe("t", "loop", queue_name=topic_queue_name("t"))

    def test_drop_nondurable(self, broker, manager):
        broker.subscribe("t", "durable")
        broker.subscribe("t", "transient", durable=False)
        assert broker.drop_nondurable() == 1
        broker.publish("t", Message(body=1))
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "durable") == 1
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "transient") == 0


class TestIngressQueue:
    def test_put_on_ingress_queue_publishes(self, broker, manager):
        broker.define_topic("alerts.fire")
        broker.subscribe("alerts.#", "all-alerts")
        manager.put(topic_queue_name("alerts.fire"), Message(body="!"))
        assert manager.depth(topic_queue_name("alerts.fire")) == 0  # drained
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "all-alerts") == 1

    def test_remote_put_reaches_subscribers(self, clock, sync_network):
        from repro.mq.manager import QueueManager

        sender = sync_network.add_manager(QueueManager("QM.S", clock))
        hub = sync_network.add_manager(QueueManager("QM.HUB", clock))
        sync_network.connect("QM.S", "QM.HUB")
        broker = TopicBroker(hub)
        broker.define_topic("news")
        broker.subscribe("news", "reader")
        sender.put_remote("QM.HUB", topic_queue_name("news"), Message(body="hi"))
        assert hub.get(SUBSCRIPTION_QUEUE_PREFIX + "reader").body == "hi"

    def test_a_restart_publishes_nothing_again(self, clock, journaled_manager):
        # The drain's get is journaled in the arrival's own commit group:
        # a restarted hub holds each published message once, on its
        # subscription queue, and nothing on the ingress queue that the
        # next arrival would fan out a second time.
        broker = TopicBroker(journaled_manager)
        broker.define_topic("news")
        broker.subscribe("news", "reader")
        flushes = journaled_manager.journal.flush_count
        for n in range(3):
            journaled_manager.put(topic_queue_name("news"), Message(body=n))
        assert journaled_manager.journal.flush_count - flushes == 3
        hub = QueueManager.recover("QM.TEST", clock, journaled_manager.journal)
        assert hub.depth(topic_queue_name("news")) == 0
        reader = SUBSCRIPTION_QUEUE_PREFIX + "reader"
        assert [m.body for m in hub.browse(reader)] == [0, 1, 2]

    def test_define_topic_idempotent(self, broker):
        first = broker.define_topic("t")
        second = broker.define_topic("t")
        assert first == second
        assert broker.topics() == ["t"]

    def test_stats_track_deliveries(self, broker):
        broker.subscribe("t", "a")
        broker.subscribe("t", "b")
        broker.publish("t", Message(body=1))
        assert broker.stats.deliveries == 2
        assert broker.subscription("a").delivered == 1


class TestCachedPatternSegments:
    """The broker splits each pattern once, at subscribe time."""

    def test_subscribe_populates_segments(self, broker):
        subscription = broker.subscribe("px.nyse.*", "nyse")
        assert subscription.pattern_segments == ["px", "nyse", "*"]

    def test_post_init_fallback_splits_the_pattern(self):
        # Hand-constructed subscriptions (tests, tooling) still get
        # segments even when the caller never passes them.
        subscription = Subscription(
            name="s", pattern="a.#", queue_name="Q.S"
        )
        assert subscription.pattern_segments == ["a", "#"]

    def test_post_init_validates_hand_built_patterns(self):
        with pytest.raises(MQError):
            Subscription(name="s", pattern="a.#.b", queue_name="Q.S")

    def test_publish_matches_without_resplitting(self, broker, monkeypatch):
        """Regression: fan-out used to call validate_pattern per publish."""
        broker.subscribe("px.nyse.*", "nyse")
        broker.subscribe("px.#", "all")
        calls = {"n": 0}
        real = pubsub_module.validate_pattern

        def counting(pattern):
            calls["n"] += 1
            return real(pattern)

        monkeypatch.setattr(pubsub_module, "validate_pattern", counting)
        for i in range(25):
            broker.publish("px.nyse.ibm", Message(body=i))
        assert calls["n"] == 0  # matching ran purely on cached segments
        assert broker.subscription("nyse").delivered == 25
        assert broker.subscription("all").delivered == 25

    def test_matching_is_indexed_at_subscribe_time(self, broker):
        # The trie indexes pattern_segments when the subscription is
        # created; mutating them afterwards does NOT re-index.  (Nobody
        # should do this — the test pins that the hot path reads the
        # trie, not the per-subscription segment list.)
        subscription = broker.subscribe("px.nyse.*", "nyse")
        subscription.pattern_segments = ["px", "lse", "*"]
        broker.publish("px.lse.vod", Message(body=2))
        assert subscription.delivered == 0
        broker.publish("px.nyse.ibm", Message(body=1))
        assert subscription.delivered == 1


class TestSubscriptionTrie:
    """Direct trie coverage (the broker exercises it indirectly)."""

    def sub(self, pattern, name, order):
        return Subscription(
            name=name, pattern=pattern, queue_name=f"Q.{name}", order=order
        )

    def test_plus_and_star_share_the_wildcard_edge(self):
        trie = SubscriptionTrie()
        trie.add(self.sub("px.+.ibm", "plus", 1))
        trie.add(self.sub("px.*.ibm", "star", 2))
        matched = trie.match(["px", "nyse", "ibm"])
        assert [s.name for s in matched] == ["plus", "star"]

    def test_matches_come_back_in_subscribe_order(self):
        trie = SubscriptionTrie()
        trie.add(self.sub("px.#", "late", 9))
        trie.add(self.sub("px.nyse.ibm", "early", 1))
        trie.add(self.sub("px.*.ibm", "middle", 5))
        matched = trie.match(["px", "nyse", "ibm"])
        assert [s.name for s in matched] == ["early", "middle", "late"]

    def test_hash_needs_at_least_one_more_segment(self):
        trie = SubscriptionTrie()
        trie.add(self.sub("px.#", "tail", 1))
        assert trie.match(["px"]) == []
        assert [s.name for s in trie.match(["px", "nyse"])] == ["tail"]

    def test_remove_prunes_empty_branches(self):
        trie = SubscriptionTrie()
        deep = self.sub("a.b.c.d.e", "deep", 1)
        trie.add(deep)
        trie.add(self.sub("a.x", "shallow", 2))
        assert trie.remove(deep) is True
        assert len(trie) == 1
        # The whole a.b.c.d.e spine is gone; only the a.x branch remains.
        root = trie._root
        assert list(root.children) == ["a"]
        assert list(root.children["a"].children) == ["x"]

    def test_remove_unknown_subscription_is_false(self):
        trie = SubscriptionTrie()
        trie.add(self.sub("a.b", "known", 1))
        assert trie.remove(self.sub("a.z", "ghost", 2)) is False
        assert trie.remove(self.sub("zz.*", "ghost2", 3)) is False
        assert len(trie) == 1


class TestMatchCache:
    def test_repeat_lookup_hits_the_memo(self, broker, monkeypatch):
        broker.subscribe("t.*", "watch")
        first = broker.subscriptions_for("t.x")
        monkeypatch.setattr(
            broker._trie,
            "match",
            lambda segments: pytest.fail("cached topic re-walked the trie"),
        )
        assert [s.name for s in broker.subscriptions_for("t.x")] == [
            s.name for s in first
        ]

    def test_churn_invalidates_the_cache(self, broker):
        broker.subscribe("t.*", "first")
        assert len(broker.subscriptions_for("t.x")) == 1
        broker.subscribe("t.#", "second")
        assert len(broker.subscriptions_for("t.x")) == 2
        broker.unsubscribe("first")
        assert [s.name for s in broker.subscriptions_for("t.x")] == ["second"]

    def test_drop_nondurable_invalidates_the_cache(self, broker):
        broker.subscribe("t.*", "transient", durable=False)
        assert len(broker.subscriptions_for("t.x")) == 1
        broker.drop_nondurable()
        assert broker.subscriptions_for("t.x") == []

    def test_zero_cache_size_disables_memoization(self, manager):
        broker = TopicBroker(manager, match_cache_size=0)
        broker.subscribe("t.*", "watch")
        broker.subscriptions_for("t.x")
        assert broker._match_cache == {}

    def test_cache_evicts_fifo_at_capacity(self, manager):
        broker = TopicBroker(manager, match_cache_size=2)
        broker.subscribe("t.#", "watch")
        for topic in ("t.a", "t.b", "t.c"):
            broker.subscriptions_for(topic)
        assert list(broker._match_cache) == ["t.b", "t.c"]

    def test_negative_cache_size_rejected(self, manager):
        with pytest.raises(MQError):
            TopicBroker(manager, match_cache_size=-1)


class TestRetainedMessages:
    @pytest.fixture
    def retaining(self, manager):
        return TopicBroker(manager, retain_last=True)

    def test_late_subscriber_receives_last_value(self, retaining, manager):
        retaining.publish("room.temp", Message(body=19))
        retaining.publish("room.temp", Message(body=21))
        subscription = retaining.subscribe("room.*", "late")
        copies = list(manager.browse(subscription.queue_name))
        assert [m.body for m in copies] == [21]
        assert subscription.delivered == 1
        assert retaining.stats.retained_deliveries == 1

    def test_retained_copy_has_fresh_message_id(self, retaining, manager):
        retaining.publish("room.temp", Message(body=21))
        retained = retaining.retained("room.temp")
        subscription = retaining.subscribe("room.temp", "late")
        copy = manager.get(subscription.queue_name)
        assert copy.message_id != retained.message_id
        assert copy.body == retained.body

    def test_selector_filters_retained_catchup(self, retaining, manager):
        retaining.publish("a", Message(body=1, properties={"qty": 5}))
        retaining.publish("b", Message(body=2, properties={"qty": 500}))
        subscription = retaining.subscribe("#", "big", selector="qty > 100")
        assert [m.body for m in manager.browse(subscription.queue_name)] == [2]

    def test_retained_topics_and_clear(self, retaining):
        retaining.publish("a", Message(body=1))
        retaining.publish("b", Message(body=2))
        assert sorted(retaining.retained_topics()) == ["a", "b"]
        retaining.clear_retained("a")
        assert retaining.retained("a") is None
        assert retaining.subscribe("#", "late").delivered == 1

    def test_disabled_by_default(self, broker, manager):
        broker.publish("a", Message(body=1))
        subscription = broker.subscribe("a", "late")
        assert manager.depth(subscription.queue_name) == 0
        assert broker.retained("a") is None


class TestAtomicFanout:
    def test_full_queue_aborts_before_any_delivery(self, broker, manager):
        broker.subscribe("t", "wide")
        manager.ensure_queue("TINY", max_depth=1)
        manager.put("TINY", Message(body="filler"))
        broker.subscribe("t", "narrow", queue_name="TINY")
        with pytest.raises(QueueFullError):
            broker.publish("t", Message(body=1))
        # Nothing was delivered anywhere — not even to the healthy queue.
        assert manager.depth(SUBSCRIPTION_QUEUE_PREFIX + "wide") == 0
        assert broker.subscription("wide").delivered == 0
        assert broker.subscription("narrow").delivered == 0
        assert broker.stats.deliveries == 0

    def test_batch_larger_than_remaining_capacity_aborts(self, manager):
        broker = TopicBroker(manager, retain_last=True)
        manager.ensure_queue("TIGHT", max_depth=1)
        broker.publish("a", Message(body=1))
        broker.publish("b", Message(body=2))
        # Retained catch-up for '#' wants two copies into a depth-1 queue.
        with pytest.raises(QueueFullError):
            broker.subscribe("#", "late", queue_name="TIGHT")

    def test_publish_is_one_commit_group(self, journaled_manager):
        broker = TopicBroker(journaled_manager)
        broker.define_topic("t")  # so the publish isn't also registering
        for i in range(5):
            broker.subscribe("t", f"s{i}")
        flushes_before = journaled_manager.journal.flush_count
        broker.publish("t", Message(body=1))
        assert journaled_manager.journal.flush_count == flushes_before + 1


class TestAutoRegistration:
    def test_publish_on_unknown_topic_defines_and_counts_it(self, broker):
        assert broker.topics() == []
        broker.publish("new.device.temp", Message(body=1))
        assert broker.topics() == ["new.device.temp"]
        assert broker.stats.auto_registered == 1
        broker.publish("new.device.temp", Message(body=2))
        assert broker.stats.auto_registered == 1  # only the first time

    def test_predefined_topic_not_counted(self, broker):
        broker.define_topic("known")
        broker.publish("known", Message(body=1))
        assert broker.stats.auto_registered == 0

    def test_auto_registered_topic_is_addressable(self, broker, manager):
        broker.subscribe("auto.#", "watch")
        broker.publish("auto.x", Message(body=1))
        # The ingress queue now exists and fans out like a defined topic.
        manager.put(topic_queue_name("auto.x"), Message(body=2))
        queue = SUBSCRIPTION_QUEUE_PREFIX + "watch"
        assert [m.body for m in manager.browse(queue)] == [1, 2]


class TestBrokerMetrics:
    @pytest.fixture
    def metered(self, clock):
        metrics = MetricsRegistry()
        manager = QueueManager("QM.MET", clock, metrics=metrics)
        return TopicBroker(manager, retain_last=True), metrics

    def test_counters_and_gauge(self, metered):
        broker, metrics = metered
        broker.subscribe("t.*", "watch")
        assert metrics.gauge("pubsub.subscriptions") == 1
        broker.publish("t.x", Message(body=1))
        broker.publish("lonely", Message(body=2))
        assert metrics.counter("pubsub.published") == 2
        assert metrics.counter("pubsub.deliveries") == 1
        assert metrics.counter("pubsub.unmatched") == 1
        assert metrics.counter("pubsub.auto_registered") == 2
        broker.subscribe("t.#", "late")  # retained catch-up delivers t.x
        assert metrics.counter("pubsub.retained_deliveries") == 1
        assert metrics.gauge("pubsub.subscriptions") == 2
        broker.unsubscribe("watch")
        assert metrics.gauge("pubsub.subscriptions") == 1

    def test_defaults_to_manager_registry(self, metered):
        broker, metrics = metered
        assert broker.metrics is metrics

    def test_explicit_registry_overrides(self, manager):
        private = MetricsRegistry()
        broker = TopicBroker(manager, metrics=private)
        broker.publish("t", Message(body=1))
        assert private.counter("pubsub.published") == 1
