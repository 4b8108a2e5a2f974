"""Publish/subscribe on top of the queue substrate: topics and subscriptions.

The paper names publish/subscribe as the other messaging model that
conditional messaging applies to (section 2) and as future work
(section 4.2).  This module provides the substrate:

* a :class:`TopicBroker` owns hierarchical topics on one queue manager;
* a :class:`Subscription` binds a topic pattern (with MQTT-style
  wildcards: ``*`` or ``+`` matches one segment, ``#`` matches the rest)
  and an optional JMS selector to a per-subscription queue, from which
  the subscriber consumes with ordinary (or conditional) receive calls;
* publishing delivers an independent *copy* of the message to every
  matching subscription's queue.

Integration with the rest of the stack is queue-shaped: every topic is
backed by an **ingress queue** named ``TOPIC/<topic>``.  Anything put on
that queue — locally, over a channel from a remote queue manager, or by
the conditional messaging sender — is immediately fanned out by the
broker.  That makes a topic addressable exactly like a queue, which is
what lets a condition's :class:`~repro.core.conditions.Destination` point
at a topic without special-casing the send path.

Matching at scale
-----------------

Fan-out matching is the broker hot path: with S subscriptions a naive
broker evaluates every pattern against every published topic.  The
broker instead indexes patterns in a :class:`SubscriptionTrie` — one
node per pattern segment, with dedicated edges for the single-segment
wildcard (``*``/``+``) and subscriptions parked at their ``#`` node — so
a publish walks at most the topic's segments times the live wildcard
branches, independent of how many subscriptions share a prefix.  Match
results are memoized per topic (``match_cache_size`` entries, FIFO
eviction) and the cache is invalidated wholesale on any subscription
churn (subscribe / unsubscribe / dropped non-durables).  The original
linear scan survives as :meth:`TopicBroker.subscriptions_for_linear` —
the differential-test reference the property suite checks the trie
against — and :func:`topic_matches` remains the single-pattern
reference predicate.

Device-fleet extras (mirroring MQTT broker behaviour):

* **retained last-value state** (``retain_last=True``): the broker keeps
  the last message published on each topic and delivers a copy to every
  newly matching subscription at subscribe time, so a monitor joining
  late immediately sees the fleet's current state;
* **unknown-topic auto-registration**: publishing on an undefined topic
  defines it on the fly (device auto-discovery) and counts it
  (``BrokerStats.auto_registered`` / ``pubsub.auto_registered``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MQError, QueueFullError
from repro.mq.manager import QueueManager
from repro.mq.message import Message, new_message_id
from repro.mq.selectors import Selector, compile_selector
from repro.obs.registry import MetricsRegistry

#: Prefix of the ingress queue backing each topic.
TOPIC_QUEUE_PREFIX = "TOPIC/"

#: Prefix of auto-created per-subscription queues.
SUBSCRIPTION_QUEUE_PREFIX = "SYSTEM.SUB."

#: Segments matching exactly one topic segment.  ``*`` is this repo's
#: historical spelling, ``+`` the MQTT one; both are accepted and mean
#: the same edge in the trie.
SINGLE_WILDCARDS = ("*", "+")

#: Default number of per-topic match sets the broker memoizes.
DEFAULT_MATCH_CACHE_SIZE = 4096


def topic_queue_name(topic: str) -> str:
    """The ingress queue backing ``topic`` (how senders address it)."""
    return TOPIC_QUEUE_PREFIX + topic


def is_topic_destination(queue_name: str) -> bool:
    """True if a queue name addresses a topic ingress queue."""
    return queue_name.startswith(TOPIC_QUEUE_PREFIX)


def _validate_topic(topic: str) -> List[str]:
    if not topic or topic.startswith(".") or topic.endswith("."):
        raise MQError(f"bad topic name {topic!r}")
    segments = topic.split(".")
    if any(not s for s in segments):
        raise MQError(f"bad topic name {topic!r}")
    return segments


def validate_pattern(pattern: str) -> List[str]:
    """Validate a subscription pattern; returns its segments.

    Raises :class:`MQError` for malformed topic syntax or a ``#``
    anywhere but the final segment.  :meth:`TopicBroker.subscribe` calls
    this so a bad pattern fails fast at subscription time instead of
    poisoning every subsequent publish on the broker.
    """
    segments = _validate_topic(pattern)
    if "#" in segments[:-1]:
        raise MQError("'#' is only valid as the final topic segment")
    return segments


def _segments_match(
    pattern_segments: List[str], topic_segments: List[str]
) -> bool:
    """Match pre-split topic segments against pre-split pattern segments.

    The reference matcher behind :func:`topic_matches` and the linear
    scan (:meth:`TopicBroker.subscriptions_for_linear`); the trie is
    differential-tested against it.
    """
    for index, pattern_segment in enumerate(pattern_segments):
        if pattern_segment == "#":
            return len(topic_segments) > index
        if index >= len(topic_segments):
            return False
        if pattern_segment in SINGLE_WILDCARDS:
            continue
        if pattern_segment != topic_segments[index]:
            return False
    return len(topic_segments) == len(pattern_segments)


def topic_matches(pattern: str, topic: str) -> bool:
    """Match ``topic`` against a subscription ``pattern``.

    ``*`` (or the MQTT-style ``+``) matches exactly one segment; ``#``
    (only as the final segment) matches one or more remaining segments::

        topic_matches("px.nyse.*", "px.nyse.ibm")   -> True
        topic_matches("px.+.ibm", "px.nyse.ibm")    -> True
        topic_matches("px.#", "px.nyse.ibm")        -> True
        topic_matches("px.*", "px.nyse.ibm")        -> False

    The pattern is validated up front (:func:`validate_pattern`), so a
    mid-pattern ``#`` raises :class:`MQError` regardless of the topic —
    it cannot hide behind an early segment mismatch.
    """
    return _segments_match(validate_pattern(pattern), _validate_topic(topic))


@dataclass
class Subscription:
    """One subscriber binding on the broker."""

    name: str
    pattern: str
    queue_name: str
    selector: Optional[Selector] = None
    durable: bool = True
    delivered: int = 0
    #: ``pattern`` pre-split at subscribe time (where the pattern is
    #: validated anyway), so publishing matches against cached segments
    #: instead of re-splitting the pattern per publish.
    pattern_segments: List[str] = field(default_factory=list)
    #: Subscribe-order rank; trie matches are re-sorted by it so fan-out
    #: delivery order stays the subscription creation order the linear
    #: scan produced.
    order: int = 0

    def __post_init__(self) -> None:
        if not self.pattern_segments:
            self.pattern_segments = validate_pattern(self.pattern)


class _TrieNode:
    """One pattern segment position in the subscription trie."""

    __slots__ = ("children", "single", "terminal", "multi")

    def __init__(self) -> None:
        #: literal segment -> child node
        self.children: Dict[str, "_TrieNode"] = {}
        #: the ``*``/``+`` edge (matches exactly one topic segment)
        self.single: Optional["_TrieNode"] = None
        #: subscriptions whose pattern ends exactly at this node
        self.terminal: Dict[str, Subscription] = {}
        #: subscriptions with ``#`` at this depth (match one-or-more
        #: remaining segments, mirroring :func:`_segments_match`)
        self.multi: Dict[str, Subscription] = {}

    def is_empty(self) -> bool:
        return (
            not self.children
            and self.single is None
            and not self.terminal
            and not self.multi
        )


class SubscriptionTrie:
    """Segment-indexed pattern store with incremental add/remove.

    Literal segments are dict edges; ``*``/``+`` share one wildcard edge
    per node; a trailing ``#`` parks the subscription on the node its
    prefix reaches (it matches any topic that continues past that node).
    Matching a topic of L segments visits at most the nodes along the
    literal path plus one branch per wildcard edge crossed — it never
    touches the other subscriptions, which is what makes 10k-subscription
    fan-out cheap.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, subscription: Subscription) -> None:
        """Index a subscription under its pre-split pattern segments."""
        node = self._root
        segments = subscription.pattern_segments
        for index, segment in enumerate(segments):
            if segment == "#":
                if index != len(segments) - 1:  # pre-validated; belt+braces
                    raise MQError("'#' is only valid as the final topic segment")
                node.multi[subscription.name] = subscription
                self._size += 1
                return
            if segment in SINGLE_WILDCARDS:
                if node.single is None:
                    node.single = _TrieNode()
                node = node.single
            else:
                node = node.children.setdefault(segment, _TrieNode())
        node.terminal[subscription.name] = subscription
        self._size += 1

    def remove(self, subscription: Subscription) -> bool:
        """Un-index a subscription; prunes now-empty nodes.  True if found."""
        path: List[Tuple[_TrieNode, str]] = []
        node = self._root
        segments = subscription.pattern_segments
        bucket: Optional[Dict[str, Subscription]] = None
        for index, segment in enumerate(segments):
            if segment == "#":
                bucket = node.multi
                break
            if segment in SINGLE_WILDCARDS:
                if node.single is None:
                    return False
                path.append((node, "*"))
                node = node.single
            else:
                child = node.children.get(segment)
                if child is None:
                    return False
                path.append((node, segment))
                node = child
        else:
            bucket = node.terminal
        if bucket is None or bucket.pop(subscription.name, None) is None:
            return False
        self._size -= 1
        # Prune empty nodes bottom-up so long-dead device patterns do not
        # accumulate as memory under churn.
        while path and node.is_empty():
            parent, edge = path.pop()
            if edge == "*":
                parent.single = None
            else:
                del parent.children[edge]
            node = parent
        return True

    def match(self, topic_segments: List[str]) -> List[Subscription]:
        """All subscriptions matching the pre-split topic, subscribe-ordered."""
        found: List[Subscription] = []
        length = len(topic_segments)
        stack: List[Tuple[_TrieNode, int]] = [(self._root, 0)]
        while stack:
            node, index = stack.pop()
            if index < length:
                # '#' at this depth matches iff at least one segment remains.
                if node.multi:
                    found.extend(node.multi.values())
                child = node.children.get(topic_segments[index])
                if child is not None:
                    stack.append((child, index + 1))
                if node.single is not None:
                    stack.append((node.single, index + 1))
            elif node.terminal:
                found.extend(node.terminal.values())
        found.sort(key=lambda subscription: subscription.order)
        return found


@dataclass
class BrokerStats:
    """Broker-wide counters."""

    published: int = 0
    deliveries: int = 0
    unmatched: int = 0
    #: topics defined on the fly by a publish (device auto-discovery)
    auto_registered: int = 0
    #: retained-message copies delivered to late subscribers
    retained_deliveries: int = 0


class TopicBroker:
    """Hierarchical-topic publish/subscribe over one queue manager.

    Args:
        manager: The queue manager hosting ingress and subscription
            queues.
        retain_last: Keep the last message published per topic and
            deliver a copy to each newly matching subscription at
            subscribe time (MQTT-style retained messages).
        match_cache_size: Per-topic match-set memo capacity (FIFO
            eviction); ``0`` disables memoization (every publish walks
            the trie — the configuration the matching benchmark times).
        metrics: Counter/gauge sink; defaults to the manager's registry,
            so broker behaviour shows up in the existing obs renderers
            (``pubsub.published`` / ``pubsub.deliveries`` /
            ``pubsub.unmatched`` / ``pubsub.auto_registered`` /
            ``pubsub.retained_deliveries`` counters and the
            ``pubsub.subscriptions`` gauge).
    """

    def __init__(
        self,
        manager: QueueManager,
        retain_last: bool = False,
        match_cache_size: int = DEFAULT_MATCH_CACHE_SIZE,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if match_cache_size < 0:
            raise MQError("match_cache_size must be >= 0")
        self.manager = manager
        self.retain_last = retain_last
        self.metrics = metrics if metrics is not None else manager.metrics
        self._topics: Dict[str, bool] = {}
        self._subscriptions: Dict[str, Subscription] = {}
        self._trie = SubscriptionTrie()
        self._order = 0
        self._match_cache: "OrderedDict[str, Tuple[Subscription, ...]]" = (
            OrderedDict()
        )
        self._match_cache_size = match_cache_size
        self._retained: Dict[str, Message] = {}
        self.stats = BrokerStats()

    # -- administration -----------------------------------------------------

    def define_topic(self, topic: str) -> str:
        """Define a topic; returns its ingress queue name.

        The ingress queue is subscribed by the broker: any message landing
        there (local put or channel delivery) fans out immediately.
        """
        _validate_topic(topic)
        if topic in self._topics:
            return topic_queue_name(topic)
        ingress = topic_queue_name(topic)
        queue = self.manager.ensure_queue(ingress)
        queue.subscribe(lambda message: self._drain_ingress(topic))
        self._topics[topic] = True
        return ingress

    def topics(self) -> List[str]:
        """Defined topic names."""
        return list(self._topics)

    def subscribe(
        self,
        pattern: str,
        subscription_name: str,
        selector: Optional[str] = None,
        queue_name: Optional[str] = None,
        durable: bool = True,
    ) -> Subscription:
        """Create a subscription on a topic pattern.

        Args:
            pattern: Topic pattern, possibly with ``*``/``+``/``#``
                wildcards.
            subscription_name: Unique name (used for unsubscribe and as
                the default queue suffix).
            selector: Optional JMS selector filtering delivered messages.
            queue_name: Destination queue; default
                ``SYSTEM.SUB.<subscription_name>``.
            durable: Non-durable subscriptions are dropped by
                :meth:`drop_nondurable` (modeling subscriber disconnect).

        The pattern is validated here (:func:`validate_pattern`) so a
        malformed one — e.g. a mid-pattern ``#`` — is rejected before it
        is stored, instead of raising out of every later publish whose
        topic reaches it.  With ``retain_last`` enabled, the retained
        message of every already-known matching topic is delivered to
        the new subscription immediately (selector applied as usual).
        """
        pattern_segments = validate_pattern(pattern)
        if subscription_name in self._subscriptions:
            raise MQError(f"subscription exists: {subscription_name!r}")
        queue_name = queue_name or SUBSCRIPTION_QUEUE_PREFIX + subscription_name
        if is_topic_destination(queue_name):
            raise MQError(
                "subscription queues must be plain queues, not topic"
                " ingress queues (topic-to-topic chaining would recurse)"
            )
        self.manager.ensure_queue(queue_name)
        self._order += 1
        subscription = Subscription(
            name=subscription_name,
            pattern=pattern,
            queue_name=queue_name,
            selector=compile_selector(selector),
            durable=durable,
            pattern_segments=pattern_segments,
            order=self._order,
        )
        self._subscriptions[subscription_name] = subscription
        self._trie.add(subscription)
        self._note_churn()
        if self.retain_last and self._retained:
            self._deliver_retained(subscription)
        return subscription

    def unsubscribe(self, subscription_name: str) -> None:
        """Remove a subscription (its queue and content remain)."""
        subscription = self._subscriptions.pop(subscription_name, None)
        if subscription is not None:
            self._trie.remove(subscription)
            self._note_churn()

    def subscription(self, subscription_name: str) -> Subscription:
        """Look up a subscription."""
        try:
            return self._subscriptions[subscription_name]
        except KeyError:
            raise MQError(f"no such subscription: {subscription_name!r}") from None

    def subscription_count(self) -> int:
        """Live subscriptions on the broker."""
        return len(self._subscriptions)

    def subscriptions_for(self, topic: str) -> List[Subscription]:
        """Subscriptions whose pattern matches ``topic`` (trie-matched).

        The per-topic result is memoized until the next subscription
        churn; repeat publishes on a hot topic (a chatty device sensor)
        match in one dict lookup.
        """
        cached = self._match_cache.get(topic)
        if cached is not None:
            return list(cached)
        matches = self._trie.match(_validate_topic(topic))
        if self._match_cache_size:
            if len(self._match_cache) >= self._match_cache_size:
                self._match_cache.popitem(last=False)
            self._match_cache[topic] = tuple(matches)
        return matches

    def subscriptions_for_linear(self, topic: str) -> List[Subscription]:
        """The pre-trie linear scan, kept as the differential reference.

        Property tests (and the matching benchmark's baseline) compare
        the trie's answer against this per-subscription
        :func:`_segments_match` walk.
        """
        topic_segments = _validate_topic(topic)
        return [
            s for s in self._subscriptions.values()
            if _segments_match(s.pattern_segments, topic_segments)
        ]

    def drop_nondurable(self) -> int:
        """Drop every non-durable subscription (subscriber disconnect)."""
        doomed = [n for n, s in self._subscriptions.items() if not s.durable]
        for name in doomed:
            self._trie.remove(self._subscriptions.pop(name))
        if doomed:
            self._note_churn()
        return len(doomed)

    # -- retained state -----------------------------------------------------

    def retained(self, topic: str) -> Optional[Message]:
        """The retained (last-value) message of a topic, if any."""
        return self._retained.get(topic)

    def retained_topics(self) -> List[str]:
        """Topics currently holding retained state."""
        return list(self._retained)

    def clear_retained(self, topic: str) -> None:
        """Drop a topic's retained message."""
        self._retained.pop(topic, None)

    def _deliver_retained(self, subscription: Subscription) -> None:
        """Hand the new subscription every matching topic's last value."""
        pattern_segments = subscription.pattern_segments
        deliveries: List[Message] = []
        for topic, message in self._retained.items():
            if not _segments_match(pattern_segments, topic.split(".")):
                continue
            if subscription.selector is not None and not subscription.selector(
                message
            ):
                continue
            deliveries.append(message.copy(message_id=new_message_id()))
        if not deliveries:
            return
        self.manager.put_many(subscription.queue_name, deliveries)
        subscription.delivered += len(deliveries)
        self.stats.retained_deliveries += len(deliveries)
        self.stats.deliveries += len(deliveries)
        if self.metrics is not None:
            self.metrics.incr("pubsub.retained_deliveries", len(deliveries))
            self.metrics.incr("pubsub.deliveries", len(deliveries))

    # -- publication -----------------------------------------------------------

    def publish(self, topic: str, message: Message) -> int:
        """Deliver a copy of ``message`` to each matching subscription.

        Returns the number of copies delivered.  Each copy is an
        independent message (fresh message id) so subscribers consume
        independently; the original's correlation id and properties are
        preserved.

        The fan-out is **atomic**: copies are batched per subscription
        queue (:meth:`QueueManager.put_many`) inside one commit group, so
        the whole publish costs a single journal flush, and capacity is
        pre-checked across every target queue — a full queue raises
        :class:`~repro.errors.QueueFullError` *before* anything is
        delivered or counted, never mid-fan-out.
        """
        if topic not in self._topics:
            self.define_topic(topic)
            self.stats.auto_registered += 1
            if self.metrics is not None:
                self.metrics.incr("pubsub.auto_registered")
        self.stats.published += 1
        if self.metrics is not None:
            self.metrics.incr("pubsub.published")
        matched = self.subscriptions_for(topic)
        deliveries: List[Tuple[Subscription, Message]] = []
        for subscription in matched:
            if subscription.selector is not None and not subscription.selector(
                message
            ):
                continue
            deliveries.append(
                (subscription, message.copy(message_id=new_message_id()))
            )
        if self.retain_last:
            self._retained[topic] = message
        if deliveries:
            self._deliver_batch(deliveries)
        delivered = len(deliveries)
        if delivered == 0:
            self.stats.unmatched += 1
            if self.metrics is not None:
                self.metrics.incr("pubsub.unmatched")
        self.stats.deliveries += delivered
        if self.metrics is not None and delivered:
            self.metrics.incr("pubsub.deliveries", delivered)
        return delivered

    def _deliver_batch(
        self, deliveries: Iterable[Tuple[Subscription, Message]]
    ) -> None:
        """Store every copy, one commit group, all-or-nothing capacity."""
        by_queue: "OrderedDict[str, List[Message]]" = OrderedDict()
        for subscription, copy in deliveries:
            by_queue.setdefault(subscription.queue_name, []).append(copy)
        # Pre-flight: every target queue must fit its share of the batch
        # before anything is stored, so a full queue cannot interrupt the
        # fan-out halfway (QueueFullError used to leave earlier
        # subscribers delivered and counted, later ones not).
        for queue_name, copies in by_queue.items():
            queue = self.manager.queue(queue_name)
            if queue.capacity_remaining() < len(copies):
                raise QueueFullError(queue_name, queue.max_depth)
        with self.manager.group_commit():
            for queue_name, copies in by_queue.items():
                self.manager.put_many(queue_name, copies)
        # Per-subscription tallies move only after the whole batch is in.
        for subscription, _copy in deliveries:
            subscription.delivered += 1

    # -- internals ---------------------------------------------------------------

    def _note_churn(self) -> None:
        """Subscription set changed: drop memoized matches, update gauge."""
        self._match_cache.clear()
        if self.metrics is not None:
            self.metrics.set_gauge(
                "pubsub.subscriptions", len(self._subscriptions)
            )

    def _drain_ingress(self, topic: str) -> None:
        """Fan out everything parked on a topic's ingress queue; each take is
        journaled (in the arrival's commit group), or a restart republishes it."""
        name = topic_queue_name(topic)
        ingress = self.manager.queue(name)
        while True:
            try:
                message = ingress.get()
            except MQError:
                return
            self.publish(topic, message)
            self.manager._log_get(name, message)
