"""Testbed assembly and the paper's two running example conditions.

A :class:`Testbed` is a complete single-process deployment of the
conditional messaging architecture (Figure 9): one sender queue manager
with the full sender-side service, any number of receiver queue managers
wired over channels with configurable latency, and per-receiver
conditional messaging receivers.  All timing is virtual, driven by the
shared scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.conditions import DestinationSet
from repro.core.builder import destination, destination_set
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.dsphere.coordinator import DSphereService
from repro.mq.manager import QueueManager
from repro.mq.network import MessageNetwork
from repro.mq.persistence import Journal, MemoryJournal
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.objects.txmanager import TransactionManager
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler

#: Useful virtual-time constants for scenario definitions.
SECOND_MS = 1_000
MINUTE_MS = 60 * SECOND_MS
HOUR_MS = 60 * MINUTE_MS
DAY_MS = 24 * HOUR_MS


@dataclass
class ReceiverNode:
    """One receiver endpoint in a testbed."""

    name: str
    manager: QueueManager
    receiver: ConditionalMessagingReceiver
    txmanager: TransactionManager = field(default_factory=TransactionManager)


class Testbed:
    """A complete conditional-messaging deployment in one process.

    Args:
        receiver_names: Logical receiver names; each gets its own queue
            manager ``QM.<name>``, connected to the sender with
            ``latency_ms``/``jitter_ms``/``loss_rate`` channels, and a
            conditional messaging receiver whose recipient id is the
            logical name.
        journaled: Give every queue manager a memory journal (enables
            crash/recovery experiments at some bookkeeping cost).
        journal_sync: Sync policy for those journals (``"always"`` /
            ``"batch"`` / ``"none"``); commit-group accounting is the
            same under every policy, so benchmarks can compare flush
            counts without touching a disk.
        tracer: A lifecycle tracer (e.g. a
            :class:`~repro.obs.trace.FlightRecorder`) wired through every
            queue manager and the network, so one recorder sees the full
            cross-manager path of each conditional message.
        metrics: A shared :class:`~repro.obs.registry.MetricsRegistry`
            collecting counters, depth gauges, and latency histograms
            across the whole deployment.
    """

    SENDER = "QM.SENDER"
    __test__ = False  # not a pytest test class, despite living near tests

    def __init__(
        self,
        receiver_names: List[str],
        latency_ms: int = 10,
        jitter_ms: int = 0,
        loss_rate: float = 0.0,
        seed: int = 0,
        journaled: bool = False,
        journal_sync: str = "always",
        journal_factory: Optional[Callable[[str], Journal]] = None,
        notify_success: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock = SimulatedClock()
        self.scheduler = EventScheduler(self.clock)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.network = MessageNetwork(
            scheduler=self.scheduler, seed=seed, tracer=self.tracer
        )
        self.journals: Dict[str, Journal] = {}
        self.journal_sync = journal_sync
        #: manager name -> journal; lets deployments pick the store per
        #: manager (the chaos harness gives torn-tail episodes real
        #: :class:`~repro.mq.persistence.FileJournal` files, and
        #: :func:`~repro.mq.persistence.journal_factory_for` derives a
        #: factory for any registered backend).  Only consulted when
        #: ``journaled`` is true.
        self.journal_factory = journal_factory
        self.sender_manager = self._make_manager(self.SENDER, journaled)
        self.network.add_manager(self.sender_manager)
        self.service = ConditionalMessagingService(
            self.sender_manager,
            scheduler=self.scheduler,
            notify_success=notify_success,
        )
        self.sender_txmanager = TransactionManager()
        self.dsphere = DSphereService(
            self.service,
            txmanager=self.sender_txmanager,
            scheduler=self.scheduler,
        )
        self.receivers: Dict[str, ReceiverNode] = {}
        for name in receiver_names:
            manager = self._make_manager(f"QM.{name}", journaled)
            self.network.add_manager(manager)
            self.network.connect(
                self.SENDER,
                f"QM.{name}",
                latency_ms=latency_ms,
                jitter_ms=jitter_ms,
                loss_rate=loss_rate,
            )
            self.receivers[name] = ReceiverNode(
                name=name,
                manager=manager,
                receiver=ConditionalMessagingReceiver(manager, recipient_id=name),
            )

    def _make_manager(self, name: str, journaled: bool) -> QueueManager:
        journal: Optional[Journal] = None
        if journaled:
            journal = (
                self.journal_factory(name)
                if self.journal_factory is not None
                else MemoryJournal(sync=self.journal_sync)
            )
        if journal is not None:
            self.journals[name] = journal
        return QueueManager(
            name,
            self.clock,
            journal=journal,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    # -- conveniences ------------------------------------------------------------

    def receiver(self, name: str) -> ConditionalMessagingReceiver:
        """The conditional receiver for a logical name."""
        return self.receivers[name].receiver

    def manager_of(self, name: str) -> QueueManager:
        """The queue manager for a logical receiver name."""
        return self.receivers[name].manager

    def queue_of(self, name: str) -> str:
        """Conventional inbox queue name for a receiver."""
        return f"Q.{name}"

    def run_until(self, until_ms: int) -> int:
        """Advance virtual time (scheduler passthrough)."""
        return self.scheduler.run_until(until_ms)

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Run until the deployment quiesces."""
        return self.scheduler.run_all(max_events=max_events)

    def at(self, delay_ms: int, action) -> None:
        """Schedule an application action at ``now + delay_ms``."""
        self.scheduler.call_later(delay_ms, action)


# ---------------------------------------------------------------------------
# The paper's running examples (sections 1 and 2.1)
# ---------------------------------------------------------------------------


def build_example1_condition(
    testbed: Testbed,
    pick_up_window_ms: int = 2 * DAY_MS,
    r3_processing_ms: int = 7 * DAY_MS,
    subset_processing_ms: int = 11 * DAY_MS,
    min_subset_processing: int = 2,
) -> DestinationSet:
    """Example 1 (Figures 1 and 4): the group-meeting notification.

    Four named recipients on four queues; all must acknowledge receipt
    within the pick-up window; Receiver3 must process within its own
    deadline; at least ``min_subset_processing`` of the other three must
    process within the subset deadline.

    The receivers named R1..R4 must exist in ``testbed``.
    """
    def leaf(name: str, **kwargs) -> "destination":
        return destination(
            testbed.queue_of(name),
            manager=f"QM.{name}",
            recipient=name,
            **kwargs,
        )

    return destination_set(
        leaf("R3", msg_processing_time=r3_processing_ms),
        destination_set(
            leaf("R1"),
            leaf("R2"),
            leaf("R4"),
            msg_processing_time=subset_processing_ms,
            min_nr_processing=min_subset_processing,
        ),
        msg_pick_up_time=pick_up_window_ms,
    )


def build_example2_condition(
    shared_queue: str = "Q.CENTRAL",
    manager: str = "QM.TOWER",
    pick_up_window_ms: int = 20 * SECOND_MS,
    evaluation_timeout_ms: int = 21 * SECOND_MS,
) -> DestinationSet:
    """Example 2 (Figures 2 and 5): the incoming-flight message.

    One shared queue read by several controllers; any one controller must
    pick the message up within the window; the evaluation terminates one
    second later, exactly as in the paper's section 2.5 discussion.
    """
    return destination_set(
        destination(
            shared_queue, manager=manager, msg_pick_up_time=pick_up_window_ms
        ),
        evaluation_timeout=evaluation_timeout_ms,
    )
