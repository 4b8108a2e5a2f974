"""Sender-side conditional messaging service (paper section 2.7, Fig. 9).

The facade an application uses to send conditional messages.  It wires
together:

* message generation (:mod:`repro.core.sender`),
* the persistent system queues ``DS.SLOG.Q`` (sender log), ``DS.ACK.Q``
  (incoming acknowledgments), ``DS.COMP.Q`` (staged compensations) and
  ``DS.OUTCOME.Q`` (outcome notifications),
* the evaluation manager (:mod:`repro.core.evaluation`),
* the compensation manager and success notifications
  (:mod:`repro.core.compensation`, section 2.6),
* optional deferral of outcome actions to a Dependency-Sphere
  (:mod:`repro.dsphere`).

"The conditional messaging API is a simple indirection to standard
messaging middleware" — applications keep direct access to the underlying
queue manager for unconditional traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.compensation import CompensationManager
from repro.core.conditions import Condition
from repro.core.evaluation import EvaluationManager
from repro.core.ids import new_conditional_message_id
from repro.core.logqueues import (
    ACK_QUEUE,
    COMPENSATION_QUEUE,
    OUTCOME_QUEUE,
    SENDER_LOG_QUEUE,
    SenderLogEntry,
)
from repro.core.outcome import MessageOutcome, OutcomeRecord
from repro.core.sender import generate_send, generate_success_notifications
from repro.core.serialize import condition_from_dict, condition_to_dict
from repro.errors import UnknownConditionalMessageError
from repro.mq.manager import QueueManager
from repro.sim.scheduler import EventScheduler

#: Extra evaluation time granted beyond the largest condition deadline
#: when the application specifies no explicit timeout.  Mirrors the
#: paper's Example 2, where a 20-second condition gets a 21-second
#: evaluation timeout to let in-flight acknowledgments land.
DEFAULT_EVALUATION_GRACE_MS = 1_000


@dataclass
class ServiceStats:
    """Counters for tests and benchmark reporting."""

    conditional_sends: int = 0
    standard_messages_generated: int = 0
    compensations_staged: int = 0
    success_notifications_sent: int = 0
    compensations_released: int = 0


class ConditionalMessagingService:
    """The sender-side conditional messaging system.

    Args:
        manager: The sender application's queue manager.
        scheduler: Simulation scheduler; enables deadline-driven
            evaluation timeouts.  Without one, call :meth:`poll`
            periodically (synchronous deployments).
        notify_success: Send success notifications to all destinations on
            message success (section 2.6; off by default — the paper says
            the system "can" send them).
        evaluation_grace_ms: Slack added to the largest condition deadline
            to form the default evaluation timeout.

    Observability (tracer and metrics registry, :mod:`repro.obs`) is
    inherited from ``manager`` — give the queue manager a
    :class:`~repro.obs.trace.FlightRecorder` and every hop of each
    conditional message sent through this service is traced.
    """

    def __init__(
        self,
        manager: QueueManager,
        scheduler: Optional[EventScheduler] = None,
        notify_success: bool = False,
        evaluation_grace_ms: int = DEFAULT_EVALUATION_GRACE_MS,
        ack_queue: str = ACK_QUEUE,
        slog_queue: str = SENDER_LOG_QUEUE,
        comp_queue: str = COMPENSATION_QUEUE,
        outcome_queue: str = OUTCOME_QUEUE,
        push_evaluation: bool = True,
    ) -> None:
        self.manager = manager
        self.scheduler = scheduler
        self.notify_success = notify_success
        self.evaluation_grace_ms = evaluation_grace_ms
        self.ack_queue = ack_queue
        self.slog_queue = slog_queue
        self.outcome_queue = outcome_queue
        manager.ensure_queue(slog_queue)
        manager.ensure_queue(outcome_queue)
        self.compensation = CompensationManager(manager, comp_queue)
        self.evaluation = EvaluationManager(
            manager,
            ack_queue,
            on_decided=self._on_decided,
            scheduler=scheduler,
            push=push_evaluation,
        )
        self.stats = ServiceStats()
        #: cmid -> deferral callback installed by a Dependency-Sphere
        self._deferrals: Dict[str, Callable[[OutcomeRecord], None]] = {}
        #: cmid -> condition (needed for success notifications / D-Spheres)
        self._conditions: Dict[str, Condition] = {}
        self._send_times: Dict[str, int] = {}

    # -- the conditional messaging API (paper section 2.3) ---------------------

    def send_message(
        self,
        body: Any,
        condition: Condition,
        compensation: Any = None,
        evaluation_timeout_ms: Optional[int] = None,
        stage_compensation: bool = True,
        _defer_actions: Optional[Callable[[OutcomeRecord], None]] = None,
    ) -> str:
        """Send a conditional message; returns its conditional message id.

        This is the paper's ``sendMessage(Object, Condition)``; passing
        ``compensation`` data makes it the
        ``sendMessage(Object, Object, Condition)`` form with
        application-defined compensation support.

        The condition is validated, the standard messages are generated
        and dispatched, compensation messages are staged on DS.COMP.Q, a
        sender log entry is written to DS.SLOG.Q, and evaluation starts
        immediately.
        """
        condition.validate(self.manager.name)
        cmid = new_conditional_message_id()
        send_time = self.manager.clock.now_ms()

        generated = generate_send(
            body=body,
            root=condition,
            cmid=cmid,
            send_time_ms=send_time,
            sender_manager=self.manager.name,
            ack_queue=self.ack_queue,
            compensation_body=compensation,
            stage_compensation=stage_compensation,
            tracer=self.manager.tracer,
        )

        timeout = self._effective_timeout(condition, evaluation_timeout_ms)

        log_entry = SenderLogEntry(
            cmid=cmid,
            send_time_ms=send_time,
            condition=condition_to_dict(condition),
            destinations=[
                {"manager": r.manager, "queue": r.queue} for r in generated.resolved
            ],
            evaluation_timeout_ms=timeout,
            has_compensation=stage_compensation,
        )

        # Durability order matters: compensation and log first, so a crash
        # after any destination received the original can always compensate.
        # Every journal record the fan-out produces — compensation staging,
        # the sender-log entry, and the transmission-queue parking of the
        # data messages — lands in ONE group-committed flush (Gray's group
        # commit) instead of one flush per record.  The network holds any
        # synchronous cross-manager transfer until that group is durable
        # (Journal.post_commit), so no destination can receive the
        # original while the records that make it compensatable are still
        # buffered.
        with self.manager.group_commit():
            self.compensation.stage(generated.compensations)
            self.manager.put(self.slog_queue, log_entry.to_message())
            for manager_name, queue_name, batch in generated.outgoing_by_target():
                if (
                    manager_name == self.manager.name
                    and self.manager.has_queue(queue_name)
                ):
                    # Local fan-out (e.g. multi-copy shared-queue leaves):
                    # one sorted splice and one journal record group.
                    self.manager.put_many(queue_name, batch)
                else:
                    for message in batch:
                        self.manager.put_remote(manager_name, queue_name, message)

        self._conditions[cmid] = condition
        self._send_times[cmid] = send_time
        if _defer_actions is not None:
            self._deferrals[cmid] = _defer_actions
        self.evaluation.register(cmid, condition, send_time, timeout)

        self.stats.conditional_sends += 1
        self.stats.standard_messages_generated += len(generated.outgoing)
        self.stats.compensations_staged += len(generated.compensations)
        return cmid

    # -- outcome access -------------------------------------------------------------

    def outcome(self, cmid: str) -> Optional[OutcomeRecord]:
        """The decided outcome for ``cmid``, or ``None`` while pending."""
        return self.evaluation.record(cmid).decided

    def poll(self) -> int:
        """Drive timeouts in scheduler-less mode; returns newly decided."""
        self.evaluation.pump()
        return self.evaluation.poll()

    def poll_outcome_notifications(self) -> List[OutcomeRecord]:
        """Drain DS.OUTCOME.Q (how an application observes outcomes)."""
        outcomes: List[OutcomeRecord] = []
        while True:
            message = self.manager.get_wait(self.outcome_queue)
            if message is None:
                return outcomes
            outcomes.append(OutcomeRecord.from_message(message))

    def pending_count(self) -> int:
        """Messages still awaiting their outcome."""
        return self.evaluation.pending_count()

    # -- outcome actions (paper section 2.6) -----------------------------------------

    # -- crash recovery (paper §2.6 reliability + ref [16] patterns) -----------------

    def recover_from_log(self) -> int:
        """Resume evaluation of every undecided message after a restart.

        DS.SLOG.Q is a *recovery* log: an entry is written before the
        standard messages go out and removed once the outcome is decided,
        so after a crash the remaining entries are exactly the in-flight
        conditional messages.  For each one this re-registers the
        evaluation with the *original* send time and timeout (deadlines
        keep their meaning across the crash), then drains any
        acknowledgments that accumulated on the persistent DS.ACK.Q while
        the sender was down.  Messages whose evaluation timeout passed
        during the outage decide (and compensate) immediately.

        Returns the number of evaluations resumed.  Typical use::

            manager = QueueManager.recover("QM.S", clock, journal)
            service = ConditionalMessagingService(manager, scheduler=sched)
            service.recover_from_log()
        """
        resumed = 0
        for message in list(self.manager.browse(self.slog_queue)):
            entry = SenderLogEntry.from_message(message)
            condition = condition_from_dict(entry.condition)
            self._conditions[entry.cmid] = condition
            self._send_times[entry.cmid] = entry.send_time_ms
            self.evaluation.register(
                entry.cmid,
                condition,
                entry.send_time_ms,
                entry.evaluation_timeout_ms,
            )
            resumed += 1
        self.evaluation.pump()
        return resumed

    def _on_decided(self, record: OutcomeRecord) -> None:
        deferral = self._deferrals.pop(record.cmid, None)
        with self.manager.group_commit():
            # The informational outcome notification always lands on
            # DS.OUTCOME.Q as soon as evaluation completes (section 2.5).
            self.manager.put(self.outcome_queue, record.to_message())
            # The recovery-log entry has served its purpose (see
            # recover_from_log); drop it so the log tracks in-flight messages.
            self._remove_log_entry(record.cmid)
            if deferral is None:
                # Outcome actions join the decision's commit group: were
                # the sender-log removal durable while the compensation
                # release/discard was not, a crash here would strand
                # staged compensations with no log entry left to re-drive
                # them.  One group makes decision and actions atomic.
                self.apply_outcome_actions(record.cmid, record.outcome)
        if deferral is not None:
            # Part of a Dependency-Sphere: outcome actions wait for the
            # sphere's group outcome (section 3.1).
            deferral(record)

    def apply_outcome_actions(self, cmid: str, outcome: MessageOutcome) -> None:
        """Run compensation/success actions for a decided message.

        Called internally for standalone messages, and by the
        Dependency-Sphere coordinator for grouped ones (with the *group*
        outcome, which may differ from the message's own).
        """
        if outcome is MessageOutcome.FAILURE:
            released = self.compensation.release(cmid)
            self.stats.compensations_released += released
            self.forget(cmid)
        else:
            self.compensation.discard(cmid)
            if self.notify_success:
                self.send_success_notifications(cmid)
                # Notifications sent: nothing further needs the condition.
                self.forget(cmid)
            # With notify_success off, the bookkeeping is retained so the
            # application can still call send_success_notifications
            # explicitly; call forget() when done with the message.

    def forget(self, cmid: str) -> None:
        """Drop per-message bookkeeping (bounds a long-running sender's
        memory).  Automatic after failure actions and after success
        notifications; call explicitly for successes you will not notify."""
        self._conditions.pop(cmid, None)
        self._send_times.pop(cmid, None)

    def send_success_notifications(self, cmid: str) -> int:
        """Send success notifications to every destination of ``cmid``."""
        condition = self._conditions.get(cmid)
        if condition is None:
            raise UnknownConditionalMessageError(cmid)
        notifications = generate_success_notifications(
            condition,
            cmid,
            self._send_times[cmid],
            self.manager.name,
            self.ack_queue,
        )
        for manager_name, queue_name, message in notifications:
            self.manager.put_remote(manager_name, queue_name, message)
        self.stats.success_notifications_sent += len(notifications)
        return len(notifications)

    # -- internals -------------------------------------------------------------------

    def _remove_log_entry(self, cmid: str) -> None:
        # The entry carries correlation_id = cmid: a keyed lookup, then a
        # journaled removal like any consume.
        entries = self.manager.find_correlated(self.slog_queue, cmid)
        if entries:
            self.manager.get_by_id(self.slog_queue, entries[0].message_id)

    def _effective_timeout(
        self, condition: Condition, explicit: Optional[int]
    ) -> Optional[int]:
        """Resolve the evaluation timeout for a send.

        Precedence: explicit argument, then the condition root's
        ``evaluation_timeout`` attribute, then the largest deadline in
        the tree plus the grace period.  A condition with no deadlines
        gets no timeout (it either decides on acknowledgments alone or —
        if it has unbounded anonymous minimums — the application must
        bound it explicitly).
        """
        if explicit is not None:
            return explicit
        if condition.evaluation_timeout is not None:
            return condition.evaluation_timeout
        max_deadline = condition.max_deadline()
        if max_deadline is not None:
            return max_deadline + self.evaluation_grace_ms
        return None
