"""The evaluation manager (paper section 2.5).

"The conditional messaging system comprises an evaluation manager that
reads incoming acknowledgment messages of the designated acknowledgment
queue and interprets them accordingly."  The manager:

* keeps one :class:`EvaluationRecord` per in-flight conditional message;
* drains ``DS.ACK.Q`` (it subscribes to the queue, so acknowledgments are
  processed the moment the middleware delivers them), sorting
  acknowledgments to the right record by conditional message id;
* keeps a :class:`~repro.core.satisfaction.ConditionTracker` per pending
  record, built at its first acknowledgment: each acknowledgment moves
  its counters on one leaf-to-root path, O(depth) whatever the fan-out,
  and a SATISFIED state decides with no reasons (reasons name only
  contributors that are not SATISFIED);
* names the reasons once per message, from the tracker — at a violation
  or at the evaluation timeout;
* on a final state, emits an :class:`~repro.core.outcome.OutcomeRecord`
  through a callback (the service turns it into outcome notifications and
  outcome actions).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.acks import Acknowledgment, acks_from_message
from repro.core.conditions import Condition
from repro.core.outcome import MessageOutcome, OutcomeRecord
from repro.core.satisfaction import ConditionTracker, EvalState
# Not called here: kept importable from this module, where profilers
# look it up by name to wrap it.
from repro.core.satisfaction import evaluate_condition  # noqa: F401
from repro.errors import UnknownConditionalMessageError
from repro.mq.manager import QueueManager
from repro.obs.trace import STAGE_EVALUATE, STAGE_OUTCOME
from repro.sim.scheduler import EventScheduler, ScheduledEvent


@dataclass
class EvaluationRecord:
    """Evaluation state for one in-flight conditional message."""

    cmid: str
    condition: Condition
    send_time_ms: int
    evaluation_timeout_ms: Optional[int]
    acks: List[Acknowledgment] = field(default_factory=list)
    decided: Optional[OutcomeRecord] = None
    #: Incremental condition state, from the first acknowledgment to the
    #: decision.  A restart re-registers every in-flight message at once;
    #: trackers for all of them, alive and unacknowledged, would cost it
    #: a second full garbage-collection pass.  Decided records are kept,
    #: their trackers are not.
    tracker: Optional[ConditionTracker] = None
    timeout_event: Optional[ScheduledEvent] = None
    #: Registration generation stamped by the manager.  Timeout-wheel
    #: entries and scheduler timeout events carry the generation of the
    #: record they were armed for, so a stale entry surviving a cmid
    #: re-registration (e.g. recovery re-driving DS.SLOG.Q) can never
    #: fire against the newer record.
    generation: int = 0

    @property
    def pending(self) -> bool:
        """True while no final outcome has been decided."""
        return self.decided is None


@dataclass
class EvaluationStats:
    """Counters for benchmark reporting."""

    acks_processed: int = 0
    evaluations_run: int = 0
    decided_success: int = 0
    decided_failure: int = 0
    decided_by_timeout: int = 0


class EvaluationManager:
    """Correlates acknowledgments and decides message outcomes."""

    def __init__(
        self,
        manager: QueueManager,
        ack_queue: str,
        on_decided: Callable[[OutcomeRecord], None],
        scheduler: Optional[EventScheduler] = None,
        push: bool = True,
    ) -> None:
        """``push=True`` (default) subscribes to the ack queue so every
        arriving acknowledgment is evaluated immediately; ``push=False``
        leaves acks parked until :meth:`pump`/:meth:`poll` — the polled
        deployment mode the ablation benchmarks compare against."""
        self.manager = manager
        self.ack_queue = ack_queue
        self.scheduler = scheduler
        self._on_decided = on_decided
        self._records: Dict[str, EvaluationRecord] = {}
        #: maintained count of undecided records — pending_count() is O(1)
        self._pending = 0
        #: monotonic registration counter backing EvaluationRecord.generation
        self._generations = 0
        #: timeout wheel: min-heap of (evaluation deadline, cmid,
        #: generation).  Between acknowledgment arrivals a record's
        #: evaluation result can only change when the clock crosses its
        #: evaluation deadline (the satisfaction algorithm consults "now"
        #: exactly there), so polling pops due deadlines instead of
        #: rescanning every in-flight record: per tick O(log n) per
        #: decided record, O(1) when nothing is due.  Entries for
        #: already-decided records — and entries whose generation no
        #: longer matches the record's (the cmid was re-registered, e.g.
        #: by recovery) — are skipped lazily.
        self._timeout_wheel: List[Tuple[int, str, int]] = []
        self.stats = EvaluationStats()
        manager.ensure_queue(ack_queue)
        if push:
            manager.queue(ack_queue).subscribe(lambda _message: self.pump())

    # -- registration ------------------------------------------------------------

    def register(
        self,
        cmid: str,
        condition: Condition,
        send_time_ms: int,
        evaluation_timeout_ms: Optional[int],
    ) -> EvaluationRecord:
        """Start evaluating a newly sent conditional message.

        The first evaluation runs immediately: a condition with no
        requirements is SATISFIED at send time.
        """
        self._generations += 1
        record = EvaluationRecord(
            cmid=cmid,
            condition=condition,
            send_time_ms=send_time_ms,
            evaluation_timeout_ms=evaluation_timeout_ms,
            generation=self._generations,
        )
        old = self._records.get(cmid)
        if old is not None:
            # Re-registration of a known id (recovery re-driving the
            # sender log, or a defensive replace): the old record's armed
            # timeout must never fire against the new record — cancel its
            # scheduler event; its wheel entries die by generation check.
            if old.timeout_event is not None:
                old.timeout_event.cancel()
                old.timeout_event = None
            if old.pending:
                self._pending -= 1
        self._records[cmid] = record
        self._pending += 1
        if self.manager.metrics is not None:
            # Decided records are kept (outcome() answers from them), so
            # this only grows; the gauge makes that visible.
            self.manager.metrics.set_gauge(
                f"evaluation_records.{self.manager.name}", len(self._records)
            )
        if evaluation_timeout_ms is not None:
            deadline = send_time_ms + evaluation_timeout_ms
            if self.scheduler is not None:
                record.timeout_event = self.scheduler.call_at(
                    deadline,
                    lambda generation=record.generation: self._on_timeout(
                        cmid, generation
                    ),
                    label=f"eval-timeout {cmid}",
                )
            # The wheel backs poll() in scheduler-less deployments; keeping
            # it maintained in both modes costs a few machine words per
            # record and keeps poll() correct even when a scheduler exists
            # but is not being driven.
            heapq.heappush(
                self._timeout_wheel, (deadline, cmid, record.generation)
            )
            self._compact_wheel_if_bloated()
        self.evaluate(cmid)
        return record

    def record(self, cmid: str) -> EvaluationRecord:
        """Look up a record; raises for unknown ids."""
        try:
            return self._records[cmid]
        except KeyError:
            raise UnknownConditionalMessageError(cmid) from None

    def pending_count(self) -> int:
        """Number of messages still awaiting an outcome (O(1), maintained)."""
        return self._pending

    # -- ack intake -----------------------------------------------------------------

    def pump(self) -> int:
        """Drain the acknowledgment queue; returns acks processed.

        Unknown conditional message ids (e.g. acks arriving after recovery
        lost the record, or stray traffic) are dropped after counting —
        the queue must not wedge on them.
        """
        processed = 0
        # Every message touched by this drain, evaluated once after the
        # drain's acks are all appended.  The whole drain happens at one
        # virtual instant, so per-ack re-evaluation of the same condition
        # could not decide anything the single evaluation does not.
        touched: Dict[str, None] = {}
        # One drain = one commit group: the journaled gets from the ack
        # queue and every record written by the decisions they trigger
        # flush together instead of once per ack message.
        with self.manager.group_commit():
            while True:
                message = self.manager.get_wait(self.ack_queue)
                if message is None:
                    break
                for ack in acks_from_message(message):
                    processed += 1
                    self.stats.acks_processed += 1
                    record = self._records.get(ack.cmid)
                    if record is None or not record.pending:
                        continue
                    record.acks.append(ack)
                    if record.tracker is None:
                        record.tracker = self._tracker(record)
                    record.tracker.add(ack)
                    touched[ack.cmid] = None
                    if self.manager.metrics is not None:
                        # Send -> acknowledgment processed at the sender;
                        # the gap the paper's monitoring machinery exists
                        # to observe.
                        self.manager.metrics.observe(
                            "ack_latency_ms",
                            self.manager.clock.now_ms() - record.send_time_ms,
                        )
            for cmid in touched:
                self.evaluate(cmid)
        return processed

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, cmid: str) -> EvalState:
        """Decide one message if its condition state is final.

        The record's tracker (a throwaway one while the message has no
        acknowledgment) gives the state; only a violation or the deadline
        (``final=True``) walks its required terms for the reasons.
        """
        record = self.record(cmid)
        if not record.pending:
            return (
                EvalState.SATISFIED
                if record.decided.outcome is MessageOutcome.SUCCESS
                else EvalState.VIOLATED
            )
        self.stats.evaluations_run += 1
        now = self.manager.clock.now_ms()
        timeout = record.evaluation_timeout_ms
        final = timeout is not None and now >= record.send_time_ms + timeout
        tracker = record.tracker or self._tracker(record)
        state, reasons = tracker.state(), []
        if final or state is EvalState.VIOLATED:
            result = tracker.result(final)
            state, reasons = result.state, result.reasons
        tracer = self.manager.tracer
        if tracer.enabled:
            tracer.emit(
                STAGE_EVALUATE,
                at_ms=now,
                cmid=cmid,
                manager=self.manager.name,
                state=state.name,
                acks=len(record.acks),
            )
        if state is not EvalState.PENDING:
            self._decide(record, state, reasons)
        return state

    def _tracker(self, record: EvaluationRecord) -> ConditionTracker:
        return ConditionTracker(
            record.condition, record.send_time_ms, self.manager.name
        )

    def poll(self) -> int:
        """Decide every record whose evaluation deadline has passed.

        Needed in scheduler-less (synchronous) deployments, where no event
        fires at the evaluation timeout; returns how many records were
        decided by this poll.

        Cost is O(log n) per due record popped from the timeout wheel and
        O(1) when nothing is due — not a rescan of every in-flight record.
        That is equivalent to the old full scan: between acknowledgment
        arrivals (each of which triggers :meth:`evaluate` directly), the
        satisfaction algorithm's result only depends on the clock through
        the ``now >= send_time + evaluation_timeout`` finality rule, so a
        record with no due evaluation deadline cannot change state here.
        """
        now = self.manager.clock.now_ms()
        wheel = self._timeout_wheel
        decided = 0
        while wheel and wheel[0][0] <= now:
            _deadline, cmid, generation = heapq.heappop(wheel)
            record = self._records.get(cmid)
            if record is None or not record.pending:
                continue  # decided earlier (ack/force/scheduler) — stale entry
            if record.generation != generation:
                # The cmid was re-registered since this entry was armed
                # (recovery re-drive): the entry belongs to a dead record
                # whose deadline says nothing about the live one.
                continue
            self.evaluate(cmid)
            # At or past its evaluation deadline the satisfaction
            # algorithm always resolves PENDING, so the record is decided
            # now; nothing is ever re-queued.
            if not record.pending:
                decided += 1
        return decided

    def force_decide(
        self, cmid: str, outcome: MessageOutcome, reason: str
    ) -> Optional[OutcomeRecord]:
        """Terminate an evaluation with a dictated outcome.

        Used by the Dependency-Sphere layer: aborting a sphere fails its
        still-pending messages immediately rather than waiting for their
        deadlines.  Returns the record, or ``None`` if already decided.
        """
        record = self.record(cmid)
        if not record.pending:
            return None
        state = (
            EvalState.SATISFIED
            if outcome is MessageOutcome.SUCCESS
            else EvalState.VIOLATED
        )
        self._decide(record, state, [reason])
        return record.decided

    def _compact_wheel_if_bloated(self) -> None:
        """Drop stale wheel entries when they dominate the heap.

        Records decided by acknowledgments leave their wheel entry behind
        (lazy deletion); a long-running sender would otherwise accumulate
        one stale tuple per decided message.  Rebuilding when stale
        entries outnumber live ones 4:1 keeps the wheel O(pending) sized
        at amortized O(1) cost per registration.
        """
        wheel = self._timeout_wheel
        if len(wheel) <= 64 or len(wheel) <= 4 * self._pending:
            return
        live = [
            entry
            for entry in wheel
            if (record := self._records.get(entry[1])) is not None
            and record.pending
            and record.generation == entry[2]
        ]
        heapq.heapify(live)
        self._timeout_wheel = live

    def _on_timeout(self, cmid: str, generation: Optional[int] = None) -> None:
        record = self._records.get(cmid)
        if record is None or not record.pending:
            return
        if generation is not None and record.generation != generation:
            return  # armed for an older registration of this cmid
        self.stats.decided_by_timeout += 1
        self.evaluate(cmid)

    def _decide(
        self, record: EvaluationRecord, state: EvalState, reasons: List[str]
    ) -> None:
        outcome = (
            MessageOutcome.SUCCESS
            if state is EvalState.SATISFIED
            else MessageOutcome.FAILURE
        )
        record.decided = OutcomeRecord(
            cmid=record.cmid,
            outcome=outcome,
            decided_at_ms=self.manager.clock.now_ms(),
            acks_received=len(record.acks),
            reasons=list(reasons),
        )
        record.tracker = None
        self._pending -= 1
        if record.timeout_event is not None:
            record.timeout_event.cancel()
            record.timeout_event = None
        if outcome is MessageOutcome.SUCCESS:
            self.stats.decided_success += 1
        else:
            self.stats.decided_failure += 1
        tracer = self.manager.tracer
        if tracer.enabled:
            tracer.emit(
                STAGE_OUTCOME,
                at_ms=record.decided.decided_at_ms,
                cmid=record.cmid,
                manager=self.manager.name,
                outcome=outcome.name,
                acks=len(record.acks),
            )
        if self.manager.metrics is not None:
            self.manager.metrics.observe(
                "decision_latency_ms",
                record.decided.decided_at_ms - record.send_time_ms,
            )
            self.manager.metrics.incr(f"outcomes.{outcome.name.lower()}")
        self._on_decided(record.decided)
