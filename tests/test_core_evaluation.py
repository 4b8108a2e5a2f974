"""Unit tests for the evaluation manager (paper §2.5)."""

import pytest

from repro.core.acks import Acknowledgment, AckKind, ack_to_message
from repro.core.builder import destination, destination_set
from repro.core.evaluation import EvaluationManager
from repro.core.outcome import MessageOutcome, OutcomeRecord
from repro.core.satisfaction import EvalState
from repro.errors import UnknownConditionalMessageError
from repro.mq.manager import QueueManager
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler

ACK_QUEUE = "DS.ACK.Q"


@pytest.fixture
def env():
    clock = SimulatedClock()
    scheduler = EventScheduler(clock)
    manager = QueueManager("QM.S", clock)
    decided = []
    evaluation = EvaluationManager(
        manager, ACK_QUEUE, on_decided=decided.append, scheduler=scheduler
    )
    return clock, scheduler, manager, evaluation, decided


def simple_condition(deadline=100):
    return destination_set(
        destination("Q.A", manager="QM.S", recipient="alice",
                    msg_pick_up_time=deadline)
    )


def ack(cmid, read_ms, kind=AckKind.READ, commit_ms=None, recipient="alice"):
    return Acknowledgment(
        cmid=cmid,
        kind=kind,
        queue="Q.A",
        manager="QM.S",
        recipient=recipient,
        read_time_ms=read_ms,
        commit_time_ms=commit_ms,
        original_message_id=f"m-{read_ms}",
    )


class TestRegistration:
    def test_trivial_condition_decides_at_registration(self, env):
        clock, scheduler, manager, evaluation, decided = env
        condition = destination_set(destination("Q.A"))
        evaluation.register("CM-1", condition, 0, None)
        assert len(decided) == 1
        assert decided[0].outcome is MessageOutcome.SUCCESS

    def test_a_tracker_lives_from_the_first_ack_to_the_decision(self, env):
        clock, scheduler, manager, evaluation, decided = env
        records = [
            evaluation.register(f"CM-{i}", simple_condition(), 0, 200)
            for i in range(3)
        ]
        # A restart re-registers every in-flight message at once.
        assert [r.tracker for r in records] == [None, None, None]
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-0", read_ms=10)))
        assert records[0].decided.outcome is MessageOutcome.SUCCESS
        assert records[0].tracker is None  # built at the ack, dropped at the decision
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", read_ms=10, recipient="bob")))
        assert records[1].pending and records[1].tracker is not None

    def test_pending_condition_stays_open(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        assert decided == []
        assert evaluation.pending_count() == 1

    def test_unknown_cmid_raises(self, env):
        _, _, _, evaluation, _ = env
        with pytest.raises(UnknownConditionalMessageError):
            evaluation.record("CM-GHOST")


class TestAckIntake:
    def test_ack_message_on_queue_triggers_evaluation(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        clock.advance(50)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 50)))
        assert len(decided) == 1
        assert decided[0].outcome is MessageOutcome.SUCCESS
        assert decided[0].acks_received == 1
        assert manager.depth(ACK_QUEUE) == 0  # drained

    def test_acks_sorted_to_right_message(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        evaluation.register("CM-2", simple_condition(), 0, 200)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-2", 10)))
        assert [d.cmid for d in decided] == ["CM-2"]
        assert evaluation.record("CM-1").acks == []

    def test_unknown_ack_dropped_without_wedging(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-GHOST", 10)))
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 20)))
        assert [d.cmid for d in decided] == ["CM-1"]
        assert evaluation.stats.acks_processed == 2

    def test_acks_after_decision_ignored(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 10)))
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 20, recipient="bob")))
        assert len(decided) == 1
        assert evaluation.record("CM-1").decided.acks_received == 1


class TestTimeouts:
    def test_timeout_fails_pending_message(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(100), 0, 150)
        scheduler.run_until(149)
        assert decided == []
        scheduler.run_until(150)
        assert len(decided) == 1
        assert decided[0].outcome is MessageOutcome.FAILURE
        assert evaluation.stats.decided_by_timeout == 1

    def test_timeout_event_cancelled_after_early_decision(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(100), 0, 150)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 10)))
        fired = scheduler.run_all()
        assert len(decided) == 1
        assert evaluation.stats.decided_by_timeout == 0

    def test_poll_drives_timeouts_without_scheduler(self, clock):
        manager = QueueManager("QM.S", clock)
        decided = []
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=decided.append, scheduler=None
        )
        evaluation.register("CM-1", simple_condition(100), 0, 150)
        clock.advance(200)
        assert evaluation.poll() == 1
        assert decided[0].outcome is MessageOutcome.FAILURE


class TestForceDecide:
    def test_force_failure(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 1_000)
        record = evaluation.force_decide(
            "CM-1", MessageOutcome.FAILURE, "sphere aborted"
        )
        assert record.outcome is MessageOutcome.FAILURE
        assert "sphere aborted" in record.reasons
        assert decided[-1] is record

    def test_force_on_decided_message_is_noop(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 1_000)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 10)))
        assert evaluation.force_decide("CM-1", MessageOutcome.FAILURE, "x") is None
        assert evaluation.record("CM-1").decided.outcome is MessageOutcome.SUCCESS


class TestPendingCount:
    """The maintained pending counter must track every decision path."""

    def test_counts_registrations(self, env):
        clock, scheduler, manager, evaluation, decided = env
        assert evaluation.pending_count() == 0
        evaluation.register("CM-1", simple_condition(), 0, 200)
        evaluation.register("CM-2", simple_condition(), 0, 200)
        assert evaluation.pending_count() == 2

    def test_trivial_registration_never_counts(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", destination_set(destination("Q.A")), 0, None)
        assert evaluation.pending_count() == 0

    def test_ack_decision_decrements(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 10)))
        assert evaluation.pending_count() == 0

    def test_timeout_decision_decrements(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(100), 0, 150)
        scheduler.run_until(150)
        assert len(decided) == 1
        assert evaluation.pending_count() == 0

    def test_poll_decision_decrements(self, clock):
        manager = QueueManager("QM.S", clock)
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=lambda _r: None, scheduler=None
        )
        for i in range(5):
            evaluation.register(f"CM-{i}", simple_condition(100), 0, 150)
        assert evaluation.pending_count() == 5
        clock.advance(200)
        assert evaluation.poll() == 5
        assert evaluation.pending_count() == 0
        # A second poll finds nothing due and decides nothing.
        assert evaluation.poll() == 0

    def test_force_decide_decrements_once(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 1_000)
        evaluation.force_decide("CM-1", MessageOutcome.FAILURE, "abort")
        assert evaluation.pending_count() == 0
        # Forcing again is a no-op and must not go negative.
        evaluation.force_decide("CM-1", MessageOutcome.FAILURE, "abort")
        assert evaluation.pending_count() == 0

    def test_reregistration_does_not_double_count(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 200)
        evaluation.register("CM-1", simple_condition(), 0, 300)
        assert evaluation.pending_count() == 1

    def test_mixed_lifecycle(self, env):
        clock, scheduler, manager, evaluation, decided = env
        for i in range(4):
            evaluation.register(f"CM-{i}", simple_condition(100), 0, 150)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-0", 10)))
        evaluation.force_decide("CM-1", MessageOutcome.FAILURE, "abort")
        assert evaluation.pending_count() == 2
        scheduler.run_all()  # CM-2 and CM-3 time out
        assert evaluation.pending_count() == 0
        assert len(decided) == 4


class TestTimeoutWheel:
    def test_stale_entries_skipped_without_recount(self, clock):
        manager = QueueManager("QM.S", clock)
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=lambda _r: None, scheduler=None
        )
        for i in range(10):
            evaluation.register(f"CM-{i}", simple_condition(100), 0, 150)
        # Decide half by acknowledgment; their wheel entries go stale.
        for i in range(5):
            manager.put(ACK_QUEUE, ack_to_message(ack(f"CM-{i}", 10)))
        evaluation.pump()
        clock.advance(200)
        assert evaluation.poll() == 5  # only the still-pending half
        assert evaluation.pending_count() == 0

    def test_wheel_compaction_drops_stale_entries(self, clock):
        manager = QueueManager("QM.S", clock)
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=lambda _r: None, scheduler=None
        )
        # Decide many messages by acknowledgment, leaving stale wheel
        # entries behind; registration-time compaction must bound the
        # wheel to O(pending), not O(ever-registered).
        for i in range(500):
            evaluation.register(f"CM-{i}", simple_condition(1_000), 0, 2_000)
            manager.put(ACK_QUEUE, ack_to_message(ack(f"CM-{i}", 1)))
            evaluation.pump()
        assert evaluation.pending_count() == 0
        assert len(evaluation._timeout_wheel) <= 65

    def test_poll_is_noop_before_any_deadline(self, clock):
        manager = QueueManager("QM.S", clock)
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=lambda _r: None, scheduler=None
        )
        for i in range(10):
            evaluation.register(f"CM-{i}", simple_condition(100), 0, 150)
        clock.advance(100)
        assert evaluation.poll() == 0
        assert evaluation.pending_count() == 10
        assert len(evaluation._timeout_wheel) == 10  # nothing popped


class TestGenerationGuard:
    """Stale timers from a superseded registration must never fire
    against the re-registered record (cmid reuse across recovery)."""

    def test_stale_wheel_entry_skipped_after_reregistration(self, clock):
        manager = QueueManager("QM.S", clock)
        decided = []
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=decided.append, scheduler=None
        )
        evaluation.register("CM-1", simple_condition(100), 0, 150)
        # Recovery re-registers the same cmid with a later deadline.
        clock.advance(50)
        evaluation.register("CM-1", simple_condition(100), 50, 150)
        # Past the OLD deadline (150) but before the new one (200): the
        # stale wheel entry pops but must not decide the live record.
        clock.advance(110)  # now = 160
        assert evaluation.poll() == 0
        assert decided == []
        assert evaluation.pending_count() == 1
        # The live deadline still fires.
        clock.advance(40)  # now = 200
        assert evaluation.poll() == 1
        assert decided[0].outcome is MessageOutcome.FAILURE

    def test_stale_scheduler_timeout_cancelled_on_reregistration(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(100), 0, 150)
        scheduler.run_until(50)
        evaluation.register("CM-1", simple_condition(100), 50, 150)
        scheduler.run_until(160)  # past old deadline, before new
        assert decided == []
        assert evaluation.stats.decided_by_timeout == 0
        scheduler.run_until(200)
        assert len(decided) == 1
        assert evaluation.stats.decided_by_timeout == 1

    def test_on_timeout_ignores_mismatched_generation(self, env):
        clock, scheduler, manager, evaluation, decided = env
        first = evaluation.register("CM-1", simple_condition(100), 0, 150)
        evaluation.register("CM-1", simple_condition(100), 0, 500)
        clock.advance(200)
        # Simulate the superseded registration's timer firing anyway.
        evaluation._on_timeout("CM-1", first.generation)
        assert decided == []
        assert evaluation.stats.decided_by_timeout == 0

    def test_compaction_drops_mismatched_generations(self, clock):
        manager = QueueManager("QM.S", clock)
        evaluation = EvaluationManager(
            manager, ACK_QUEUE, on_decided=lambda _r: None, scheduler=None
        )
        # Re-register one cmid many times; only the last generation's
        # wheel entry is live, so compaction must shed the rest.
        for _ in range(500):
            evaluation.register("CM-1", simple_condition(1_000), 0, 2_000)
        assert evaluation.pending_count() == 1
        assert len(evaluation._timeout_wheel) <= 65

    def test_generations_are_monotonic(self, env):
        clock, scheduler, manager, evaluation, decided = env
        a = evaluation.register("CM-1", simple_condition(), 0, 500)
        b = evaluation.register("CM-2", simple_condition(), 0, 500)
        c = evaluation.register("CM-1", simple_condition(), 0, 500)
        assert a.generation < b.generation < c.generation


class TestStats:
    def test_counters(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 100)
        evaluation.register("CM-2", simple_condition(), 0, 100)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 10)))
        scheduler.run_all()  # CM-2 times out
        assert evaluation.stats.decided_success == 1
        assert evaluation.stats.decided_failure == 1
        assert evaluation.stats.acks_processed == 1
        assert evaluation.pending_count() == 0

    def test_evaluate_returns_state_for_decided(self, env):
        clock, scheduler, manager, evaluation, decided = env
        evaluation.register("CM-1", simple_condition(), 0, 100)
        manager.put(ACK_QUEUE, ack_to_message(ack("CM-1", 10)))
        assert evaluation.evaluate("CM-1") is EvalState.SATISFIED
