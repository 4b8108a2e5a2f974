"""Unit tests for the pure condition-satisfaction algorithm (paper §2.5).

All times here are relative to send_time_ms=0 for readability, so an
acknowledgment's ``read_time_ms`` can be compared directly against the
condition's relative deadlines.
"""

import pytest

from repro.core.acks import Acknowledgment, AckKind
from repro.core.builder import destination, destination_set
from repro.core.satisfaction import EvalState, combine_and, evaluate_condition

QM = "QM.SENDER"


def read_ack(queue, recipient, read_ms, manager=QM):
    return Acknowledgment(
        cmid="CM-TEST",
        kind=AckKind.READ,
        queue=queue,
        manager=manager,
        recipient=recipient,
        read_time_ms=read_ms,
        commit_time_ms=None,
        original_message_id=f"m-{queue}-{recipient}-{read_ms}",
    )


def proc_ack(queue, recipient, read_ms, commit_ms, manager=QM):
    return Acknowledgment(
        cmid="CM-TEST",
        kind=AckKind.PROCESSED,
        queue=queue,
        manager=manager,
        recipient=recipient,
        read_time_ms=read_ms,
        commit_time_ms=commit_ms,
        original_message_id=f"m-{queue}-{recipient}-{read_ms}",
    )


def state(condition, acks, now, timeout=None):
    return evaluate_condition(
        condition, acks, send_time_ms=0, now_ms=now,
        evaluation_timeout_ms=timeout, default_manager=QM,
    ).state


class TestCombineAnd:
    def test_violated_dominates(self):
        assert combine_and([EvalState.SATISFIED, EvalState.VIOLATED, EvalState.PENDING]) is EvalState.VIOLATED

    def test_pending_over_satisfied(self):
        assert combine_and([EvalState.SATISFIED, EvalState.PENDING]) is EvalState.PENDING

    def test_all_satisfied(self):
        assert combine_and([EvalState.SATISFIED]) is EvalState.SATISFIED
        assert combine_and([]) is EvalState.SATISFIED


class TestSingleDestinationPickUp:
    def cond(self):
        return destination_set(destination("Q.A", msg_pick_up_time=100))

    def test_no_acks_pending(self):
        assert state(self.cond(), [], now=50) is EvalState.PENDING

    def test_in_time_ack_satisfies(self):
        assert state(self.cond(), [read_ack("Q.A", "x", 80)], now=90) is EvalState.SATISFIED

    def test_ack_exactly_at_deadline_satisfies(self):
        assert state(self.cond(), [read_ack("Q.A", "x", 100)], now=150) is EvalState.SATISFIED

    def test_late_ack_violates_immediately(self):
        # The only copy was consumed after the deadline: no in-time ack
        # can ever arrive, so failure is detected before any timeout.
        assert state(self.cond(), [read_ack("Q.A", "x", 101)], now=101) is EvalState.VIOLATED

    def test_deadline_passing_without_ack_stays_pending(self):
        # An in-flight acknowledgment with an in-time read stamp may still
        # arrive; only the evaluation timeout forces the decision.
        assert state(self.cond(), [], now=500) is EvalState.PENDING

    def test_timeout_resolves_to_violation(self):
        assert state(self.cond(), [], now=200, timeout=200) is EvalState.VIOLATED

    def test_in_time_ack_arriving_late_still_satisfies(self):
        # The read happened at 90 on the receiver; the ack reached us at 400.
        assert state(self.cond(), [read_ack("Q.A", "x", 90)], now=400, timeout=500) is EvalState.SATISFIED


class TestSingleDestinationProcessing:
    def cond(self):
        return destination_set(destination("Q.A", msg_processing_time=100))

    def test_commit_in_time_satisfies(self):
        assert state(self.cond(), [proc_ack("Q.A", "x", 50, 90)], now=95) is EvalState.SATISFIED

    def test_commit_late_violates(self):
        assert state(self.cond(), [proc_ack("Q.A", "x", 50, 120)], now=120) is EvalState.VIOLATED

    def test_non_transactional_read_can_never_process(self):
        # The copy was consumed without a transaction: a processing ack
        # can never appear, so the requirement is violated immediately.
        assert state(self.cond(), [read_ack("Q.A", "x", 50)], now=60) is EvalState.VIOLATED


class TestRequiredAndOptional:
    def test_leaf_without_times_is_optional(self):
        cond = destination_set(
            destination("Q.A"),
            destination("Q.B"),
            msg_pick_up_time=100,
            min_nr_pick_up=1,
        )
        # Only Q.A acks in time; Q.B never acks.  Min 1 of 2 is met and
        # the optional leaf imposes nothing of its own.
        acks = [read_ack("Q.A", "a", 40)]
        assert state(cond, acks, now=5_000, timeout=5_000) is EvalState.SATISFIED

    def test_required_leaf_violation_fails_despite_set_min(self):
        cond = destination_set(
            destination("Q.A", msg_pick_up_time=50),  # required
            destination("Q.B"),
            msg_pick_up_time=100,
            min_nr_pick_up=1,
        )
        acks = [read_ack("Q.B", "b", 40), read_ack("Q.A", "a", 60)]
        # Q.A's own deadline (50) missed although the set min is met.
        assert state(cond, acks, now=70) is EvalState.VIOLATED


class TestSetTallies:
    def cond(self, **kwargs):
        return destination_set(
            destination("Q.A"),
            destination("Q.B"),
            destination("Q.C"),
            msg_pick_up_time=100,
            **kwargs,
        )

    def test_default_means_all_members(self):
        acks = [read_ack("Q.A", "a", 10), read_ack("Q.B", "b", 20)]
        assert state(self.cond(), acks, now=30) is EvalState.PENDING
        acks.append(read_ack("Q.C", "c", 30))
        assert state(self.cond(), acks, now=40) is EvalState.SATISFIED

    def test_min_subset(self):
        acks = [read_ack("Q.A", "a", 10), read_ack("Q.B", "b", 20)]
        assert state(self.cond(min_nr_pick_up=2), acks, now=30) is EvalState.SATISFIED

    def test_min_not_reachable_fails_early(self):
        # Two of three copies consumed late: at most 1 in-time remains
        # possible, so min 2 is already hopeless.
        acks = [read_ack("Q.A", "a", 150), read_ack("Q.B", "b", 150)]
        assert state(self.cond(min_nr_pick_up=2), acks, now=150) is EvalState.VIOLATED

    def test_max_exceeded_fails(self):
        acks = [
            read_ack("Q.A", "a", 10),
            read_ack("Q.B", "b", 20),
            read_ack("Q.C", "c", 30),
        ]
        assert (
            state(self.cond(min_nr_pick_up=1, max_nr_pick_up=2), acks, now=40)
            is EvalState.VIOLATED
        )

    def test_max_with_pending_members_waits(self):
        acks = [read_ack("Q.A", "a", 10)]
        # min met, but two members could still ack and push past max=1:
        # stay pending until the timeout resolves it.
        cond = self.cond(min_nr_pick_up=1, max_nr_pick_up=1)
        assert state(cond, acks, now=20) is EvalState.PENDING
        assert state(cond, acks, now=200, timeout=200) is EvalState.SATISFIED

    def test_exhaustion_resolves_max_early(self):
        cond = self.cond(min_nr_pick_up=1, max_nr_pick_up=2)
        acks = [
            read_ack("Q.A", "a", 10),
            read_ack("Q.B", "b", 200),
            read_ack("Q.C", "c", 300),
        ]
        # All three copies consumed (two late): count is fixed at 1 and
        # within [1, 2] -> early success without any timeout.
        assert state(cond, acks, now=300) is EvalState.SATISFIED


class TestNestedSets:
    def example1(self):
        """The paper's Figure 4 tree (times scaled down)."""
        return destination_set(
            destination("Q.R3", recipient="R3", msg_processing_time=700),
            destination_set(
                destination("Q.R1", recipient="R1"),
                destination("Q.R2", recipient="R2"),
                destination("Q.R4", recipient="R4"),
                msg_processing_time=1_100,
                min_nr_processing=2,
            ),
            msg_pick_up_time=200,
        )

    def success_acks(self):
        return [
            proc_ack("Q.R3", "R3", 100, 600),
            proc_ack("Q.R1", "R1", 50, 900),
            proc_ack("Q.R2", "R2", 60, 1_000),
            read_ack("Q.R4", "R4", 150),
        ]

    def test_paper_success_story(self):
        assert state(self.example1(), self.success_acks(), now=1_200) is EvalState.SATISFIED

    def test_r3_late_processing_fails(self):
        acks = self.success_acks()
        acks[0] = proc_ack("Q.R3", "R3", 100, 800)  # after its 700 deadline
        assert state(self.example1(), acks, now=1_200) is EvalState.VIOLATED

    def test_one_subset_processor_is_not_enough(self):
        acks = [
            proc_ack("Q.R3", "R3", 100, 600),
            proc_ack("Q.R1", "R1", 50, 900),
            read_ack("Q.R2", "R2", 60),   # read only: cannot process
            read_ack("Q.R4", "R4", 150),  # read only: cannot process
        ]
        # All copies consumed; only one subset member processed; min 2
        # unreachable -> early violation.
        assert state(self.example1(), acks, now=1_000) is EvalState.VIOLATED

    def test_late_pick_up_anywhere_fails(self):
        acks = self.success_acks()
        acks[3] = read_ack("Q.R4", "R4", 250)  # after root's 200ms window
        assert state(self.example1(), acks, now=1_200) is EvalState.VIOLATED

    def test_nested_set_uses_parent_deadline_for_pick_up(self):
        # The inner set declares no pick-up time; the root's 200 applies
        # to its members transitively.
        acks = self.success_acks()
        acks[1] = proc_ack("Q.R1", "R1", 210, 900)  # read after 200
        assert state(self.example1(), acks, now=1_200) is EvalState.VIOLATED


class TestAnonymous:
    def shared(self, copies=3, **kwargs):
        return destination_set(
            destination("Q.SHARED", copies=copies, msg_pick_up_time=100),
            **kwargs,
        )

    def test_any_reader_satisfies_recipientless_leaf(self):
        cond = self.shared(copies=1)
        assert state(cond, [read_ack("Q.SHARED", "whoever", 50)], now=60) is EvalState.SATISFIED

    def test_anonymous_min_counts_distinct_readers(self):
        cond = self.shared(copies=3, anonymous_min_pick_up=2, msg_pick_up_time=100)
        acks = [read_ack("Q.SHARED", "c1", 10)]
        assert state(cond, acks, now=20) is EvalState.PENDING
        acks.append(read_ack("Q.SHARED", "c2", 20))
        assert state(cond, acks, now=30) is EvalState.SATISFIED

    def test_same_reader_twice_counts_once(self):
        cond = self.shared(copies=3, anonymous_min_pick_up=2, msg_pick_up_time=100)
        acks = [
            read_ack("Q.SHARED", "c1", 10),
            read_ack("Q.SHARED", "c1", 20),
            read_ack("Q.SHARED", "c1", 30),
        ]
        # All copies consumed by one reader: min 2 distinct unreachable.
        assert state(cond, acks, now=40) is EvalState.VIOLATED

    def test_anonymous_max_violation(self):
        cond = self.shared(copies=4, anonymous_max_pick_up=2, msg_pick_up_time=100)
        acks = [read_ack("Q.SHARED", f"c{i}", 10 + i) for i in range(4)]
        assert state(cond, acks, now=50) is EvalState.VIOLATED

    def test_named_recipients_not_counted_as_anonymous(self):
        cond = destination_set(
            destination("Q.X", recipient="bob"),
            destination("Q.SHARED", copies=2),
            msg_pick_up_time=100,
            anonymous_min_pick_up=1,
        )
        # Only bob acks: set members' pick-up fine for Q.X, but no
        # anonymous reader yet.
        acks = [read_ack("Q.X", "bob", 10)]
        assert state(cond, acks, now=20) is EvalState.PENDING
        # An unnamed reader satisfies both the open leaf and the
        # anonymous tally: "anonymous" means not named by any child
        # destination, regardless of which leaf absorbed the ack.
        acks.append(read_ack("Q.SHARED", "stranger", 30))
        assert state(cond, acks, now=40) is EvalState.SATISFIED


class TestAckAssignment:
    """Which leaf an acknowledgment lands on, seen through the verdict."""

    def test_named_leaf_beats_open_leaf(self):
        tree = destination_set(
            destination("Q.A", recipient="bob"),
            destination("Q.A"),
            msg_pick_up_time=100,
        )
        acks = [read_ack("Q.A", "bob", 10), read_ack("Q.A", "carol", 20)]
        # Had the open leaf taken bob's (earlier) read, carol's would be
        # unclaimed and bob's own leaf still waiting.
        assert state(tree, acks, now=30) is EvalState.SATISFIED
        assert state(tree, acks[:1], now=30) is EvalState.PENDING

    def test_overflow_acks_unclaimed(self):
        tree = destination_set(
            destination("Q.A"), msg_pick_up_time=100, anonymous_min_pick_up=2
        )
        acks = [read_ack("Q.A", "c1", 10), read_ack("Q.A", "c2", 20)]
        # The one copy holds c1 (one reader, and no copy left: violated);
        # c2 is kept unclaimed and still counts as a second anonymous
        # reader of the queue.
        assert state(tree, acks[:1], now=30) is EvalState.VIOLATED
        assert state(tree, acks, now=30) is EvalState.SATISFIED

    def test_earliest_ack_claims_leaf(self):
        tree = destination_set(destination("Q.A"), msg_pick_up_time=100)
        acks = [read_ack("Q.A", "late", 190), read_ack("Q.A", "early", 10)]
        # The late read alone consumes the only copy: violated.  The
        # earlier read, arriving second, displaces it.
        assert state(tree, acks[:1], now=200) is EvalState.VIOLATED
        assert state(tree, acks, now=200) is EvalState.SATISFIED

    def test_equal_reads_keep_arrival_order(self):
        tree = destination_set(
            destination("Q.A", copies=2, msg_processing_time=100),
        )
        first = proc_ack("Q.A", "x", 10, 50)
        # Equal read time and message id: the leaf orders the two by
        # arrival and never compares the acknowledgments themselves.
        second = proc_ack("Q.A", "x", 10, 150)
        assert state(tree, [first, second], now=200) is EvalState.SATISFIED
        assert state(tree, [second, first], now=200) is EvalState.SATISFIED
        assert state(tree, [second, second], now=200) is EvalState.VIOLATED

    def test_manager_mismatch_not_assigned(self):
        tree = destination_set(
            destination("Q.A", manager="QM.OTHER"), msg_pick_up_time=100
        )
        acks = [read_ack("Q.A", "x", 10, manager=QM)]
        assert state(tree, acks, now=50) is EvalState.PENDING


class TestTrivialAndEdgeCases:
    def test_condition_without_requirements_is_satisfied_immediately(self):
        cond = destination_set(destination("Q.A"))
        assert state(cond, [], now=0) is EvalState.SATISFIED

    def test_reasons_populated_on_violation(self):
        cond = destination_set(destination("Q.A", msg_pick_up_time=100))
        result = evaluate_condition(
            cond, [], 0, 200, evaluation_timeout_ms=200, default_manager=QM
        )
        assert result.state is EvalState.VIOLATED
        assert any("pick-up" in reason for reason in result.reasons)

    def test_timeout_zero_decides_at_send(self):
        cond = destination_set(destination("Q.A", msg_pick_up_time=100))
        assert state(cond, [], now=0, timeout=0) is EvalState.VIOLATED

    def test_processing_satisfies_pick_up_too(self):
        cond = destination_set(
            destination("Q.A", msg_pick_up_time=100, msg_processing_time=200)
        )
        assert state(cond, [proc_ack("Q.A", "x", 50, 150)], now=160) is EvalState.SATISFIED
