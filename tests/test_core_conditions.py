"""Unit tests for the condition object model (paper Fig. 3)."""

import pytest

from repro.core.builder import destination, destination_set
from repro.core.conditions import Condition, Destination, DestinationSet
from repro.errors import ConditionValidationError


class TestDestination:
    def test_requires_queue(self):
        with pytest.raises(ConditionValidationError):
            Destination(queue="")

    def test_defaults(self):
        leaf = destination("Q.A")
        assert leaf.manager is None
        assert leaf.recipient is None
        assert leaf.copies == 1
        assert leaf.is_leaf()
        assert not leaf.is_required()

    def test_required_when_timed(self):
        assert destination("Q.A", msg_pick_up_time=10).is_required()
        assert destination("Q.A", msg_processing_time=10).is_required()
        assert destination("Q.A", msg_processing_time=10).requires_processing()
        assert not destination("Q.A", msg_pick_up_time=10).requires_processing()

    def test_rejects_bad_times(self):
        with pytest.raises(ConditionValidationError):
            destination("Q.A", msg_pick_up_time=-1)
        with pytest.raises(ConditionValidationError):
            destination("Q.A", msg_processing_time="soon")

    def test_rejects_bad_copies(self):
        with pytest.raises(ConditionValidationError):
            Destination(queue="Q.A", copies=0)

    def test_rejects_bad_priority(self):
        with pytest.raises(ConditionValidationError):
            destination("Q.A", msg_priority=10)

    def test_leaves_cannot_have_children(self):
        leaf = destination("Q.A")
        with pytest.raises(ConditionValidationError):
            leaf.add(destination("Q.B"))
        with pytest.raises(ConditionValidationError):
            leaf.remove(leaf)


class TestDestinationSet:
    def test_members_via_constructor_and_add(self):
        a, b = destination("Q.A"), destination("Q.B")
        group = DestinationSet(members=[a])
        group.add(b)
        assert group.children() == [a, b]
        group.remove(a)
        assert group.children() == [b]

    def test_remove_non_member_rejected(self):
        group = destination_set(destination("Q.A"))
        with pytest.raises(ConditionValidationError):
            group.remove(destination("Q.B"))

    def test_add_rejects_non_conditions(self):
        with pytest.raises(ConditionValidationError):
            destination_set(destination("Q.A")).add("not a condition")

    def test_cycle_rejected(self):
        group = destination_set(destination("Q.A"))
        with pytest.raises(ConditionValidationError):
            group.add(group)

    def test_nested_cycle_rejected(self):
        inner = destination_set(destination("Q.A"))
        outer = destination_set(inner)
        with pytest.raises(ConditionValidationError):
            inner.add(outer)


class TestTraversal:
    def make_tree(self):
        return destination_set(
            destination("Q.R3", recipient="R3", msg_processing_time=700),
            destination_set(
                destination("Q.R1", recipient="R1"),
                destination("Q.R2", recipient="R2"),
                msg_processing_time=300,
                min_nr_processing=1,
            ),
            msg_pick_up_time=200,
        )

    def test_destinations_in_definition_order(self):
        queues = [d.queue for d in self.make_tree().destinations()]
        assert queues == ["Q.R3", "Q.R1", "Q.R2"]

    def test_walk_preorder(self):
        kinds = [type(node).__name__ for node in self.make_tree().walk()]
        assert kinds == [
            "DestinationSet",
            "Destination",
            "DestinationSet",
            "Destination",
            "Destination",
        ]

    def test_max_deadline(self):
        assert self.make_tree().max_deadline() == 700
        assert destination_set(destination("Q.A")).max_deadline() is None


class TestValidation:
    def test_example1_shape_validates(self):
        tree = TestTraversal().make_tree()
        tree.validate()  # no exception

    def test_empty_set_rejected(self):
        with pytest.raises(ConditionValidationError):
            DestinationSet().validate()

    def test_anonymous_only_set_allowed(self):
        group = destination_set(
            destination("Q.SHARED", copies=3),
            msg_pick_up_time=100,
            anonymous_min_pick_up=2,
        )
        group.validate()

    def test_min_exceeding_members_rejected(self):
        group = destination_set(
            destination("Q.A"),
            msg_pick_up_time=100,
            min_nr_pick_up=2,
        )
        with pytest.raises(ConditionValidationError):
            group.validate()

    def test_min_above_max_rejected(self):
        group = destination_set(
            destination("Q.A"),
            destination("Q.B"),
            msg_pick_up_time=100,
            min_nr_pick_up=2,
            max_nr_pick_up=1,
        )
        with pytest.raises(ConditionValidationError):
            group.validate()

    def test_counts_require_times(self):
        group = destination_set(destination("Q.A"), min_nr_pick_up=1)
        with pytest.raises(ConditionValidationError):
            group.validate()
        group2 = destination_set(destination("Q.A"), min_nr_processing=1)
        with pytest.raises(ConditionValidationError):
            group2.validate()

    def test_duplicate_destination_rejected(self):
        group = destination_set(
            destination("Q.A", recipient="bob"),
            destination("Q.A", recipient="bob"),
            msg_pick_up_time=10,
        )
        with pytest.raises(ConditionValidationError):
            group.validate()

    def test_leaf_naming_the_default_manager_duplicates_one_naming_none(self):
        group = destination_set(
            destination("Q.A", recipient="bob"),
            destination("Q.A", manager="QM.S", recipient="bob"),
            msg_pick_up_time=10,
        )
        group.validate()  # no sender known: the two managers differ
        with pytest.raises(ConditionValidationError, match="duplicate"):
            group.validate("QM.S")
        group.validate("QM.OTHER")

    def test_same_queue_different_recipients_allowed(self):
        group = destination_set(
            destination("Q.A", recipient="bob"),
            destination("Q.A", recipient="alice"),
            msg_pick_up_time=10,
        )
        group.validate()

    def test_negative_counts_rejected(self):
        with pytest.raises(ConditionValidationError):
            destination_set(destination("Q.A"), min_nr_pick_up=-1)

    def test_evaluation_timeout_attribute(self):
        group = destination_set(destination("Q.A"), evaluation_timeout=500)
        assert group.evaluation_timeout == 500
        with pytest.raises(ConditionValidationError):
            destination_set(destination("Q.A"), evaluation_timeout=-5)


class TestAttributeQueries:
    def test_has_own_times(self):
        assert destination("Q.A", msg_pick_up_time=1).has_own_times()
        assert not destination("Q.A").has_own_times()
        assert destination_set(
            destination("Q.A"), msg_processing_time=1
        ).has_own_times()

    def test_has_anonymous_conditions(self):
        assert destination_set(
            destination("Q.A"), anonymous_min_pick_up=1
        ).has_anonymous_conditions()
        assert not destination_set(destination("Q.A")).has_anonymous_conditions()
