"""Differential tests (hypothesis): the incremental condition tracker
against the full-walk evaluator it replaced.

:mod:`tests.reference_satisfaction` is that walker, which re-assigns
every acknowledgment and re-derives every node on each call.  After every
acknowledgment the tracker's state must equal the walker's
(``final=False``); ``evaluate_condition`` — built on the tracker — must
give the walker's state *and reasons*, before and at the evaluation
timeout; and a SATISFIED decision, which the evaluation manager takes
without a walk, must be one the walker gives no reasons for.

Trees come from two sources: ``RuleSetGenerator`` scenarios compiled to
conditions, and a generator of shapes that one does not produce —
named and recipient-less leaves sharing a queue, ``copies`` > 1, topic
leaves, anonymous and ``max_nr_*`` bounds, nested sets with deadlines of
their own.  Acknowledgment histories arrive in random order, repeat
recipients and message ids, include non-transactional reads (which
never satisfy a processing aspect) and reads after the deadlines.
"""

from typing import List, Optional

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.core.acks import Acknowledgment, AckKind, ack_to_message
from repro.core.conditions import Condition, Destination, DestinationSet
from repro.core.evaluation import EvaluationManager
from repro.core.outcome import MessageOutcome
from repro.core.satisfaction import ConditionTracker, EvalState, evaluate_condition
from repro.errors import ConditionValidationError
from repro.mq.manager import QueueManager
from repro.mq.pubsub import topic_queue_name
from repro.rules import RuleSetGenerator, compile_message
from repro.sim.clock import SimulatedClock
from tests.reference_satisfaction import evaluate_condition as walk

QM = "QM.S"
QUEUES = ["Q0", "Q1", "Q2", topic_queue_name("fleet.site")]
RECIPIENTS = ["R0", "R1", "R2"]
ANONYMOUS = ["a0", "a1"]
TIMES = st.one_of(st.none(), st.integers(min_value=1, max_value=300))


@st.composite
def leaves(draw) -> Destination:
    return Destination(
        draw(st.sampled_from(QUEUES)),
        manager=draw(st.sampled_from([None, QM, "QM.X"])),
        recipient=draw(st.one_of(st.none(), st.sampled_from(RECIPIENTS))),
        copies=draw(st.integers(min_value=1, max_value=3)),
        msg_pick_up_time=draw(TIMES),
        msg_processing_time=draw(TIMES),
    )


def bounds(draw, own_time: Optional[int], members: int):
    """(min, max) for a set tally; only a set with its own time has any."""
    if own_time is None or not draw(st.booleans()):
        return None, None
    low = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=members)))
    high = draw(
        st.one_of(st.none(), st.integers(min_value=low or 0, max_value=members + 1))
    )
    return low, high


def anonymous_bounds(draw):
    low = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
    high = draw(st.one_of(st.none(), st.integers(min_value=low or 0, max_value=4)))
    return low, high


@st.composite
def sets(draw, depth: int = 0) -> DestinationSet:
    member_nodes = st.one_of(leaves(), sets(depth + 1)) if depth < 2 else leaves()
    members: List[Condition] = draw(st.lists(member_nodes, min_size=1, max_size=4))
    pick_up, processing = draw(TIMES), draw(TIMES)
    min_pick_up, max_pick_up = bounds(draw, pick_up, len(members))
    min_processing, max_processing = bounds(draw, processing, len(members))
    anon_min_pick_up, anon_max_pick_up = anonymous_bounds(draw)
    anon_min_processing, anon_max_processing = anonymous_bounds(draw)
    return DestinationSet(
        members,
        min_nr_pick_up=min_pick_up,
        max_nr_pick_up=max_pick_up,
        min_nr_processing=min_processing,
        max_nr_processing=max_processing,
        anonymous_min_pick_up=anon_min_pick_up,
        anonymous_max_pick_up=anon_max_pick_up,
        anonymous_min_processing=anon_min_processing,
        anonymous_max_processing=anon_max_processing,
        msg_pick_up_time=pick_up,
        msg_processing_time=processing,
    )


def drop_repeated_leaves(node: DestinationSet, seen: set) -> None:
    for child in node.children():
        if isinstance(child, DestinationSet):
            drop_repeated_leaves(child, seen)
        elif (child.manager or QM, child.queue, child.recipient) in seen:
            node.remove(child)
        else:
            seen.add((child.manager or QM, child.queue, child.recipient))


@st.composite
def generated_trees(draw) -> Condition:
    tree = draw(sets())
    drop_repeated_leaves(tree, set())
    try:
        tree.validate(QM)
    except ConditionValidationError:
        assume(False)  # a set emptied, or its min now out of reach
    return tree


@st.composite
def compiled_trees(draw) -> Condition:
    """A message condition from a ``RuleSetGenerator`` scenario."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    ruleset = RuleSetGenerator(seed, max_receivers=3, max_messages=2).generate()
    rule = draw(st.sampled_from(ruleset.messages))
    return compile_message(rule)


@st.composite
def histories(draw, tree: Condition) -> List[Acknowledgment]:
    """Acks on the tree's queues (and one it does not name), in arrival order."""
    keys = sorted({(leaf.manager or QM, leaf.queue) for leaf in tree.destinations()})
    keys.append((QM, "Q.ELSEWHERE"))
    named = sorted({leaf.recipient for leaf in tree.destinations() if leaf.recipient})
    acks: List[Acknowledgment] = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if acks and draw(st.integers(min_value=0, max_value=5)) == 0:
            acks.append(acks[-1])  # a redelivered acknowledgment
            continue
        manager, queue = draw(st.sampled_from(keys))
        read_ms = draw(st.integers(min_value=0, max_value=400))
        processed = draw(st.booleans())
        acks.append(
            Acknowledgment(
                cmid="CM-D",
                kind=AckKind.PROCESSED if processed else AckKind.READ,
                queue=queue,
                manager=manager,
                recipient=draw(st.sampled_from(named + ANONYMOUS)),
                read_time_ms=read_ms,
                commit_time_ms=(
                    read_ms + draw(st.integers(min_value=0, max_value=100))
                    if processed
                    else None
                ),
                original_message_id=f"m{draw(st.integers(min_value=0, max_value=4))}",
            )
        )
    return acks


def check_every_prefix(tree: Condition, acks: List[Acknowledgment]) -> None:
    tracker = ConditionTracker(tree, 0, QM)
    for count in range(len(acks) + 1):
        if count:
            tracker.add(acks[count - 1])
        seen = acks[:count]
        reference = walk(tree, seen, 0, 0, None, QM)
        assert tracker.state() is reference.state, (count, reference)
        if reference.state is EvalState.SATISFIED:
            assert reference.reasons == []  # what the manager decides with
        for now, timeout in ((0, None), (500, 500)):  # before / at the timeout
            ours = evaluate_condition(tree, seen, 0, now, timeout, QM)
            theirs = walk(tree, seen, 0, now, timeout, QM)
            assert (ours.state, ours.reasons) == (theirs.state, theirs.reasons)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_tracker_follows_the_walker_on_generated_trees(data):
    tree = data.draw(generated_trees())
    acks = data.draw(histories(tree))
    check_every_prefix(tree, acks)
    shuffled = list(acks)
    data.draw(st.randoms()).shuffle(shuffled)
    check_every_prefix(tree, shuffled)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tracker_follows_the_walker_on_rule_set_trees(data):
    tree = data.draw(compiled_trees())
    check_every_prefix(tree, data.draw(histories(tree)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_manager_decides_what_the_walker_decides(data):
    """Acks reach a live evaluation manager at rising clock times; its
    outcome record — state, reasons, instant, ack count — is the first
    final answer of the walker re-run after every arrival, or the
    walker's answer at the evaluation timeout."""
    tree = data.draw(st.one_of(generated_trees(), compiled_trees()))
    acks = data.draw(histories(tree))
    arrivals = sorted(
        data.draw(st.lists(st.integers(0, 600), min_size=len(acks), max_size=len(acks)))
    )
    timeout = data.draw(st.integers(min_value=1, max_value=500))
    clock = SimulatedClock()
    manager = QueueManager(QM, clock)
    decided = []
    evaluation = EvaluationManager(manager, "DS.ACK.Q", decided.append, scheduler=None)
    evaluation.register("CM-D", tree, 0, timeout)

    expected = None
    result = walk(tree, [], 0, 0, timeout, QM)
    if result.is_final():
        expected = (result, 0, 0)
    for count, (ack, at) in enumerate(zip(acks, arrivals), start=1):
        if expected is None and at >= timeout:  # the deadline comes first
            clock.set(timeout)
            evaluation.poll()
            result = walk(tree, acks[: count - 1], 0, timeout, timeout, QM)
            expected = (result, timeout, count - 1)
        clock.set(max(clock.now_ms(), at))
        manager.put("DS.ACK.Q", ack_to_message(ack))
        if expected is None:
            result = walk(tree, acks[:count], 0, at, timeout, QM)
            if result.is_final():
                expected = (result, at, count)
    if expected is None:
        clock.set(max(clock.now_ms(), timeout))
        evaluation.poll()
        expected = (walk(tree, acks, 0, timeout, timeout, QM), timeout, len(acks))

    result, at, count = expected
    assert len(decided) == 1
    outcome = decided[0]
    assert outcome.outcome is (
        MessageOutcome.SUCCESS if result.state is EvalState.SATISFIED
        else MessageOutcome.FAILURE
    )
    assert (outcome.reasons, outcome.decided_at_ms, outcome.acks_received) == (
        result.reasons, at, count,
    )
    assert evaluation.record("CM-D").tracker is None
