"""The full-walk satisfaction algorithm, kept as a test reference.

This is the evaluator :mod:`repro.core.satisfaction` used before its
incremental :class:`~repro.core.satisfaction.ConditionTracker`: it
re-assigns every acknowledgment to the leaves and re-derives every node
on each call.  The differential tests hold the tracker, and the
``evaluate_condition`` built on it, to this walk's states and reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.acks import Acknowledgment
from repro.core.conditions import Condition, Destination, DestinationSet
from repro.core.satisfaction import EvalState, EvaluationResult, combine_and
from repro.errors import EvaluationError
from repro.mq.pubsub import is_topic_destination


# ---------------------------------------------------------------------------
# Ack assignment
# ---------------------------------------------------------------------------


@dataclass
class AckAssignment:
    """Result of distributing acknowledgments over a condition tree."""

    #: per-leaf assigned acknowledgments (earliest read first)
    by_leaf: Dict[int, List[Acknowledgment]]
    #: acknowledgments claimed by no leaf, keyed by (manager, queue)
    unclaimed: Dict[Tuple[str, str], List[Acknowledgment]]
    #: every recipient name that appears on some leaf
    named_recipients: Set[str]
    #: per-node leaf lists, memoized for the duration of one evaluation
    #: pass (the tree is walked per aspect per set node; re-listing the
    #: same subtree's leaves each time is pure overhead)
    _subtree_leaves: Dict[int, List[Destination]] = field(default_factory=dict)

    def leaf_acks(self, leaf: Destination) -> List[Acknowledgment]:
        """Acknowledgments assigned to ``leaf``."""
        return self.by_leaf.get(id(leaf), [])

    def subtree_leaves(self, node: Condition) -> List[Destination]:
        """Leaves of ``node``'s subtree (memoized per evaluation pass)."""
        cached = self._subtree_leaves.get(id(node))
        if cached is None:
            cached = list(node.destinations())
            self._subtree_leaves[id(node)] = cached
        return cached


def assign_acks(
    root: Condition,
    acks: Sequence[Acknowledgment],
    default_manager: str,
) -> AckAssignment:
    """Distribute ``acks`` over the leaves of ``root``.

    Leaves naming a recipient have priority over recipient-less leaves on
    the same queue, so a named recipient's acknowledgment is never
    miscounted as anonymous.
    """
    leaves = list(root.destinations())
    by_key_named: Dict[Tuple[str, str, str], Destination] = {}
    by_key_open: Dict[Tuple[str, str], Destination] = {}
    for leaf in leaves:
        manager = leaf.manager or default_manager
        if leaf.recipient is not None:
            by_key_named[(manager, leaf.queue, leaf.recipient)] = leaf
        else:
            by_key_open[(manager, leaf.queue)] = leaf

    assigned: Dict[int, List[Acknowledgment]] = {id(leaf): [] for leaf in leaves}
    unclaimed: Dict[Tuple[str, str], List[Acknowledgment]] = {}

    def claim_cap(leaf: Destination) -> Optional[int]:
        # A topic is consumable by arbitrarily many subscribers, and the
        # leaf means "any subscriber": it absorbs every ack on its queue
        # (anonymous tallies still see them — see _anonymous_aspect_state).
        return None if is_topic_destination(leaf.queue) else leaf.copies

    ordered = sorted(acks, key=lambda a: (a.read_time_ms, a.original_message_id))
    for ack in ordered:
        named_leaf = by_key_named.get((ack.manager, ack.queue, ack.recipient))
        if named_leaf is not None:
            bucket = assigned[id(named_leaf)]
            cap = claim_cap(named_leaf)
            if cap is None or len(bucket) < cap:
                bucket.append(ack)
                continue
        open_leaf = by_key_open.get((ack.manager, ack.queue))
        if open_leaf is not None and named_leaf is None:
            bucket = assigned[id(open_leaf)]
            cap = claim_cap(open_leaf)
            if cap is None or len(bucket) < cap:
                bucket.append(ack)
                continue
        unclaimed.setdefault((ack.manager, ack.queue), []).append(ack)

    named_recipients = {
        leaf.recipient for leaf in leaves if leaf.recipient is not None
    }
    assignment = AckAssignment(
        by_leaf=assigned, unclaimed=unclaimed, named_recipients=named_recipients
    )
    assignment._subtree_leaves[id(root)] = leaves
    return assignment


# ---------------------------------------------------------------------------
# Leaf evaluation
# ---------------------------------------------------------------------------


def _ack_timestamp(ack: Acknowledgment, aspect: str) -> Optional[int]:
    if aspect == "pick_up":
        return ack.read_time_ms
    if aspect == "processing":
        return ack.processing_time_ms()
    raise EvaluationError(f"unknown aspect {aspect!r}")


def _leaf_aspect_state(
    leaf: Destination,
    acks: List[Acknowledgment],
    aspect: str,
    deadline_abs_ms: Optional[int],
    final: bool,
) -> EvalState:
    """State of "this leaf did <aspect> by <deadline>"."""
    in_time = False
    dead = 0
    for ack in acks:
        ts = _ack_timestamp(ack, aspect)
        if ts is None:
            # For processing: a non-transactional read consumed a copy that
            # can never yield a processing acknowledgment.
            dead += 1
            continue
        if deadline_abs_ms is None or ts <= deadline_abs_ms:
            in_time = True
        else:
            dead += 1
    if in_time:
        return EvalState.SATISFIED
    if not is_topic_destination(leaf.queue) and dead >= leaf.copies:
        # Every physical copy was consumed without satisfying the aspect:
        # early violation.  (Topics have no copy bound — any number of
        # subscribers may yet acknowledge — so only finality resolves.)
        return EvalState.VIOLATED
    if final:
        return EvalState.VIOLATED
    return EvalState.PENDING


def _leaf_own_state(
    leaf: Destination,
    assignment: AckAssignment,
    send_time_ms: int,
    final: bool,
    reasons: List[str],
    label: str,
) -> EvalState:
    """A leaf's own (required-destination) conditions."""
    states: List[EvalState] = []
    acks = assignment.leaf_acks(leaf)
    if leaf.msg_pick_up_time is not None:
        state = _leaf_aspect_state(
            leaf, acks, "pick_up", send_time_ms + leaf.msg_pick_up_time, final
        )
        if state is not EvalState.SATISFIED:
            reasons.append(
                f"{label}: pick-up within {leaf.msg_pick_up_time}ms is"
                f" {state.value}"
            )
        states.append(state)
    if leaf.msg_processing_time is not None:
        state = _leaf_aspect_state(
            leaf,
            acks,
            "processing",
            send_time_ms + leaf.msg_processing_time,
            final,
        )
        if state is not EvalState.SATISFIED:
            reasons.append(
                f"{label}: processing within {leaf.msg_processing_time}ms is"
                f" {state.value}"
            )
        states.append(state)
    if not states:
        return EvalState.SATISFIED  # optional destination: no own requirement
    return combine_and(states)


# ---------------------------------------------------------------------------
# Set evaluation
# ---------------------------------------------------------------------------


def _subtree_exhausted(node: Condition, assignment: AckAssignment, default_manager: str) -> bool:
    """True when no further acknowledgment can arrive for this subtree.

    A topic destination can be consumed by arbitrarily many subscribers
    (the sender cannot know the subscription count), so any topic leaf in
    the subtree makes exhaustion undecidable — only the evaluation
    timeout resolves it.
    """
    total_copies = 0
    total_acks = 0
    queues: Set[Tuple[str, str]] = set()
    for leaf in assignment.subtree_leaves(node):
        if is_topic_destination(leaf.queue):
            return False
        total_copies += leaf.copies
        total_acks += len(assignment.leaf_acks(leaf))
        queues.add((leaf.manager or default_manager, leaf.queue))
    for key in queues:
        total_acks += len(assignment.unclaimed.get(key, []))
    return total_copies > 0 and total_acks >= total_copies


def _child_counts_state(
    child: Condition,
    assignment: AckAssignment,
    aspect: str,
    inherited_deadline_abs: Optional[int],
    send_time_ms: int,
    final: bool,
    default_manager: str,
) -> EvalState:
    """Whether ``child`` counts toward a parent tally for ``aspect``."""
    if isinstance(child, Destination):
        return _leaf_aspect_state(
            child,
            assignment.leaf_acks(child),
            aspect,
            inherited_deadline_abs,
            final,
        )
    if isinstance(child, DestinationSet):
        own_rel = (
            child.msg_pick_up_time
            if aspect == "pick_up"
            else child.msg_processing_time
        )
        deadline = (
            send_time_ms + own_rel if own_rel is not None else inherited_deadline_abs
        )
        return _set_aspect_tally(
            child,
            assignment,
            aspect,
            deadline,
            send_time_ms,
            final,
            default_manager,
            reasons=None,
            label=None,
        )
    raise EvaluationError(f"unknown condition node {type(child).__name__}")


def _set_aspect_tally(
    node: DestinationSet,
    assignment: AckAssignment,
    aspect: str,
    deadline_abs: Optional[int],
    send_time_ms: int,
    final: bool,
    default_manager: str,
    reasons: Optional[List[str]],
    label: Optional[str],
) -> EvalState:
    """Tally state: did enough (min..max) members do ``aspect`` in time?"""
    children = node.children()
    if aspect == "pick_up":
        need = node.min_nr_pick_up
        cap = node.max_nr_pick_up
    else:
        need = node.min_nr_processing
        cap = node.max_nr_processing
    required = need if need is not None else len(children)

    local_final = final or _subtree_exhausted(node, assignment, default_manager)
    satisfied = pending = 0
    for child in children:
        state = _child_counts_state(
            child,
            assignment,
            aspect,
            deadline_abs,
            send_time_ms,
            local_final,
            default_manager,
        )
        if state is EvalState.SATISFIED:
            satisfied += 1
        elif state is EvalState.PENDING:
            pending += 1

    result: EvalState
    if cap is not None and satisfied > cap:
        result = EvalState.VIOLATED
    elif satisfied >= required and (cap is None or pending == 0):
        result = EvalState.SATISFIED
    elif local_final:
        result = (
            EvalState.SATISFIED
            if satisfied >= required and (cap is None or satisfied <= cap)
            else EvalState.VIOLATED
        )
    elif satisfied + pending < required:
        result = EvalState.VIOLATED
    else:
        result = EvalState.PENDING

    if reasons is not None and label is not None and result is not EvalState.SATISFIED:
        cap_text = f"..{cap}" if cap is not None else ""
        reasons.append(
            f"{label}: {aspect} tally {satisfied}/{required}{cap_text}"
            f" is {result.value}"
        )
    return result


def _anonymous_aspect_state(
    node: DestinationSet,
    assignment: AckAssignment,
    aspect: str,
    deadline_abs: Optional[int],
    final: bool,
    default_manager: str,
    reasons: List[str],
    label: str,
) -> EvalState:
    """Anonymous-recipient tally: distinct unnamed readers in the subtree."""
    if aspect == "pick_up":
        amin, amax = node.anonymous_min_pick_up, node.anonymous_max_pick_up
    else:
        amin, amax = node.anonymous_min_processing, node.anonymous_max_processing
    if amin is None and amax is None:
        return EvalState.SATISFIED

    queues = {
        (leaf.manager or default_manager, leaf.queue)
        for leaf in assignment.subtree_leaves(node)
    }
    recipients: Set[str] = set()
    for key in queues:
        for ack in assignment.unclaimed.get(key, []):
            if ack.recipient in assignment.named_recipients:
                continue
            ts = _ack_timestamp(ack, aspect)
            if ts is None:
                continue
            if deadline_abs is None or ts <= deadline_abs:
                recipients.add(ack.recipient)
    # Recipient-less leaves absorb the first ack on their queue; that
    # reader is anonymous too and must count here.
    for leaf in assignment.subtree_leaves(node):
        if leaf.recipient is not None:
            continue
        for ack in assignment.leaf_acks(leaf):
            if ack.recipient in assignment.named_recipients:
                continue
            ts = _ack_timestamp(ack, aspect)
            if ts is None:
                continue
            if deadline_abs is None or ts <= deadline_abs:
                recipients.add(ack.recipient)

    count = len(recipients)
    local_final = final or _subtree_exhausted(node, assignment, default_manager)
    result: EvalState
    if amax is not None and count > amax:
        result = EvalState.VIOLATED
    elif (amin is None or count >= amin) and (amax is None or local_final):
        result = EvalState.SATISFIED
    elif local_final:
        result = (
            EvalState.SATISFIED
            if (amin is None or count >= amin) and (amax is None or count <= amax)
            else EvalState.VIOLATED
        )
    else:
        result = EvalState.PENDING

    if result is not EvalState.SATISFIED:
        reasons.append(
            f"{label}: anonymous {aspect} count {count}"
            f" (need {amin if amin is not None else 0}"
            f"{f'..{amax}' if amax is not None else ''}) is {result.value}"
        )
    return result


def _node_state(
    node: Condition,
    assignment: AckAssignment,
    send_time_ms: int,
    final: bool,
    default_manager: str,
    reasons: List[str],
    path: str,
) -> EvalState:
    """Overall state of a node: own tallies AND every child's own state."""
    if isinstance(node, Destination):
        return _leaf_own_state(
            node, assignment, send_time_ms, final, reasons, path
        )
    if not isinstance(node, DestinationSet):
        raise EvaluationError(f"unknown condition node {type(node).__name__}")

    states: List[EvalState] = []
    if node.msg_pick_up_time is not None:
        states.append(
            _set_aspect_tally(
                node,
                assignment,
                "pick_up",
                send_time_ms + node.msg_pick_up_time,
                send_time_ms,
                final,
                default_manager,
                reasons,
                path,
            )
        )
    if node.msg_processing_time is not None:
        states.append(
            _set_aspect_tally(
                node,
                assignment,
                "processing",
                send_time_ms + node.msg_processing_time,
                send_time_ms,
                final,
                default_manager,
                reasons,
                path,
            )
        )
    for aspect in ("pick_up", "processing"):
        rel = (
            node.msg_pick_up_time if aspect == "pick_up" else node.msg_processing_time
        )
        states.append(
            _anonymous_aspect_state(
                node,
                assignment,
                aspect,
                send_time_ms + rel if rel is not None else None,
                final,
                default_manager,
                reasons,
                path,
            )
        )
    for index, child in enumerate(node.children()):
        child_path = f"{path}.{index}" if path else str(index)
        if isinstance(child, Destination):
            child_path = f"{path}/{child.queue}"
        states.append(
            _node_state(
                child,
                assignment,
                send_time_ms,
                final,
                default_manager,
                reasons,
                child_path,
            )
        )
    return combine_and(states)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def evaluate_condition(
    root: Condition,
    acks: Sequence[Acknowledgment],
    send_time_ms: int,
    now_ms: int,
    evaluation_timeout_ms: Optional[int] = None,
    default_manager: str = "",
) -> EvaluationResult:
    """Evaluate a condition tree against the acknowledgments seen so far.

    Args:
        root: The condition associated with the message.
        acks: Every acknowledgment received for the conditional message.
        send_time_ms: Absolute send timestamp (the paper's reference point
            for all relative times).
        now_ms: Current time on the sender's clock.
        evaluation_timeout_ms: Relative evaluation bound; when ``now_ms``
            reaches ``send_time_ms + evaluation_timeout_ms``, PENDING
            resolves to a final answer.
        default_manager: Manager name substituted for leaves that did not
            specify one.

    Returns:
        An :class:`EvaluationResult` whose state is final (SATISFIED or
        VIOLATED) or PENDING together with diagnostic reasons.
    """
    final = (
        evaluation_timeout_ms is not None
        and now_ms >= send_time_ms + evaluation_timeout_ms
    )
    assignment = assign_acks(root, acks, default_manager)
    reasons: List[str] = []
    state = _node_state(
        root, assignment, send_time_ms, final, default_manager, reasons, "root"
    )
    if state is EvalState.PENDING and final:
        # Defensive: with final=True the node evaluation should already
        # have resolved, but guarantee finality regardless.
        state = EvalState.VIOLATED
        reasons.append("evaluation timeout reached while still pending")
    return EvaluationResult(state=state, reasons=reasons)
