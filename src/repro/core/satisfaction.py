"""Pure condition-satisfaction algorithm (paper section 2.5).

Given a condition tree, the set of acknowledgments received so far, the
send timestamp, and the current time, decide whether the conditional
message is SATISFIED, VIOLATED, or still PENDING.  The algorithm is pure
(no I/O, no clocks of its own), which makes it property-testable.

Cost model: a :class:`ConditionTracker` indexes the tree once and then
takes one acknowledgment at a time, moving counters on the path from the
leaf that claims it to the root — O(depth) per acknowledgment, whatever
the fan-out.  The evaluation manager keeps one per pending message,
reads its state after every drain and asks it for the reasons once, at a
violation or at the evaluation timeout.  :func:`evaluate_condition` is
the one-shot form: a fresh tracker fed every acknowledgment.

Semantics (fixed in DESIGN.md section 4):

* **Ack assignment.**  Acknowledgments are first assigned to leaf
  destinations: a leaf matching on (manager, queue) and — when the leaf
  names a recipient — on recipient id claims up to ``copies``
  acknowledgments, earliest read first.  Unclaimed acknowledgments from
  recipients not named anywhere in a subtree are that subtree's
  *anonymous* acknowledgments.
* **Leaf aspect state** against a deadline: SATISFIED as soon as one
  assigned ack is in time; VIOLATED when every copy has been consumed and
  none can ever satisfy the aspect (all late, or — for processing — all
  non-transactional); PENDING otherwise.  Note that mere passage of the
  deadline does *not* violate: a conforming acknowledgment (timestamped
  by the recipient before the deadline) may still be in transit, which is
  exactly why the paper gives the evaluation its own timeout.
* **Set tallies**: a set's time applies to all members unless
  ``min_nr_*`` is given; ``max_nr_*`` bounds in-time members from above.
  Child sets count toward a parent tally using their own time if they
  declare one, the parent's otherwise — recursively.
* **Finality**: at the evaluation timeout (or when a subtree can receive
  no further acknowledgments because every copy is consumed), PENDING
  resolves: tallies succeed iff min <= in-time count <= max.
* **Reasons** name every requirement that is not SATISFIED, so a
  SATISFIED result never carries any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import insort
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.acks import Acknowledgment
from repro.core.conditions import Condition, Destination, DestinationSet
from repro.errors import EvaluationError
from repro.mq.pubsub import is_topic_destination


class EvalState(Enum):
    """Tri-state evaluation result."""

    SATISFIED = "satisfied"
    VIOLATED = "violated"
    PENDING = "pending"


def combine_and(states: Sequence[EvalState]) -> EvalState:
    """AND-combination: VIOLATED dominates, then PENDING, else SATISFIED."""
    if any(s is EvalState.VIOLATED for s in states):
        return EvalState.VIOLATED
    if any(s is EvalState.PENDING for s in states):
        return EvalState.PENDING
    return EvalState.SATISFIED


@dataclass
class EvaluationResult:
    """Outcome of one evaluation pass."""

    state: EvalState
    #: Human-readable explanations for VIOLATED/PENDING contributors.
    reasons: List[str] = field(default_factory=list)

    def is_final(self) -> bool:
        """True when the state can no longer change."""
        return self.state is not EvalState.PENDING


# ---------------------------------------------------------------------------
# Terms: the tri-state quantities of one tree
# ---------------------------------------------------------------------------

_SAT, _VIOL, _PEND = EvalState.SATISFIED, EvalState.VIOLATED, EvalState.PENDING
_ASPECTS = ("pick_up", "processing")
_NOBODY: frozenset = frozenset()


class _Term:
    """One tri-state quantity of the tree.  ``nf`` is its state before the
    evaluation timeout, ``f`` its state once final (the timeout, or inside
    the tally of an ancestor that can receive no more acknowledgments).
    A term with a ``parent`` is one member of that tally; a ``required``
    term is one of the conditions the root ANDs together."""

    __slots__ = ("parent", "required", "nf", "f")


class _LeafTerm(_Term):
    """A leaf did one aspect by a deadline: its own (``within`` ms of the
    send, a required term) or its parent tally's."""

    __slots__ = ("leaf", "processing", "deadline", "within")

    def __init__(self, parent, leaf, processing, deadline, within=None) -> None:
        # A leaf holding no acknowledgment yet is PENDING (VIOLATED once
        # final), and counted so in its tally right away.
        self.parent, self.required = parent, parent is None
        self.nf, self.f = _PEND, _VIOL
        self.leaf, self.processing, self.deadline, self.within = (
            leaf, processing, deadline, within
        )
        if parent is not None:
            parent.pend += 1

    def state(self) -> Tuple[EvalState, EvalState]:
        leaf = self.leaf
        ts = leaf.min_commit if self.processing else leaf.min_read
        if ts is not None and ts <= self.deadline:
            return _SAT, _SAT
        return (_VIOL if leaf.full else _PEND), _VIOL

    def reason(self, label: str, state: EvalState, final: bool) -> str:
        aspect = "processing" if self.processing else "pick-up"
        return f"{label}: {aspect} within {self.within}ms is {state.value}"


class _Tally(_Term):
    """A set's min..max count of members that did one aspect in time."""

    __slots__ = (
        "owner", "processing", "need", "cap", "deadline", "sat", "pend", "sat_final",
    )

    def __init__(
        self, parent, required, owner, processing, need, cap, deadline
    ) -> None:
        self.parent, self.required, self.nf, self.f = parent, required, None, None
        self.owner, self.processing, self.need, self.cap, self.deadline = (
            owner, processing, need, cap, deadline
        )
        self.sat = self.pend = self.sat_final = 0

    def state(self) -> Tuple[EvalState, EvalState]:
        sat, need, cap = self.sat_final, self.need, self.cap
        final = _SAT if sat >= need and (cap is None or sat <= cap) else _VIOL
        if self.owner.exhausted:
            return final, final
        sat, pend = self.sat, self.pend
        if cap is not None and sat > cap:
            return _VIOL, final
        if sat >= need and (cap is None or pend == 0):
            return _SAT, final
        return (_VIOL if sat + pend < need else _PEND), final

    def reason(self, label: str, state: EvalState, final: bool) -> str:
        sat = self.sat_final if final or self.owner.exhausted else self.sat
        cap = f"..{self.cap}" if self.cap is not None else ""
        return (
            f"{label}: {_ASPECTS[self.processing]} tally {sat}/{self.need}{cap}"
            f" is {state.value}"
        )


class _Anonymous(_Term):
    """A set's count of distinct unnamed readers that did one aspect in time."""

    __slots__ = ("owner", "processing", "deadline", "amin", "amax", "readers")

    def __init__(self, owner, processing, deadline, amin, amax) -> None:
        self.parent, self.required, self.nf, self.f = None, True, None, None
        self.owner, self.processing, self.deadline = owner, processing, deadline
        self.amin, self.amax, self.readers = amin, amax, set()

    def state(self) -> Tuple[EvalState, EvalState]:
        count, amin, amax = len(self.readers), self.amin, self.amax
        if amax is not None and count > amax:
            return _VIOL, _VIOL
        final = _SAT if amin is None or count >= amin else _VIOL
        if self.owner.exhausted:
            return final, final
        return (_SAT if final is _SAT and amax is None else _PEND), final

    def reason(self, label: str, state: EvalState, final: bool) -> str:
        amin = self.amin if self.amin is not None else 0
        amax = f"..{self.amax}" if self.amax is not None else ""
        return (
            f"{label}: anonymous {_ASPECTS[self.processing]} count"
            f" {len(self.readers)} (need {amin}{amax}) is {state.value}"
        )


class _Leaf:
    """What the terms read of the acknowledgments one leaf holds.  A capped
    leaf's ``acks`` are (read time, message id, arrival, ack) entries in
    that order, the arrival number breaking ties as arrival order."""

    __slots__ = ("cap", "acks", "min_read", "min_commit", "full", "terms", "sets")

    def __init__(self, cap: Optional[int], sets: Tuple["_Set", ...]) -> None:
        self.cap, self.sets, self.acks, self.terms = cap, sets, [], []
        self.min_read = self.min_commit = None
        self.full = False


class _Set:
    """A set's exhaustion counter (a ``limit`` of 0 or None: never) and the
    terms that read it."""

    __slots__ = ("limit", "filled", "exhausted", "watchers", "anonymous")

    def __init__(self) -> None:
        self.limit = self.filled = 0
        self.exhausted = False
        self.watchers: List[_Term] = []
        self.anonymous: List[_Anonymous] = []


def _label(path) -> str:
    """Render a node path built lazily as (parent path, separator, part)."""
    parts = []
    while not isinstance(path, str):
        path, separator, part = path
        parts.append(f"{separator}{part}")
    return path + "".join(reversed(parts))


# ---------------------------------------------------------------------------
# The tracker
# ---------------------------------------------------------------------------


class ConditionTracker:
    """The satisfaction state of one condition tree, kept up to date one
    acknowledgment at a time.

    The static index — leaf lookup by (manager, queue, recipient), parent
    pointers, every set's leaves, queues and copy total — is built once.
    An acknowledgment then moves the counters on the path from the leaf
    that claims it (or from the sets reading its queue, when none does) to
    the root: O(depth), whatever the fan-out.  Claims are order-free: a
    named recipient's leaf goes before a recipient-less one on the same
    queue; a capped leaf keeps its earliest reads by (read time, message
    id), so an earlier read arriving late displaces the latest, which
    becomes unclaimed; a topic leaf takes every ack on its queue.
    """

    __slots__ = ("named", "open", "queue_sets", "named_recipients", "required",
                 "violated", "pending", "arrivals")

    def __init__(
        self, root: Condition, send_time_ms: int, default_manager: str = ""
    ) -> None:
        self.named: Dict[Tuple[str, str, str], _Leaf] = {}
        self.open: Dict[Tuple[str, str], _Leaf] = {}
        #: the sets holding a leaf on a queue, which count its unclaimed acks
        self.queue_sets: Dict[Tuple[str, str], Tuple[_Set, ...]] = {}
        named_recipients: Set[str] = set()
        anonymous = False
        #: (node path, term) for every required term, in the tree's pre-order
        self.required: List[Tuple[object, _Term]] = []
        self.violated = self.pending = self.arrivals = 0
        terms: List[_Term] = []
        stack: List[tuple] = [(root, "root", (), (None, None))]
        while stack:
            node, path, ancestors, tallies = stack.pop()
            pick_up, processing = node.msg_pick_up_time, node.msg_processing_time
            if isinstance(node, Destination):
                topic = is_topic_destination(node.queue)
                leaf = _Leaf(None if topic else node.copies, ancestors)
                key = (node.manager or default_manager, node.queue)
                if node.recipient is None:
                    self.open[key] = leaf
                else:
                    self.named[key + (node.recipient,)] = leaf
                    named_recipients.add(node.recipient)
                shared = self.queue_sets.get(key)
                self.queue_sets[key] = (
                    ancestors if shared is None
                    else tuple(dict.fromkeys(shared + ancestors))
                )
                for owner in ancestors:
                    if owner.limit is not None:
                        owner.limit = None if topic else owner.limit + node.copies
                for aspect, tally in enumerate(tallies):
                    if tally is not None:
                        leaf.terms.append(
                            _LeafTerm(tally, leaf, aspect, tally.deadline)
                        )
                for aspect, within in enumerate((pick_up, processing)):
                    if within is not None:
                        deadline = send_time_ms + within
                        term = _LeafTerm(None, leaf, aspect, deadline, within)
                        leaf.terms.append(term)
                        self.required.append((path, term))
                        self.pending += 1
                continue
            if not isinstance(node, DestinationSet):
                raise EvaluationError(f"unknown condition node {type(node).__name__}")
            owner = _Set()
            children = node.children()
            bounds = (
                (pick_up, node.min_nr_pick_up, node.max_nr_pick_up,
                 node.anonymous_min_pick_up, node.anonymous_max_pick_up),
                (processing, node.min_nr_processing, node.max_nr_processing,
                 node.anonymous_min_processing, node.anonymous_max_processing),
            )
            mine: List[Optional[_Tally]] = [None, None]
            for aspect, (within, need, cap, amin, amax) in enumerate(bounds):
                parent = tallies[aspect]
                deadline = None if within is None else send_time_ms + within
                if deadline is not None or parent is not None:
                    tally = mine[aspect] = _Tally(
                        parent, deadline is not None, owner, aspect,
                        len(children) if need is None else need, cap,
                        parent.deadline if deadline is None else deadline,
                    )
                    owner.watchers.append(tally)
                    if tally.required:
                        self.required.append((path, tally))
                if amin is not None or amax is not None:
                    owner.anonymous.append(
                        _Anonymous(owner, aspect, deadline, amin, amax)
                    )
            for term in owner.anonymous:
                owner.watchers.append(term)
                self.required.append((path, term))
                anonymous = True
            terms.extend(owner.watchers)
            below, tallies = ancestors + (owner,), tuple(mine)
            for index in range(len(children) - 1, -1, -1):
                child = children[index]
                stack.append((
                    child,
                    (path, "/", child.queue) if isinstance(child, Destination)
                    else (path, ".", index),
                    below,
                    tallies,
                ))
        # Only anonymous tallies ask who is named; most trees have none.
        self.named_recipients = named_recipients if anonymous else _NOBODY
        # Pre-order reversed: every tally settles after all of its members.
        self._settle(reversed(terms), climb=False)

    def state(self) -> EvalState:
        """The state before the evaluation timeout, for the acks added."""
        if self.violated:
            return _VIOL
        return _PEND if self.pending else _SAT

    def result(self, final: bool = False) -> EvaluationResult:
        """The state with its reasons; ``final`` once the evaluation
        timeout is reached, which resolves every PENDING."""
        states: List[EvalState] = []
        reasons: List[str] = []
        for path, term in self.required:
            state = term.f if final else term.nf
            if state is not _SAT:
                reasons.append(term.reason(_label(path), state, final))
            states.append(state)
        return EvaluationResult(state=combine_and(states), reasons=reasons)

    def add(self, ack: Acknowledgment) -> None:
        """Account one more acknowledgment."""
        key = (ack.manager, ack.queue)
        leaf = self.named.get(key + (ack.recipient,)) or self.open.get(key)
        dirty: List[_Term] = []
        spill: Optional[Acknowledgment] = ack  # the ack left unclaimed, if any
        if leaf is not None:
            spill = None
            if leaf.cap is not None:  # (a topic leaf has no cap)
                self.arrivals += 1
                insort(leaf.acks, (
                    ack.read_time_ms, ack.original_message_id, self.arrivals, ack
                ))
                if len(leaf.acks) > leaf.cap:
                    spill = leaf.acks.pop()[-1]
                leaf.full = len(leaf.acks) >= leaf.cap
            if spill is None:
                held = (ack,)  # the minima can only fall
            elif spill is ack:
                held = ()
            else:  # an earlier read displaced a held one
                held = [entry[-1] for entry in leaf.acks]
                leaf.min_read = leaf.min_commit = None
            for taken in held:
                if leaf.min_read is None or taken.read_time_ms < leaf.min_read:
                    leaf.min_read = taken.read_time_ms
                commit = taken.processing_time_ms()
                if commit is not None and (
                    leaf.min_commit is None or commit < leaf.min_commit
                ):
                    leaf.min_commit = commit
            if spill is not ack:
                dirty.extend(leaf.terms)
                self._spread(leaf.sets, ack, spill is None, dirty)
        if spill is not None:
            self._spread(self.queue_sets.get(key, ()), spill, True, dirty)
        self._settle(dirty)

    def _spread(
        self, sets, ack: Acknowledgment, fill: bool, dirty: List[_Term]
    ) -> None:
        """Count ``ack`` toward ``sets``: their exhaustion when ``fill``,
        and each anonymous tally it passes."""
        anonymous = ack.recipient not in self.named_recipients
        for owner in sets:
            if fill:
                owner.filled += 1
                if owner.filled == owner.limit:
                    owner.exhausted = True
                    dirty.extend(owner.watchers)
            if anonymous:
                for term in owner.anonymous:
                    ts = (
                        ack.processing_time_ms() if term.processing
                        else ack.read_time_ms
                    )
                    if (
                        ts is not None
                        and (term.deadline is None or ts <= term.deadline)
                        and ack.recipient not in term.readers
                    ):
                        term.readers.add(ack.recipient)
                        dirty.append(term)

    def _settle(self, dirty, climb: bool = True) -> None:
        """Re-derive ``dirty`` terms and, while a state changes, the
        tallies above them."""
        for term in dirty:
            while term is not None:
                old_nf, old_f = term.nf, term.f
                nf, f = term.nf, term.f = term.state()
                if nf is old_nf and f is old_f:
                    break
                if term.required:
                    self.violated += (nf is _VIOL) - (old_nf is _VIOL)
                    self.pending += (nf is _PEND) - (old_nf is _PEND)
                parent = term.parent
                if parent is not None:
                    parent.sat += (nf is _SAT) - (old_nf is _SAT)
                    parent.pend += (nf is _PEND) - (old_nf is _PEND)
                    parent.sat_final += (f is _SAT) - (old_f is _SAT)
                term = parent if climb else None


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

    One pass: a :class:`ConditionTracker` takes every acknowledgment, then
    names its reasons.

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
    tracker = ConditionTracker(root, send_time_ms, default_manager)
    for ack in acks:
        tracker.add(ack)
    return tracker.result(final)
