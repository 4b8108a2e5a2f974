"""The condition object model: Condition, Destination, DestinationSet.

Reproduces Figure 3 of the paper.  Conditions follow the *Composite*
design pattern: :class:`Destination` is the leaf (conditions on one
queue/recipient), :class:`DestinationSet` is the composite (conditions on
a set, or hierarchy of sets, of destinations), and :class:`Condition` is
the shared base carrying the attributes and child management interface.

Attribute semantics (paper section 2.2, made precise):

* ``msg_pick_up_time`` — milliseconds, relative to the sender's clock at
  send time, within which a message **read** is required;
* ``msg_processing_time`` — same, for successful **processing** (which the
  middleware equates with commit of the recipient's transactional read);
* a ``Destination`` with either time set is a **required destination**;
* a ``Destination`` without own times under a timed set is **optional** —
  it only feeds the set's tallies;
* set-level times apply to *all* members unless ``min_nr_pick_up`` /
  ``min_nr_processing`` narrow them to a subset; ``max_nr_*`` bound the
  subset from above (more in-time members than the max is a violation);
* ``anonymous_min/max_*`` count distinct recipients that are not named by
  any child destination (e.g. unknown readers of a shared queue);
* ``msg_expiry`` / ``msg_persistence`` / ``msg_priority`` are passed down
  to the generated standard messages, leaf overriding set overriding the
  system default.

The extension attribute ``copies`` on :class:`Destination` (default 1)
controls how many standard messages are placed on the destination queue,
enabling multi-reader shared-queue conditions (several anonymous
recipients can each consume one copy); it is this reproduction's concrete
mechanism behind the paper's "minimum and maximum numbers for anonymous
destinations".
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import ConditionValidationError


def _check_time(name: str, value: Optional[int]) -> Optional[int]:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConditionValidationError(
            f"{name} must be a non-negative integer (milliseconds), got {value!r}"
        )
    return value


def _check_count(name: str, value: Optional[int]) -> Optional[int]:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConditionValidationError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


class Condition:
    """Base class of the Composite condition model.

    Not usually instantiated directly — use :class:`Destination` and
    :class:`DestinationSet` (or the fluent helpers in
    :mod:`repro.core.builder`).
    """

    def __init__(
        self,
        msg_pick_up_time: Optional[int] = None,
        msg_processing_time: Optional[int] = None,
        msg_expiry: Optional[int] = None,
        msg_persistence: Optional[bool] = None,
        msg_priority: Optional[int] = None,
        evaluation_timeout: Optional[int] = None,
    ) -> None:
        self.msg_pick_up_time = _check_time("msg_pick_up_time", msg_pick_up_time)
        self.msg_processing_time = _check_time(
            "msg_processing_time", msg_processing_time
        )
        self.msg_expiry = _check_time("msg_expiry", msg_expiry)
        self.msg_persistence = msg_persistence
        if msg_priority is not None and not 0 <= msg_priority <= 9:
            raise ConditionValidationError(
                f"msg_priority must be in 0..9, got {msg_priority!r}"
            )
        self.msg_priority = msg_priority
        #: Only meaningful on the root of a condition tree: the ultimate
        #: bound on evaluation, relative to send time (paper section 2.5).
        self.evaluation_timeout = _check_time(
            "evaluation_timeout", evaluation_timeout
        )

    # -- composite interface ----------------------------------------------------

    def children(self) -> List["Condition"]:
        """Child components; empty for leaves."""
        return []

    def add(self, child: "Condition") -> "Condition":
        """Add a child (composite nodes only)."""
        raise ConditionValidationError(
            f"{type(self).__name__} cannot have children"
        )

    def remove(self, child: "Condition") -> None:
        """Remove a child (composite nodes only)."""
        raise ConditionValidationError(
            f"{type(self).__name__} cannot have children"
        )

    def is_leaf(self) -> bool:
        """True for :class:`Destination` nodes."""
        return not self.children()

    # -- traversal -----------------------------------------------------------------

    def destinations(self) -> Iterator["Destination"]:
        """Yield every leaf destination in the subtree, in definition order."""
        if isinstance(self, Destination):
            yield self
        for child in self.children():
            yield from child.destinations()

    def walk(self) -> Iterator["Condition"]:
        """Yield every node in the subtree, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- queries used by the sender and evaluator -----------------------------------

    def has_own_times(self) -> bool:
        """True if this node itself specifies a time condition."""
        return (
            self.msg_pick_up_time is not None
            or self.msg_processing_time is not None
        )

    def max_deadline(self) -> Optional[int]:
        """Largest relative deadline anywhere in the subtree, or ``None``."""
        deadlines = [
            t
            for node in self.walk()
            for t in (node.msg_pick_up_time, node.msg_processing_time)
            if t is not None
        ]
        return max(deadlines) if deadlines else None

    # -- validation -------------------------------------------------------------------

    def validate(self, default_manager: Optional[str] = None) -> None:
        """Validate this subtree; raises :class:`ConditionValidationError`.

        ``default_manager`` is the sender's manager name, standing in for
        leaves that name none when destinations are compared.
        """
        raise NotImplementedError


class Destination(Condition):
    """Leaf condition: requirements on one destination queue.

    Args:
        queue: Destination queue name (required, per the paper: "A
            Destination must specify a unique queue").
        manager: Queue manager hosting the queue; ``None`` means the
            sender's own manager.
        recipient: Optional identification string for a specific final
            recipient ("for example, a defined name such as a userid in a
            namespace").  When set, only acknowledgments from that
            recipient satisfy this destination; when unset, any reader of
            the queue does.
        copies: Number of standard messages to put on the queue (>= 1).
    """

    def __init__(
        self,
        queue: str,
        manager: Optional[str] = None,
        recipient: Optional[str] = None,
        copies: int = 1,
        **attributes: Optional[int],
    ) -> None:
        super().__init__(**attributes)
        if not queue or not isinstance(queue, str):
            raise ConditionValidationError("Destination requires a queue name")
        if not isinstance(copies, int) or copies < 1:
            raise ConditionValidationError("copies must be an integer >= 1")
        self.queue = queue
        self.manager = manager
        self.recipient = recipient
        self.copies = copies

    def is_required(self) -> bool:
        """True if this destination carries its own time conditions."""
        return self.has_own_times()

    def requires_processing(self) -> bool:
        """True if this destination itself demands processing."""
        return self.msg_processing_time is not None

    def validate(self, default_manager: Optional[str] = None) -> None:
        """Leaf validation.

        Field shapes were enforced at construction.  Any combination of
        pick-up and processing times is satisfiable (a processing deadline
        earlier than the pick-up deadline simply subsumes it, since a
        commit implies a prior read), so nothing further to check.
        """

    def __repr__(self) -> str:
        parts = [f"queue={self.queue!r}"]
        if self.manager:
            parts.append(f"manager={self.manager!r}")
        if self.recipient:
            parts.append(f"recipient={self.recipient!r}")
        if self.copies != 1:
            parts.append(f"copies={self.copies}")
        if self.msg_pick_up_time is not None:
            parts.append(f"pick_up={self.msg_pick_up_time}")
        if self.msg_processing_time is not None:
            parts.append(f"processing={self.msg_processing_time}")
        return f"Destination({', '.join(parts)})"


class DestinationSet(Condition):
    """Composite condition: requirements on a set of destinations.

    Set-level ``msg_pick_up_time`` / ``msg_processing_time`` apply to all
    members unless a ``min_nr_*`` narrows the requirement to a subset;
    ``max_nr_*`` bounds the subset from above.  ``anonymous_*`` attributes
    constrain distinct unnamed recipients observed in the subtree.
    """

    def __init__(
        self,
        members: Optional[List[Condition]] = None,
        min_nr_pick_up: Optional[int] = None,
        max_nr_pick_up: Optional[int] = None,
        min_nr_processing: Optional[int] = None,
        max_nr_processing: Optional[int] = None,
        anonymous_min_pick_up: Optional[int] = None,
        anonymous_max_pick_up: Optional[int] = None,
        anonymous_min_processing: Optional[int] = None,
        anonymous_max_processing: Optional[int] = None,
        **attributes: Optional[int],
    ) -> None:
        super().__init__(**attributes)
        self._members: List[Condition] = []
        self.min_nr_pick_up = _check_count("min_nr_pick_up", min_nr_pick_up)
        self.max_nr_pick_up = _check_count("max_nr_pick_up", max_nr_pick_up)
        self.min_nr_processing = _check_count(
            "min_nr_processing", min_nr_processing
        )
        self.max_nr_processing = _check_count(
            "max_nr_processing", max_nr_processing
        )
        self.anonymous_min_pick_up = _check_count(
            "anonymous_min_pick_up", anonymous_min_pick_up
        )
        self.anonymous_max_pick_up = _check_count(
            "anonymous_max_pick_up", anonymous_max_pick_up
        )
        self.anonymous_min_processing = _check_count(
            "anonymous_min_processing", anonymous_min_processing
        )
        self.anonymous_max_processing = _check_count(
            "anonymous_max_processing", anonymous_max_processing
        )
        for member in members or []:
            self.add(member)

    # -- composite interface ------------------------------------------------------

    def children(self) -> List[Condition]:
        return list(self._members)

    def add(self, child: Condition) -> Condition:
        if not isinstance(child, Condition):
            raise ConditionValidationError(
                f"DestinationSet members must be Condition nodes, got {child!r}"
            )
        if child is self or self in child.walk():
            raise ConditionValidationError("condition trees must not contain cycles")
        self._members.append(child)
        return child

    def remove(self, child: Condition) -> None:
        try:
            self._members.remove(child)
        except ValueError:
            raise ConditionValidationError(
                "child is not a member of this DestinationSet"
            ) from None

    # -- queries ----------------------------------------------------------------------

    def has_anonymous_conditions(self) -> bool:
        """True if any anonymous min/max is set."""
        return any(
            v is not None
            for v in (
                self.anonymous_min_pick_up,
                self.anonymous_max_pick_up,
                self.anonymous_min_processing,
                self.anonymous_max_processing,
            )
        )

    def validate(self, default_manager: Optional[str] = None) -> None:
        if not self._members and not self.has_anonymous_conditions():
            raise ConditionValidationError(
                "a DestinationSet needs members or anonymous conditions"
            )
        member_count = len(self._members)
        for min_name, max_name in (
            ("min_nr_pick_up", "max_nr_pick_up"),
            ("min_nr_processing", "max_nr_processing"),
            ("anonymous_min_pick_up", "anonymous_max_pick_up"),
            ("anonymous_min_processing", "anonymous_max_processing"),
        ):
            min_value = getattr(self, min_name)
            max_value = getattr(self, max_name)
            if min_value is not None and max_value is not None and min_value > max_value:
                raise ConditionValidationError(
                    f"{min_name} ({min_value}) exceeds {max_name} ({max_value})"
                )
        for name in ("min_nr_pick_up", "min_nr_processing"):
            value = getattr(self, name)
            if value is not None and value > member_count:
                raise ConditionValidationError(
                    f"{name} ({value}) exceeds the member count ({member_count})"
                )
        if (self.min_nr_pick_up is not None or self.max_nr_pick_up is not None) and (
            self.msg_pick_up_time is None
        ):
            raise ConditionValidationError(
                "min/max_nr_pick_up require msg_pick_up_time on the set"
            )
        if (
            self.min_nr_processing is not None
            or self.max_nr_processing is not None
        ) and self.msg_processing_time is None:
            raise ConditionValidationError(
                "min/max_nr_processing require msg_processing_time on the set"
            )
        # Duplicate destinations make ack assignment ambiguous (the later
        # leaf takes every ack); reject them early.  A leaf naming the
        # sender's own manager is the same destination as one naming none.
        seen = set()
        for dest in self.destinations():
            key = (dest.manager or default_manager, dest.queue, dest.recipient)
            if key in seen:
                raise ConditionValidationError(
                    f"duplicate destination {key!r} in one condition tree"
                )
            seen.add(key)
        for child in self._members:
            child.validate(default_manager)

    def __repr__(self) -> str:
        parts = [f"members={len(self._members)}"]
        if self.msg_pick_up_time is not None:
            parts.append(f"pick_up={self.msg_pick_up_time}")
        if self.msg_processing_time is not None:
            parts.append(f"processing={self.msg_processing_time}")
        if self.min_nr_pick_up is not None:
            parts.append(f"min_pick_up={self.min_nr_pick_up}")
        if self.min_nr_processing is not None:
            parts.append(f"min_processing={self.min_nr_processing}")
        return f"DestinationSet({', '.join(parts)})"
