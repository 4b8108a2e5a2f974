"""Coupling modes: dependency declarations between transactions and messages.

The paper's related work (references [8,9]: Liebig/Malva/Buchmann's X²TS
and Liebig/Tai's middleware-mediated transactions) frames the integration
of messaging and transactions through *coupling modes*: forward
dependencies (the message's visibility depends on the sender's
transaction) and backward dependencies (the sender's transaction outcome
depends on the message's processing).  The paper positions conditional
messaging as "a flexible way [of] specifying different kinds of backward
dependencies" (§4.1).

This module makes that mapping executable.  A :class:`CoupledSender`
wraps a Dependency-Sphere and sends each message under one of four
coupling modes:

* ``IMMEDIATE`` — no coupling either way: the message is sent directly
  through the conditional messaging service, outside the sphere; its
  outcome affects nothing.
* ``ON_COMMIT`` — forward dependency: the message is *published only if*
  the sphere's group outcome is success (conventional messaging-
  transaction visibility), and carries no backward influence.
* ``VITAL`` — backward dependency: the message is a full sphere member
  (sent immediately, monitored); its failure fails the sphere.
* ``NON_VITAL`` — monitored but non-binding: the message is sent
  immediately and evaluated, its compensation/success actions follow the
  *group* outcome, but its own failure does **not** fail the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.core.conditions import Condition
from repro.core.outcome import MessageOutcome, OutcomeRecord
from repro.dsphere.context import DSphere, DSphereOutcome
from repro.dsphere.coordinator import DSphereService
from repro.errors import NoDSphereError


class CouplingMode(Enum):
    """How a message couples to the enclosing unit of work."""

    IMMEDIATE = "immediate"
    ON_COMMIT = "on_commit"
    VITAL = "vital"
    NON_VITAL = "non_vital"


@dataclass
class _OnCommitEntry:
    body: Any
    condition: Condition
    compensation: Any
    sent_cmid: Optional[str] = None


@dataclass
class CoupledUnit:
    """Bookkeeping for one sphere's coupled sends."""

    sphere: DSphere
    on_commit: List[_OnCommitEntry] = field(default_factory=list)
    non_vital: Dict[str, Optional[OutcomeRecord]] = field(default_factory=dict)

    def on_commit_cmids(self) -> List[str]:
        """Conditional message ids of ON_COMMIT sends (after release)."""
        return [e.sent_cmid for e in self.on_commit if e.sent_cmid is not None]


class CoupledSender:
    """Sends conditional messages under explicit coupling modes.

    Wraps a :class:`~repro.dsphere.coordinator.DSphereService`; the
    application demarcates with :meth:`begin`, :meth:`commit`,
    :meth:`abort` and sends with :meth:`send`.
    """

    def __init__(self, dsphere_service: DSphereService) -> None:
        self.dsphere = dsphere_service
        self.messaging = dsphere_service.messaging
        self._units: Dict[str, CoupledUnit] = {}
        self._current: Optional[CoupledUnit] = None

    # -- demarcation --------------------------------------------------------

    def begin(self, timeout_ms: Optional[int] = None) -> CoupledUnit:
        """Open a coupled unit of work (a D-Sphere underneath)."""
        sphere = self.dsphere.begin_DS(timeout_ms=timeout_ms)
        unit = CoupledUnit(sphere=sphere)
        self._units[sphere.ds_id] = unit
        self._current = unit
        return unit

    def send(
        self,
        body: Any,
        condition: Condition,
        mode: CouplingMode = CouplingMode.VITAL,
        compensation: Any = None,
    ) -> Optional[str]:
        """Send under the given coupling mode.

        Returns the conditional message id, or ``None`` for ``ON_COMMIT``
        sends (which have no id until the unit commits).
        """
        if mode is CouplingMode.IMMEDIATE:
            # Outside the unit entirely.
            return self.messaging.send_message(
                body, condition, compensation=compensation
            )
        unit = self._require_unit()
        if mode is CouplingMode.VITAL:
            return self.dsphere.send_message(
                body, condition, compensation=compensation
            )
        if mode is CouplingMode.ON_COMMIT:
            # fail fast, like an immediate send would
            condition.validate(self.messaging.manager.name)
            unit.on_commit.append(
                _OnCommitEntry(body=body, condition=condition,
                               compensation=compensation)
            )
            return None
        # NON_VITAL: monitored, actions follow the group outcome, but the
        # sphere does not track it as a member (its failure is not vital).
        cmid = self.messaging.send_message(
            body,
            condition,
            compensation=compensation,
            _defer_actions=lambda record, unit=unit: self._non_vital_decided(
                unit, record
            ),
        )
        unit.non_vital[cmid] = None
        return cmid

    def commit(self) -> CoupledUnit:
        """Commit the unit: group-commit the sphere; on success, release
        the ON_COMMIT sends (their evaluations then run standalone)."""
        unit = self._require_unit()
        self.dsphere.commit_DS()
        self._watch_completion(unit)
        self._current = None
        return unit

    def abort(self, reason: str = "abort") -> CoupledUnit:
        """Abort the unit: the sphere fails, ON_COMMIT sends are dropped."""
        unit = self._require_unit()
        self.dsphere.abort_DS(reason)
        self._watch_completion(unit)
        self._current = None
        return unit

    # -- internals -------------------------------------------------------------

    def _require_unit(self) -> CoupledUnit:
        if self._current is None or self._current.sphere.is_complete:
            raise NoDSphereError("no active coupled unit of work")
        return self._current

    def _watch_completion(self, unit: CoupledUnit) -> None:
        """Run coupled post-actions when the sphere completes (fires
        immediately if it already has)."""
        self.dsphere.on_complete(unit.sphere, lambda _sphere: self._on_unit_complete(unit))

    def _on_unit_complete(self, unit: CoupledUnit) -> None:
        if unit.sphere.group_outcome is DSphereOutcome.SUCCESS:
            for entry in unit.on_commit:
                if entry.sent_cmid is None:
                    entry.sent_cmid = self.messaging.send_message(
                        entry.body,
                        entry.condition,
                        compensation=entry.compensation,
                    )
        else:
            unit.on_commit.clear()  # forward dependency: never published

    def _non_vital_decided(self, unit: CoupledUnit, record: OutcomeRecord) -> None:
        unit.non_vital[record.cmid] = record

        def apply(sphere: DSphere) -> None:
            group_as_message = (
                MessageOutcome.SUCCESS
                if sphere.group_outcome is DSphereOutcome.SUCCESS
                else MessageOutcome.FAILURE
            )
            self.messaging.apply_outcome_actions(record.cmid, group_as_message)

        # Actions follow the group outcome, whenever it lands.
        self.dsphere.on_complete(unit.sphere, apply)
