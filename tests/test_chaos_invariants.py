"""Mutation canaries: the invariant suite must catch seeded bugs.

Each canary re-introduces a realistic defect (the kind the production
code explicitly defends against) and asserts the
:class:`~repro.chaos.invariants.InvariantSuite` flags it.  A checker
that cannot catch a planted bug proves nothing about the absence of
real ones.
"""

import pytest

from repro.chaos import ChaosExplorer, EpisodeSpec
from repro.chaos.faults import FaultEvent, FaultPlan
from repro.core import control
from repro.core.compensation import CompensationManager


def canary_spec(seed, events):
    """A generated episode with the fault plan replaced by ``events``."""
    spec = EpisodeSpec.generate(seed)
    spec.plan = FaultPlan(seed=seed, events=events)
    return spec


class TestCleanEpisodesPass:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_unmutated_episode_has_no_violations(self, seed):
        result = ChaosExplorer().run_episode(EpisodeSpec.generate(seed))
        assert result.ok, [str(v) for v in result.violations]
        assert result.sends > 0
        assert result.outcomes == result.sends


class TestCompensationReleaseCanary:
    """Mutation: release compensations without journaling the removal.

    The real :meth:`CompensationManager.release` removes each staged
    compensation through the *journaled* ``manager.get_by_id`` so a
    crash cannot resurrect an already-released compensation.  The canary
    removes it at queue level only, leaving the journal claiming the
    message is still staged.
    """

    @pytest.fixture
    def broken_release(self, monkeypatch):
        def release(self, cmid):
            released = 0
            with self.manager.group_commit():
                for staged in self.staged_for(cmid):
                    # MUTATION: bypasses the journal record of the removal.
                    message = self.manager.queue(self.comp_queue).get_by_id(
                        staged.message_id
                    )
                    info = control.extract_control(message)
                    self.manager.put_remote(
                        info.dest_manager, info.dest_queue, message
                    )
                    released += 1
            return released

        monkeypatch.setattr(CompensationManager, "release", release)

    def test_journal_coherence_catches_unjournaled_release(
        self, broken_release
    ):
        result = ChaosExplorer().run_episode(EpisodeSpec.generate(0))
        assert not result.ok
        coherence = [
            v for v in result.violations if v.invariant == "journal_coherence"
        ]
        assert coherence, [str(v) for v in result.violations]
        assert any(
            "DS.COMP.Q" in v.detail and "no longer live" in v.detail
            for v in coherence
        )


class TestExactlyOnceCanary:
    """Mutation: disable the network's transfer dedup, then duplicate.

    With ``exactly_once`` off, an injected duplicate transfer (or a
    crash-window redrive) delivers the same conditional message twice;
    the ack-correlation and compensation invariants must notice.  The
    crash comes before its flush: the spool resolutions waiting for that
    group die with it, so the restart re-drives copies already delivered.
    """

    @pytest.mark.parametrize("seed", [2, 3])
    def test_duplicate_delivery_caught(self, seed):
        spec = canary_spec(
            seed,
            [
                FaultEvent(
                    kind="duplicate",
                    source="QM.SENDER",
                    target="QM.R1",
                    at_ms=120,
                ),
                FaultEvent(
                    kind="crash", manager="QM.SENDER", at_flush=4, phase="pre"
                ),
            ],
        )

        def disable_dedup(harness):
            harness.network.exactly_once = False

        result = ChaosExplorer(on_harness=disable_dedup).run_episode(spec)
        assert not result.ok
        flagged = {v.invariant for v in result.violations}
        assert flagged & {"ack_correlation", "compensation_consistency"}, [
            str(v) for v in result.violations
        ]

    def test_same_plan_with_dedup_enabled_passes(self):
        spec = canary_spec(
            2,
            [
                FaultEvent(
                    kind="duplicate",
                    source="QM.SENDER",
                    target="QM.R1",
                    at_ms=120,
                ),
                FaultEvent(
                    kind="crash", manager="QM.SENDER", at_flush=4, phase="pre"
                ),
            ],
        )
        result = ChaosExplorer().run_episode(spec)
        assert result.ok, [str(v) for v in result.violations]
