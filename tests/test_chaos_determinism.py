"""Replay determinism: deterministic id scopes and timeline hashes.

A chaos reproducer is only a reproducer if replaying it — in this
process or a fresh one — walks the exact same trajectory.  These tests
pin the two pillars: seeded id generators scoped by
``repro.sim.determinism.deterministic_ids``, and the flight recorder's
canonical ``timeline_hash`` that episodes report.
"""

import subprocess
import sys
from pathlib import Path

from repro.chaos import ChaosExplorer, EpisodeSpec
from repro.core.ids import deterministic_cmids, new_conditional_message_id
from repro.mq.message import deterministic_message_ids, new_message_id
from repro.obs.trace import FlightRecorder
from repro.sim.determinism import deterministic_ids

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDeterministicIdScopes:
    def test_cmids_reproducible_under_same_seed(self):
        with deterministic_cmids(7):
            first = [new_conditional_message_id() for _ in range(5)]
        with deterministic_cmids(7):
            second = [new_conditional_message_id() for _ in range(5)]
        assert first == second
        assert all(cmid.startswith("CM-") for cmid in first)

    def test_cmids_differ_across_seeds(self):
        with deterministic_cmids(1):
            a = new_conditional_message_id()
        with deterministic_cmids(2):
            b = new_conditional_message_id()
        assert a != b

    def test_cmid_generator_restored_on_exit(self):
        with deterministic_cmids(7):
            inside = new_conditional_message_id()
        outside = new_conditional_message_id()
        # The production generator's global sequence keeps counting and
        # its random fragment is fresh entropy; a second deterministic
        # scope restarts at the exact same id.
        with deterministic_cmids(7):
            again = new_conditional_message_id()
        assert inside == again
        assert outside != inside

    def test_message_ids_reproducible_under_same_seed(self):
        with deterministic_message_ids(7):
            first = [new_message_id() for _ in range(5)]
        with deterministic_message_ids(7):
            second = [new_message_id() for _ in range(5)]
        assert first == second
        assert all(mid.startswith("MSG-") for mid in first)

    def test_message_id_generator_restored_on_exit(self):
        with deterministic_message_ids(7):
            inside = new_message_id()
        with deterministic_message_ids(7):
            again = new_message_id()
        assert inside == again

    def test_combined_scope_covers_both_generators(self):
        with deterministic_ids(42):
            cmids = [new_conditional_message_id() for _ in range(3)]
            mids = [new_message_id() for _ in range(3)]
        with deterministic_ids(42):
            assert [new_conditional_message_id() for _ in range(3)] == cmids
            assert [new_message_id() for _ in range(3)] == mids

    def test_scopes_nest_innermost_wins(self):
        with deterministic_cmids(1):
            outer_first = new_conditional_message_id()
            with deterministic_cmids(2):
                inner = new_conditional_message_id()
            outer_second = new_conditional_message_id()
        with deterministic_cmids(2):
            assert new_conditional_message_id() == inner
        with deterministic_cmids(1):
            assert new_conditional_message_id() == outer_first
            assert new_conditional_message_id() == outer_second


class TestTimelineHash:
    def test_empty_recorder_has_stable_hash(self):
        assert FlightRecorder().timeline_hash() == FlightRecorder().timeline_hash()

    def test_hash_covers_every_field(self):
        def recorder_with(**overrides):
            recorder = FlightRecorder()
            event = dict(
                stage="send", at_ms=10, cmid="CM-1", manager="QM.S",
                queue="Q.A", message_id="MSG-1",
            )
            event.update(overrides)
            recorder.emit(**event)
            return recorder

        base = recorder_with().timeline_hash()
        assert recorder_with(at_ms=11).timeline_hash() != base
        assert recorder_with(stage="ack").timeline_hash() != base
        assert recorder_with(cmid="CM-2").timeline_hash() != base
        assert recorder_with(queue="Q.B").timeline_hash() != base
        assert recorder_with(message_id="MSG-2").timeline_hash() != base
        assert recorder_with(extra="detail").timeline_hash() != base

    def test_hash_depends_on_event_order(self):
        a = FlightRecorder()
        a.emit("send", at_ms=1, cmid="CM-1")
        a.emit("ack", at_ms=1, cmid="CM-1")
        b = FlightRecorder()
        b.emit("ack", at_ms=1, cmid="CM-1")
        b.emit("send", at_ms=1, cmid="CM-1")
        assert a.timeline_hash() != b.timeline_hash()


class TestEpisodeReplayDeterminism:
    def test_same_spec_same_timeline_hash(self):
        spec = EpisodeSpec.generate(11)
        first = ChaosExplorer().run_episode(spec)
        second = ChaosExplorer().replay(spec.to_json())
        assert first.timeline_hash
        assert first.timeline_hash == second.timeline_hash

    def test_crash_episode_replays_to_identical_timeline(self, tmp_path):
        # Crash/recover cycles re-allocate ids during recovery; the
        # deterministic scope must cover those too.
        spec = EpisodeSpec.generate(4, journal="binfile")
        explorer = ChaosExplorer(journal_dir=str(tmp_path))
        first = explorer.run_episode(spec)
        second = explorer.run_episode(spec)
        assert first.crashes >= 1
        assert first.timeline_hash == second.timeline_hash

    def test_different_seeds_different_hashes(self):
        explorer = ChaosExplorer()
        a = explorer.run_episode(EpisodeSpec.generate(11))
        b = explorer.run_episode(EpisodeSpec.generate(12))
        assert a.timeline_hash != b.timeline_hash

    def test_fresh_process_replay_is_byte_identical(self, tmp_path):
        # The whole point: a reproducer replayed in a NEW interpreter
        # (fresh global id counters, fresh hash seed, fresh everything)
        # must print the same timeline hash as this process computed.
        spec = EpisodeSpec.generate(11)
        local = ChaosExplorer().run_episode(spec)
        path = tmp_path / "repro.json"
        ChaosExplorer().write_repro(spec, str(path))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.chaos", "--replay", str(path)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        hashes = [
            token.split("=", 1)[1]
            for token in completed.stdout.split()
            if token.startswith("timeline=")
        ]
        assert hashes == [local.timeline_hash]
