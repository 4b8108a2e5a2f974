"""Tests for the seeded chaos explorer: determinism, replay, shrinking."""

import json

import pytest

from repro.chaos import ChaosExplorer, EpisodeSpec, FaultEvent
from repro.core import control
from repro.core.compensation import CompensationManager


class TestEpisodeSpec:
    def test_generate_is_deterministic(self):
        a = EpisodeSpec.generate(123)
        b = EpisodeSpec.generate(123)
        assert a.to_dict() == b.to_dict()

    def test_generate_varies_with_seed(self):
        dicts = {json.dumps(EpisodeSpec.generate(s).to_dict()) for s in range(8)}
        assert len(dicts) > 1

    def test_json_round_trip(self):
        spec = EpisodeSpec.generate(5, journal="binfile")
        again = EpisodeSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert again.journal == "binfile"

    def test_generated_plans_validate(self):
        for seed in range(20):
            EpisodeSpec.generate(seed).plan.validate()


class TestEpisodeRuns:
    def test_episode_replays_identically(self):
        spec = EpisodeSpec.generate(11)
        explorer = ChaosExplorer()
        first = explorer.run_episode(spec)
        second = explorer.replay(spec.to_json())
        assert first.ok and second.ok
        assert (first.sends, first.crashes, first.outcomes) == (
            second.sends,
            second.crashes,
            second.outcomes,
        )
        assert first.faults_fired == second.faults_fired

    def test_explore_runs_consecutive_seeds(self):
        results = ChaosExplorer().explore(3, base_seed=30)
        assert len(results) == 3
        assert all(r.ok for r in results)
        assert [r.spec.seed for r in results] == [30, 31, 32]

    def test_file_journal_episode_with_torn_tail(self, tmp_path, caplog):
        # Seed 4's file-journal plan includes a torn_tail fault that
        # fires mid-episode; FileJournal heals the tear on reopen and
        # logs the truncation.
        spec = EpisodeSpec.generate(4, journal="binfile")
        assert any(e.kind == "torn_tail" for e in spec.plan.events)
        with caplog.at_level("WARNING", logger="repro.mq.persistence"):
            result = ChaosExplorer(journal_dir=str(tmp_path)).run_episode(spec)
        assert result.ok, [str(v) for v in result.violations]
        assert result.crashes >= 1
        assert any(
            "torn trailing record" in record.message for record in caplog.records
        )

    def test_sqlstore_episode_with_crashes(self, tmp_path):
        # The SQL-backed live store plays the journal's role: no replay
        # on recovery (the rows ARE the state), no torn_tail faults (the
        # engine cannot tear), but every crash/recover cycle must uphold
        # the same invariants — including journal coherence, checked via
        # the store's read-only recover() fold.
        spec = EpisodeSpec.generate(4, journal="sqlstore")
        assert not any(e.kind == "torn_tail" for e in spec.plan.events)
        result = ChaosExplorer(journal_dir=str(tmp_path)).run_episode(spec)
        assert result.ok, [str(v) for v in result.violations]
        assert result.crashes >= 1

    def test_sqlstore_episode_replays_identically(self, tmp_path):
        spec = EpisodeSpec.generate(7, journal="sqlstore")
        explorer = ChaosExplorer(journal_dir=str(tmp_path))
        first = explorer.run_episode(spec)
        second = explorer.replay(spec.to_json())
        assert first.ok and second.ok
        assert (first.sends, first.crashes, first.outcomes) == (
            second.sends,
            second.crashes,
            second.outcomes,
        )


class TestShrinking:
    @pytest.fixture
    def broken_release(self, monkeypatch):
        """The journal-bypass mutation from the invariant canaries."""

        def release(self, cmid):
            released = 0
            with self.manager.group_commit():
                for staged in self.staged_for(cmid):
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

    def test_shrink_requires_a_failing_episode(self):
        with pytest.raises(ValueError, match="passing episode"):
            ChaosExplorer().shrink(EpisodeSpec.generate(0))

    def test_shrink_minimizes_and_repro_replays(
        self, broken_release, tmp_path
    ):
        explorer = ChaosExplorer()
        spec = EpisodeSpec.generate(0)
        minimal = explorer.shrink(spec)
        # The planted bug needs no injected faults at all, so shrinking
        # strips the whole plan and cuts the workload.
        assert len(minimal.plan.events) <= len(spec.plan.events)
        assert minimal.workload.messages <= spec.workload.messages
        path = explorer.write_repro(minimal, str(tmp_path / "repro.json"))
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        replayed = explorer.replay(text)
        assert not replayed.ok
        assert any(
            v.invariant == "journal_coherence" for v in replayed.violations
        )


class TestCrashInTheFinalSweep:
    """The final sweep reads (and so flushes) outside the scheduler.  A
    flush-armed crash that lands there is recovered like one in any
    drain, and every read the sweep made durable before the crash stays
    in the ledger."""

    SEED = 2

    def fault_free(self):
        spec = EpisodeSpec.generate(self.SEED)
        spec.plan.events = []
        return spec

    def sweep_flushes(self):
        """Manager -> (flush ordinals before the first sweep, at the end) of
        the fault-free episode, for managers the sweeps flush on.  Ordinals
        count from fault installation, as ``at_flush`` does."""
        marks = {}

        def flushes():
            return {name: j.flush_count for name, j in marks["harness"].journals.items()}

        def on_harness(harness):
            marks["harness"] = harness
            marks["installed"] = flushes()  # set-up is done; nothing ran yet
            sweep = harness.sweep

            def marking_sweep():
                marks.setdefault("swept", flushes())
                return sweep()

            harness.sweep = marking_sweep

        assert ChaosExplorer(on_harness=on_harness).run_episode(self.fault_free()).ok
        installed, swept, end = marks["installed"], marks["swept"], flushes()
        return {
            name: (swept[name] - installed[name], end[name] - installed[name])
            for name in end
            if end[name] > swept[name]
        }

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_every_sweep_flush_can_crash(self, phase):
        sweeps = self.sweep_flushes()
        assert sum(end - start for start, end in sweeps.values()) >= 3
        for manager, (start, end) in sweeps.items():
            for at_flush in range(start + 1, end + 1):
                spec = self.fault_free()
                spec.plan.events = [
                    FaultEvent(
                        kind="crash", manager=manager, at_flush=at_flush, phase=phase
                    )
                ]
                result = ChaosExplorer().run_episode(spec)
                assert result.crashes == 1, (manager, at_flush)
                assert result.ok, (manager, at_flush, [str(v) for v in result.violations])
