"""``timeout_compensate_virtual``: the failure half of the paper.

Four receivers on the **virtual** clock (a deadline wait is the
application's choice, not program cost — wall time is what is measured),
``binfile:`` journals, the paper's Example 1 nested condition with
2 s / 4 s / 6 s windows and staged compensations.  Sends go out in
bursts of 16; each burst takes the next scenario of a seeded order that
``ScriptedReceiver``s act out:

``all_ok``         every read and commit lands in time -> success
``missed_pickup``  R4 never reads                      -> failure
``too_few``        only one of the subset processes     -> failure
``r3_abort``       R3's transactional read rolls back   -> failure

After each burst a sweep read on every receiver consumes the released
compensations and cancels original/compensation pairs still co-resident.
Same layers as ``fanout8_binfile``, used the other way round:
evaluation by deadline instead of by ack, ``CompensationManager.release``
instead of ``discard``, ``commit_tx``/``abort_tx`` and ``_cancel_pairs``
in ``core.receiver``, a nested tree in ``core.satisfaction``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.chaos.invariants import EpisodeLedger, SendRecord
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler
from repro.workloads.receivers import ReceiverMode, ReceiverScript, ScriptedReceiver
from repro.workloads.scenarios import build_example1_condition

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    Deployment,
    Workload,
    check_invariants,
    check_outcomes,
    check_system_queues_empty,
    checkpoint_all,
    restart_summary,
    text_payloads,
    timed_restarts,
)

RECEIVERS = ["R1", "R2", "R3", "R4"]
BURST = 16
LATENCY_MS = 10
WINDOWS_MS = (2_000, 4_000, 6_000)  # pick-up, R3 processing, subset processing
BODY_CHARS = 256

_COMMIT, _READ, _ABORT, _IGNORE = (
    ReceiverMode.PROCESS_COMMIT,
    ReceiverMode.READ,
    ReceiverMode.PROCESS_ABORT,
    ReceiverMode.IGNORE,
)
#: scenario -> (predicted success, mode of R1..R4)
SCENARIOS: Dict[str, Tuple[bool, Tuple[ReceiverMode, ...]]] = {
    "all_ok": (True, (_COMMIT, _COMMIT, _COMMIT, _READ)),
    "missed_pickup": (False, (_COMMIT, _COMMIT, _COMMIT, _IGNORE)),
    "too_few": (False, (_COMMIT, _READ, _COMMIT, _READ)),
    "r3_abort": (False, (_COMMIT, _COMMIT, _ABORT, _READ)),
}
#: Every five bursts hold exactly this mix; the seed only orders it, so
#: no seed gets an easier run than another.
SCENARIO_BLOCK = ("all_ok", "all_ok", "missed_pickup", "too_few", "r3_abort")


class TimeoutCompensateWorkload(Workload):
    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale, rss_after_ops=2_000)
        self.warmup_bursts = self.sized(4, 1)
        self.in_flight = self.sized(500, 4)
        self.profile_bursts = self.sized(13, 1)
        self.bodies = text_payloads(self.rng, BODY_CHARS)
        self.ledger = EpisodeLedger()
        self.sequence = 0
        self.upcoming: List[str] = []
        self.deployment: Deployment = None  # type: ignore[assignment]

    # -- phases ---------------------------------------------------------------

    def setup(self, directory: str) -> None:
        self.deployment = self._deploy(directory, start_ms=0)
        for _ in range(self.warmup_bursts):
            self._burst(record=False)

    def _deploy(self, directory: str, start_ms: int, recover: bool = False) -> Deployment:
        clock = SimulatedClock(start_ms)
        deployment = Deployment(
            directory,
            "binfile",
            RECEIVERS,
            clock,
            scheduler=EventScheduler(clock),
            latency_ms=LATENCY_MS,
            recover=recover,
        )
        pick_up, r3, subset = WINDOWS_MS
        self.condition = build_example1_condition(
            deployment,
            pick_up_window_ms=pick_up,
            r3_processing_ms=r3,
            subset_processing_ms=subset,
        )
        self.destinations = [
            (f"QM.{name}", deployment.queue_of(name)) for name in RECEIVERS
        ]
        return deployment

    def _send(self, succeeds: bool) -> Tuple[str, float, float]:
        index = self.sequence % len(self.bodies)
        self.sequence += 1
        self.attempted += 1
        started = time.perf_counter()
        cmid = self.deployment.service.send_message(
            {"seq": self.sequence, "payload": self.bodies[index]},
            self.condition,
            compensation={"undo": self.sequence},
        )
        sent = time.perf_counter()
        self.expected[cmid] = succeeds
        self.ledger.record_send(SendRecord(cmid, self.destinations))
        return cmid, started, sent

    def _script(
        self, name: str, mode: ReceiverMode, count: int, react_ms: Tuple[int, int],
        process_ms: int,
    ) -> List[ScriptedReceiver]:
        """``count`` scripted reads of one receiver, at seeded reaction times."""
        deployment = self.deployment
        if mode is _ABORT:
            # One rolled-back read, then the receiver stays away: the
            # originals meet their compensations in the queue.
            count = 1
        scripts = [
            ScriptedReceiver(
                deployment.receivers[name],
                deployment.scheduler,
                ReceiverScript(
                    queue=deployment.queue_of(name),
                    react_after_ms=self.rng.randint(*react_ms),
                    mode=mode,
                    process_ms=process_ms,
                ),
            )
            for _ in range(count)
        ]
        for script in scripts:
            script.start()
        return scripts

    def _settle(self, scripts: Dict[str, List[ScriptedReceiver]]) -> None:
        """Run the clock dry, then sweep every inbox as the receivers would."""
        deployment = self.deployment
        deployment.scheduler.run_all()
        for name, acted in scripts.items():
            manager = f"QM.{name}"
            # A rolled-back read consumed nothing.  A script may be handed
            # a compensation instead of an original when the failure was
            # decided (and compensated) before its turn came.
            consumed = [
                received
                for script in acted
                if script.script.mode in (_COMMIT, _READ)
                for received in script.log.reads
            ]
            consumed += deployment.receivers[name].read_all(deployment.queue_of(name))
            for received in consumed:
                if received.is_compensation:
                    self.ledger.record_compensation(received.cmid, manager)
                else:
                    self.ledger.record_read(received.cmid, manager)
        deployment.scheduler.run_all()
        self.outcomes.extend(deployment.drain_outcomes())

    def _burst(self, record: bool = True) -> Tuple[int, int]:
        """One burst; returns (messages sent, of which predicted to fail)."""
        if not self.upcoming:
            self.upcoming = self.rng.sample(SCENARIO_BLOCK, len(SCENARIO_BLOCK))
        succeeds, modes = SCENARIOS[self.upcoming.pop()]
        sends = [self._send(succeeds) for _ in range(BURST)]
        scripts = {
            name: self._script(name, mode, BURST, (50, 1_200), 20)
            for name, mode in zip(RECEIVERS, modes)
        }
        self._settle(scripts)
        if record:
            landed = dict(self.deployment.landed)
            done_at = time.perf_counter()
            for cmid, started, sent in sends:
                self.samples.add(
                    done_at,
                    sent - started,
                    landed[cmid] - started if cmid in landed else None,
                )
        self.deployment.landed.clear()
        return BURST, 0 if succeeds else BURST

    def _counts(self) -> Dict[str, float]:
        deployment = self.deployment
        return layers.count(
            deployment.managers.values(),
            deployment.service,
            deployment.receivers.values(),
        )

    def measure(self, seconds: float) -> None:
        before = self._counts()
        started = now = time.perf_counter()
        deadline = started + seconds
        sent = failed = 0
        while now < deadline:
            burst_sent, burst_failed = self._burst()
            sent += burst_sent
            failed += burst_failed
            now = time.perf_counter()
            self.rss.note(sent)
        self.counted = layers.delta(self._counts(), before)
        self.measured = {
            **self.samples.summary(started, now),
            "elapsed_s": now - started,
            "decided": sent,
            "failed": failed,
            "store_bytes": self.counted["journal.bytes"],
            "user_bytes": sent * BODY_CHARS,
        }

    def recovery(self, reps: int) -> None:
        old = self.deployment
        checkpoint_all(old.managers.values())
        for _ in range(self.in_flight):
            self._send(True)
        old.scheduler.run_for(5 * LATENCY_MS)  # every copy reaches its inbox
        depths = old.depths()
        records = old.log_records()
        now_ms = old.clock.now_ms()
        old.close()
        times, self.deployment = timed_restarts(
            old.directory, reps,
            lambda d: self._deploy(d, start_ms=now_ms, recover=True),
        )
        # Let the channels re-drive the resurrected spool copies while the
        # originals still sit unread: the restarted network has lost its
        # resolution record and recognises a duplicate only by finding the
        # first copy in the inbox (README, "Findings log").
        self.deployment.scheduler.run_for(5 * LATENCY_MS)
        self.failures.check(
            self.deployment.depths() == depths,
            "recovered queue depths differ from the depths before the close",
        )
        _, modes = SCENARIOS["all_ok"]
        scripts = {
            name: self._script(name, mode, self.in_flight, (1, 1_000), 1)
            for name, mode in zip(RECEIVERS, modes)
        }
        self._settle(scripts)
        self.deployment.landed.clear()
        self.recovered = restart_summary(times, self.in_flight, records)

    def verify(self) -> None:
        check_outcomes(self.failures, self.expected, self.outcomes)
        check_system_queues_empty(self.failures, self.deployment.sender)
        check_invariants(self.failures, self.deployment, self.ledger, self.outcomes)

    def teardown(self) -> None:
        self.deployment.close()

    def profile_slice(self) -> int:
        return sum(self._burst(record=False)[0] for _ in range(self.profile_bursts))
