"""``fleet_pubsub``: telemetry fan-out and k-of-n availability checks.

Built here on ``TopicBroker`` over a ``binfile:``-journaled hub manager,
virtual clock; the shape is borrowed from ``repro.workloads.fleet``
(10 sites x 100 devices x 3 sensors; ``#``, ``{site}.#`` and
``*.*.temperature`` monitors; churn waves of device-scoped monitors).
The run is a closed loop of **ticks**.  One tick is

* 150 seeded telemetry publishes (trie match or match-cache hit, atomic
  ``put_many`` fan-out into monitor queues of *one* journal),
* the monitors draining what they were sent, and
* one availability check: a conditional message from the ops manager to
  a site's command topic, ``anonymous_min_pick_up`` = 50 of the site's
  100 devices.  Three checks in four are answered by 90 devices in time
  (success on the 50th ack); one in four by only 20 (failure at the
  evaluation timeout); the rest of the site reads late.

It is the only traffic through ``mq.pubsub`` and the only workload where
one conditional message collects ~100 acks against an anonymous bound —
the case an incremental-satisfaction change must not break.
``core.sender`` sees fan-out 1.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.core.builder import destination, destination_set
from repro.core.logqueues import OUTCOME_QUEUE
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.mq.message import Message
from repro.mq.network import MessageNetwork
from repro.mq.pubsub import TopicBroker, is_topic_destination, topic_queue_name
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    Workload,
    check_outcomes,
    checkpoint_all,
    check_system_queues_empty,
    close_manager,
    drain_outcomes,
    open_manager,
    queue_depths,
    ratio,
    restart_summary,
    timed_restarts,
)

HUB = "QM.FLEET.HUB"
OPS = "QM.FLEET.OPS"
SITES = [f"site{i:02d}" for i in range(10)]
DEVICES_PER_SITE = 100
SENSORS = ("temperature", "humidity", "power")
LATENCY_MS = 5
PUBLISHES_PER_TICK = 150
QUORUM = 50
RESPONDERS = {True: 90, False: 20}  # predicted success -> devices in time
#: Every four checks hold exactly one that falls short; the seed orders them.
CHECK_BLOCK = (True, True, True, False)
WINDOW_MS = 5_000
CHURN_EVERY_TICKS = 40
CHURN_MONITORS = 3


def _command_topic(site: str) -> str:
    return f"fleet.{site}.cmd"


class _Fleet:
    """Ops and hub managers, the broker, and every device and monitor."""

    def __init__(self, directory: str, start_ms: int = 0, recover: bool = False) -> None:
        self.directory = directory
        self.clock = SimulatedClock(start_ms)
        self.scheduler = EventScheduler(self.clock)
        self.network = MessageNetwork(scheduler=self.scheduler)
        self.ops = self.network.add_manager(
            open_manager(OPS, self.clock, "binfile", directory, recover)
        )
        self.hub = self.network.add_manager(
            open_manager(HUB, self.clock, "binfile", directory, recover)
        )
        self.service = ConditionalMessagingService(self.ops, scheduler=self.scheduler)
        if recover:
            self.service.recover_from_log()
        self.ready_at = time.perf_counter()
        self.network.connect(OPS, HUB, latency_ms=LATENCY_MS)
        self.broker = TopicBroker(self.hub, retain_last=True)
        self.monitor_queues: List[str] = []
        #: site -> [(receiver endpoint, its command queue)]
        self.devices: Dict[str, List[Tuple[ConditionalMessagingReceiver, str]]] = {}
        self.device_names: List[Tuple[str, str]] = []
        for site_index, site in enumerate(SITES):
            self.broker.define_topic(_command_topic(site))
            members = []
            for slot in range(DEVICES_PER_SITE):
                name = f"dev{site_index * DEVICES_PER_SITE + slot:05d}"
                subscription = self.broker.subscribe(_command_topic(site), f"cmd.{name}")
                members.append(
                    (
                        ConditionalMessagingReceiver(self.hub, recipient_id=name),
                        subscription.queue_name,
                    )
                )
                self.device_names.append((site, name))
            self.devices[site] = members
            self.add_monitor(f"fleet.{site}.#", f"mon.{site}")
        self.add_monitor("fleet.#", "mon.fleet.all")
        self.add_monitor("fleet.*.*.temperature", "mon.fleet.temperature")
        self.landed: List[Tuple[str, float]] = []
        self.ops.queue(OUTCOME_QUEUE).subscribe(
            lambda m: self.landed.append((m.correlation_id, time.perf_counter()))
        )

    def add_monitor(self, pattern: str, name: str, durable: bool = True) -> None:
        subscription = self.broker.subscribe(pattern, name, durable=durable)
        self.monitor_queues.append(subscription.queue_name)

    def managers(self) -> Tuple[Any, Any]:
        return self.ops, self.hub

    def depths(self) -> Dict[str, Dict[str, int]]:
        """Queue depths a restart must reproduce.

        Topic ingress queues are left out: the broker drains them with a
        queue-level get the journal never sees, so a restart resurrects
        every message ever published through them (README, "Defects met").
        """
        return {
            manager.name: {
                queue: depth
                for queue, depth in queue_depths(manager).items()
                if not is_topic_destination(queue)
            }
            for manager in self.managers()
        }

    def close(self) -> None:
        for manager in self.managers():
            close_manager(manager)


class FleetWorkload(Workload):
    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale, rss_after_ops=80)
        self.warmup_ticks = self.sized(6, 1)
        self.in_flight = self.sized(20, 2)
        self.profile_ticks = self.sized(10, 1)
        self.ticks = 0
        self.cursor = 0
        self.churn_serial = 0
        #: device -> churn monitors currently watching it
        self.churn_watchers: Dict[str, int] = {}
        self.expected_deliveries = 0
        self.drained = 0
        self.upcoming: List[bool] = []
        self.fleet: _Fleet = None  # type: ignore[assignment]

    # -- phases ---------------------------------------------------------------

    def setup(self, directory: str) -> None:
        self.fleet = _Fleet(directory)
        # Every (device, sensor) publishes in a seeded order, round after round.
        self.sensors = [
            (site, device, sensor)
            for site, device in self.fleet.device_names
            for sensor in SENSORS
        ]
        self.rng.shuffle(self.sensors)
        for _ in range(self.warmup_ticks):
            self._tick(record=False)

    def _publish_telemetry(self) -> None:
        fleet = self.fleet
        for _ in range(PUBLISHES_PER_TICK):
            site, device, sensor = self.sensors[self.cursor % len(self.sensors)]
            self.cursor += 1
            reading = Message(
                body={"value": round(self.rng.uniform(0.0, 100.0), 3), "tick": self.ticks},
                properties={"site": site, "device": device, "sensor": sensor},
            )
            fleet.broker.publish(f"fleet.{site}.{device}.{sensor}", reading)
            # fleet.# + fleet.<site>.# (+ the temperature monitor) + churn
            self.expected_deliveries += (
                2 + (sensor == "temperature") + self.churn_watchers.get(device, 0)
            )

    def _drain_monitors(self) -> None:
        hub = self.fleet.hub
        with hub.group_commit():
            for queue_name in self.fleet.monitor_queues:
                while hub.get_wait(queue_name) is not None:
                    self.drained += 1

    def _churn(self) -> None:
        """Dashboards reconnect: drop the non-durable monitors, add new ones.

        The new ones catch up from retained state, which is delivery too.
        """
        fleet = self.fleet
        fleet.broker.drop_nondurable()
        self.churn_watchers.clear()
        before = fleet.broker.stats.retained_deliveries
        for _ in range(CHURN_MONITORS):
            site, device = self.rng.choice(fleet.device_names)
            self.churn_serial += 1
            fleet.add_monitor(
                f"fleet.{site}.{device}.*", f"mon.churn.{self.churn_serial}", durable=False
            )
            self.churn_watchers[device] = self.churn_watchers.get(device, 0) + 1
        self.expected_deliveries += fleet.broker.stats.retained_deliveries - before

    def _send_check(self, site: str, succeeds: bool) -> Tuple[str, float, float]:
        self.attempted += 1
        condition = destination_set(
            destination(topic_queue_name(_command_topic(site)), manager=HUB),
            msg_pick_up_time=WINDOW_MS,
            anonymous_min_pick_up=QUORUM,
            evaluation_timeout=WINDOW_MS + 1_000,
        )
        started = time.perf_counter()
        cmid = self.fleet.service.send_message(
            {"command": "availability-ping", "site": site, "quorum": QUORUM},
            condition,
            stage_compensation=False,  # a ping has nothing to undo
        )
        sent = time.perf_counter()
        self.expected[cmid] = succeeds
        self.expected_deliveries += 2  # the ping matches fleet.# and fleet.<site>.#
        return cmid, started, sent

    def _schedule_reads(self, site: str, in_time: int) -> None:
        """``in_time`` seeded devices answer inside the window, the rest late."""
        fleet = self.fleet
        members = list(fleet.devices[site])
        self.rng.shuffle(members)
        for index, (endpoint, queue_name) in enumerate(members):
            if index < in_time:
                delay = self.rng.randint(LATENCY_MS + 1, WINDOW_MS // 2)
            else:
                delay = WINDOW_MS + self.rng.randint(1_500, 2_500)
            fleet.scheduler.call_later(
                delay, lambda e=endpoint, q=queue_name: e.read_all(q)
            )

    def _tick(self, record: bool = True) -> None:
        fleet = self.fleet
        self.ticks += 1
        if self.ticks % CHURN_EVERY_TICKS == 0:
            self._churn()
        self._publish_telemetry()
        site = SITES[self.ticks % len(SITES)]
        if not self.upcoming:
            self.upcoming = self.rng.sample(CHECK_BLOCK, len(CHECK_BLOCK))
        succeeds = self.upcoming.pop()
        cmid, started, sent = self._send_check(site, succeeds)
        self._schedule_reads(site, RESPONDERS[succeeds])
        fleet.scheduler.run_all()
        self._drain_monitors()
        self.outcomes.extend(drain_outcomes(fleet.service))
        if record:
            landed = fleet.landed
            self.samples.add(
                time.perf_counter(),
                sent - started,
                landed[-1][1] - started if landed and landed[-1][0] == cmid else None,
            )
        fleet.landed.clear()

    def _counts(self) -> Dict[str, float]:
        fleet = self.fleet
        endpoints = [e for members in fleet.devices.values() for e, _ in members]
        return layers.count(fleet.managers(), fleet.service, endpoints, broker=fleet.broker)

    def measure(self, seconds: float) -> None:
        before = self._counts()
        ticks_before = self.ticks
        started = now = time.perf_counter()
        deadline = started + seconds
        while now < deadline:
            self._tick()
            now = time.perf_counter()
            self.rss.note(self.ticks - ticks_before)
        elapsed = now - started
        decided = self.ticks - ticks_before
        self.counted = layers.delta(self._counts(), before)
        self.measured = {
            **self.samples.summary(started, now),
            "elapsed_s": elapsed,
            "decided": decided,
            "failed": self.counted["eval.failed"],
            "store_bytes": self.counted["journal.bytes"],
            "user_bytes": 0,  # telemetry dominates; no meaningful user size
            "publish_per_s": ratio(self.counted["pubsub.published"], elapsed),
        }

    def recovery(self, reps: int) -> None:
        """K checks fanned out and unread, both stores closed, restart."""
        old = self.fleet
        checkpoint_all(old.managers())
        sites = [SITES[i % len(SITES)] for i in range(self.in_flight)]
        for site in sites:
            self._send_check(site, True)
        old.scheduler.run_for(5 * LATENCY_MS)  # fan-out reaches every device
        self._drain_monitors()
        self._check_deliveries()  # the restarted broker counts from zero
        self.drained = self.expected_deliveries = 0
        depths = old.depths()
        records = sum(m.journal.size() for m in old.managers())
        now_ms = old.clock.now_ms()
        old.close()
        times, self.fleet = timed_restarts(
            old.directory, reps,
            lambda d: _Fleet(d, start_ms=now_ms, recover=True),
        )
        self.failures.check(
            self.fleet.depths() == depths,
            "recovered queue depths differ from the depths before the close",
        )
        self.fleet.scheduler.run_for(5 * LATENCY_MS)  # channels re-drive
        for site in dict.fromkeys(sites):
            self._schedule_reads(site, RESPONDERS[True])
        self.fleet.scheduler.run_all()
        self.outcomes.extend(drain_outcomes(self.fleet.service))
        self.fleet.landed.clear()
        self.recovered = restart_summary(times, self.in_flight, records)

    def verify(self) -> None:
        fleet = self.fleet
        self._drain_monitors()
        check_outcomes(self.failures, self.expected, self.outcomes)
        check_system_queues_empty(self.failures, fleet.ops)
        self._check_deliveries()
        unread = sum(
            fleet.hub.depth(queue_name)
            for members in fleet.devices.values()
            for _, queue_name in members
        )
        self.failures.check(unread == 0, f"{unread} command copies left unread")

    def _check_deliveries(self) -> None:
        """Monitors got exactly the copies the topic patterns predict."""
        broker = self.fleet.broker
        to_devices = sum(
            broker.subscription(f"cmd.{name}").delivered
            for _, name in self.fleet.device_names
        )
        delivered = broker.stats.deliveries - to_devices
        self.failures.check(
            self.drained == self.expected_deliveries == delivered,
            f"monitors drained {self.drained}, broker delivered {delivered},"
            f" predicted {self.expected_deliveries}",
        )

    def teardown(self) -> None:
        self.fleet.close()

    def profile_slice(self) -> int:
        for _ in range(self.profile_ticks):
            self._tick(record=False)
        return self.profile_ticks

    def layer_facts(self) -> Dict[str, float]:
        return {**super().layer_facts(), "publish_per_s": self.measured["publish_per_s"]}
