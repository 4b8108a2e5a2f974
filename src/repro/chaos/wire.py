"""Chaos over the wire: real ChannelEngines on a simulated lossy TCP pipe.

The ``transport=tcp`` chaos family.  Where the main chaos explorer
stresses the *messaging* semantics over the in-process
``MessageNetwork``, this module stresses the *wire protocol* itself —
the exact :class:`~repro.net.protocol.ChannelEngine` code the asyncio
transport runs in production — under a seeded simulated connection:

* byte chunks cross the pipe with latency, split so a connection drop
  can land **mid-frame** (the surviving half-frame must be discarded by
  the epoch reset, never mis-parsed);
* seeded **connection drops** kill both endpoints mid-transfer; bytes
  in flight die with the epoch, reconnection re-handshakes (HELLO
  resync) and retransmits;
* **deferred confirmations** model group commit holding the durability
  callback: a delivery's ack can cross a reconnect, forcing the
  duplicate-delivery-after-reconnect path through the id-dedup layer.

Invariants per episode (zero tolerance, like the main corpus):

1. every sent message is delivered exactly once (no loss, no dupes),
2. deliveries arrive in send order (cumulative-ack protocol promise),
3. the sender's in-doubt spool fully resolves (nothing stuck),
4. engine state converges (nothing unacked, cursor == confirmed).

Episodes derive from one seed (:meth:`WireEpisodeSpec.generate`) and
serialize to JSON reproducers, mirroring the main explorer.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mq.message import Message
from repro.net.framing import FrameError
from repro.net.protocol import ChannelEngine, ProtocolError
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler

__all__ = [
    "WireFault",
    "WireEpisodeSpec",
    "WireEpisodeResult",
    "WireChaosHarness",
    "run_wire_episode",
    "run_wire_corpus",
]


@dataclass
class WireFault:
    """One seeded connection drop."""

    at_ms: int
    reconnect_after_ms: int

    def to_dict(self) -> Dict[str, int]:
        return {"at_ms": self.at_ms, "reconnect_after_ms": self.reconnect_after_ms}

    @classmethod
    def from_dict(cls, data: Dict) -> "WireFault":
        return cls(
            at_ms=int(data["at_ms"]),
            reconnect_after_ms=int(data["reconnect_after_ms"]),
        )


@dataclass
class WireEpisodeSpec:
    """One wire-chaos episode, fully derived from a seed."""

    seed: int = 0
    messages: int = 10
    gap_ms: int = 40
    latency_ms: int = 5
    window: int = 8
    initial_rto_ms: int = 80
    #: ms between a delivery and its durable confirmation (0 = immediate)
    confirm_delay_ms: int = 0
    faults: List[WireFault] = field(default_factory=list)

    @classmethod
    def generate(cls, seed: int) -> "WireEpisodeSpec":
        rng = random.Random(seed)
        messages = rng.randint(8, 24)
        gap = rng.randint(15, 80)
        spec = cls(
            seed=seed,
            messages=messages,
            gap_ms=gap,
            latency_ms=rng.randint(2, 15),
            window=rng.randint(3, 12),
            initial_rto_ms=rng.randint(50, 200),
            confirm_delay_ms=rng.choice([0, 0, rng.randint(5, 40)]),
        )
        horizon = messages * gap
        for _ in range(rng.randint(1, 3)):
            spec.faults.append(
                WireFault(
                    at_ms=rng.randint(5, max(horizon, 6)),
                    reconnect_after_ms=rng.randint(20, 300),
                )
            )
        spec.faults.sort(key=lambda fault: fault.at_ms)
        return spec

    def to_dict(self) -> Dict:
        return {
            "transport": "tcp",
            "seed": self.seed,
            "messages": self.messages,
            "gap_ms": self.gap_ms,
            "latency_ms": self.latency_ms,
            "window": self.window,
            "initial_rto_ms": self.initial_rto_ms,
            "confirm_delay_ms": self.confirm_delay_ms,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict) -> "WireEpisodeSpec":
        return cls(
            seed=int(data.get("seed", 0)),
            messages=int(data.get("messages", 10)),
            gap_ms=int(data.get("gap_ms", 40)),
            latency_ms=int(data.get("latency_ms", 5)),
            window=int(data.get("window", 8)),
            initial_rto_ms=int(data.get("initial_rto_ms", 80)),
            confirm_delay_ms=int(data.get("confirm_delay_ms", 0)),
            faults=[WireFault.from_dict(f) for f in data.get("faults", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "WireEpisodeSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class WireEpisodeResult:
    """One wire episode's outcome and wire counters."""

    spec: WireEpisodeSpec
    violations: List[str]
    delivered: int = 0
    duplicates_suppressed: int = 0
    retransmits: int = 0
    reconnects: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class WireChaosHarness:
    """Drives a sender/receiver engine pair over a scheduled lossy pipe."""

    def __init__(self, spec: WireEpisodeSpec) -> None:
        self.spec = spec
        self.clock = SimulatedClock()
        self.scheduler = EventScheduler(self.clock)
        self.sender = ChannelEngine(
            "QM.SRC", "sender", initial_rto_ms=float(spec.initial_rto_ms)
        )
        self.receiver = ChannelEngine(
            "QM.DST", "receiver", window=spec.window
        )
        #: message_id -> message; the sender's durable in-doubt spool
        self.spool: Dict[str, Message] = {}
        self.inflight: set = set()
        self.sent_order: List[str] = []
        self.delivered_order: List[str] = []
        self._delivered_ids: set = set()
        self.duplicates_suppressed = 0
        #: epoch fences in-flight bytes: a chunk scheduled under epoch N
        #: is discarded if the connection dropped (N bumped) before it
        #: lands — exactly TCP data dying with the connection.
        self.epoch = 0
        self.connected = False
        self._timer_version = 0
        #: per-direction watermark of the latest scheduled arrival time,
        #: so back-to-back flushes keep the stream FIFO: without it, two
        #: flushes <1 ms apart would interleave their split halves and
        #: corrupt frames that a real TCP stream would deliver in order.
        self._pipe_busy_until: Dict[int, float] = {}
        self.errors: List[str] = []

    # -- pipe ----------------------------------------------------------------

    def _now(self) -> float:
        return float(self.clock.now_ms())

    def _flush(self, engine: ChannelEngine) -> None:
        """Move an engine's outbound bytes onto the scheduled pipe.

        Chunks are split in two and delivered 1 ms apart, so a drop
        between the halves leaves the peer holding a truncated frame.
        """
        if not self.connected:
            return
        data = engine.data_to_send()
        if not data:
            return
        peer = self.receiver if engine is self.sender else self.sender
        epoch = self.epoch
        direction = id(peer)
        now = self._now()
        arrive_at = max(
            now + self.spec.latency_ms, self._pipe_busy_until.get(direction, 0.0)
        )
        cut = len(data) // 2 if len(data) > 1 else len(data)
        for chunk in (data[:cut], data[cut:]):
            if not chunk:
                continue
            self.scheduler.call_later(
                max(0, math.ceil(arrive_at - now)),
                lambda chunk=chunk, epoch=epoch, peer=peer: self._arrive(
                    peer, chunk, epoch
                ),
                label="wire-chunk",
            )
            arrive_at += 1  # second half lands 1 ms later: drops split frames
        self._pipe_busy_until[direction] = arrive_at

    def _arrive(self, engine: ChannelEngine, chunk: bytes, epoch: int) -> None:
        if epoch != self.epoch or not self.connected:
            return  # bytes died with their connection
        try:
            events = engine.receive_bytes(chunk, self._now())
        except (FrameError, ProtocolError) as exc:
            # Stream corruption inside one epoch is a real failure: the
            # pipe delivers reliably in order while connected, so the
            # engines must never mis-parse it.
            self.errors.append(f"{engine.role} stream error: {exc}")
            return
        if engine is self.sender:
            self._sender_events(events)
        else:
            self._receiver_events(events)
        self._flush(self.sender)
        self._flush(self.receiver)
        self._arm_timer()

    # -- sender side ---------------------------------------------------------

    def send(self, message_id: str) -> None:
        self.spool[message_id] = Message(body={"chaos": True}, message_id=message_id)
        self.sent_order.append(message_id)
        self._pump()

    def _pump(self) -> None:
        moved = False
        for message_id, message in list(self.spool.items()):
            if not self.sender.can_send():
                break
            if message_id in self.inflight:
                continue
            self.sender.send_message("IN.Q", message, message_id, self._now())
            self.inflight.add(message_id)
            moved = True
        if moved:
            self._flush(self.sender)
            self._arm_timer()

    def _sender_events(self, events: List) -> None:
        for event in events:
            if event.kind == "delivered":
                self.inflight.discard(event.message_id)
                self.spool.pop(event.message_id, None)
            if event.kind in ("delivered", "handshaken", "window"):
                self._pump()

    # -- receiver side -------------------------------------------------------

    def _receiver_events(self, events: List) -> None:
        for event in events:
            if event.kind != "message":
                continue
            message_id = event.message.message_id
            if message_id in self._delivered_ids:
                # Redelivery after resync: suppress, but still confirm so
                # the sender resolves its spool copy.
                self.duplicates_suppressed += 1
                self._confirm(event.seq)
                continue
            self._delivered_ids.add(message_id)
            self.delivered_order.append(message_id)
            if self.spec.confirm_delay_ms:
                # Group commit holding the durability callback: the
                # confirmation lands later — possibly after a reconnect.
                self.scheduler.call_later(
                    self.spec.confirm_delay_ms,
                    lambda seq=event.seq: self._confirm(seq),
                    label="wire-confirm",
                )
            else:
                self._confirm(event.seq)

    def _confirm(self, seq: int) -> None:
        self.receiver.confirm_delivery(seq)
        self._flush(self.receiver)

    # -- retransmission timer ------------------------------------------------

    def _arm_timer(self) -> None:
        due = self.sender.next_timer(self._now())
        if due is None:
            return
        self._timer_version += 1
        version = self._timer_version
        # Ceil: the RTO is fractional but the sim clock ticks whole ms;
        # truncating would re-arm a 0 ms timer at the same instant forever.
        delay = max(0, math.ceil(due - self._now()))
        self.scheduler.call_later(
            delay, lambda: self._fire_timer(version), label="wire-retx"
        )

    def _fire_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # superseded by a newer deadline
        if self.sender.on_timer(self._now()):
            self._flush(self.sender)
        self._arm_timer()

    # -- connection lifecycle --------------------------------------------------

    def establish(self) -> None:
        self.epoch += 1
        self.connected = True
        self.receiver.connection_established(self._now())
        self.sender.connection_established(self._now())
        self._flush(self.sender)
        self._flush(self.receiver)
        self._arm_timer()

    def drop(self) -> None:
        if not self.connected:
            return
        self.connected = False
        self.epoch += 1
        self.sender.connection_lost(self._now())
        self.receiver.connection_lost(self._now())
        self._timer_version += 1  # cancel the pending retransmit deadline

    # -- episode ---------------------------------------------------------------

    def schedule(self) -> None:
        for index in range(self.spec.messages):
            self.scheduler.call_later(
                index * self.spec.gap_ms,
                lambda index=index: self.send(f"m{index}"),
                label="wire-send",
            )
        for fault in self.spec.faults:
            self.scheduler.call_later(
                fault.at_ms, self.drop, label="wire-drop"
            )
            self.scheduler.call_later(
                fault.at_ms + fault.reconnect_after_ms,
                self._reconnect,
                label="wire-reconnect",
            )

    def _reconnect(self) -> None:
        if not self.connected:
            self.establish()

    def check(self) -> List[str]:
        violations = list(self.errors)
        if self.delivered_order != self.sent_order:
            missing = set(self.sent_order) - set(self.delivered_order)
            extras = [
                message_id
                for message_id in self.delivered_order
                if self.delivered_order.count(message_id) > 1
            ]
            if missing:
                violations.append(f"lost messages: {sorted(missing)}")
            if extras:
                violations.append(f"duplicate deliveries: {sorted(set(extras))}")
            if not missing and not extras:
                violations.append(
                    "delivery order diverged from send order: "
                    f"{self.delivered_order} != {self.sent_order}"
                )
        if self.spool:
            violations.append(
                f"unresolved spool entries: {sorted(self.spool)}"
            )
        if self.sender.in_flight:
            violations.append(
                f"sender still has {self.sender.in_flight} unacked frames"
            )
        if self.receiver._confirmed != self.receiver._cursor:
            violations.append(
                f"receiver confirmed {self.receiver._confirmed} lags "
                f"cursor {self.receiver._cursor}"
            )
        return violations


def run_wire_episode(spec: WireEpisodeSpec) -> WireEpisodeResult:
    """Run one seeded wire episode to quiescence and check invariants."""
    harness = WireChaosHarness(spec)
    harness.establish()
    harness.schedule()
    harness.scheduler.run_all(max_events=200_000)
    if not harness.connected:
        # The last drop outlived every reconnect event; repair the link
        # (the episode's "heal_all") and let retransmission finish.
        harness.establish()
        harness.scheduler.run_all(max_events=200_000)
    return WireEpisodeResult(
        spec=spec,
        violations=harness.check(),
        delivered=len(harness.delivered_order),
        duplicates_suppressed=harness.duplicates_suppressed,
        retransmits=harness.sender.metrics["retransmits"],
        reconnects=harness.sender.metrics["reconnects"],
    )


def run_wire_corpus(
    episodes: int, base_seed: int = 0, repro_dir: Optional[str] = None
) -> Dict[str, object]:
    """Run a seeded wire-chaos corpus; returns an aggregate summary.

    Shape mirrors :func:`repro.harness.runner.run_chaos_corpus` so the
    smoke benchmark can merge both corpora into one report; the
    ``faults_fired`` counter reports connection drops that actually
    severed an established link.  A failing episode's spec JSON *is*
    its reproducer (episodes are pure functions of the spec), written
    to ``repro_dir`` as ``CHAOS_repro_wire_seed<N>.json``.
    """
    summary: Dict[str, object] = {
        "transport": "tcp",
        "episodes": episodes,
        "base_seed": base_seed,
        "failures": 0,
        "violations": [],
        "repro_paths": [],
        "sends": 0,
        "delivered": 0,
        "duplicates_suppressed": 0,
        "retransmits": 0,
        "reconnects": 0,
        "faults_fired": 0,
    }
    for i in range(episodes):
        seed = base_seed + i
        spec = WireEpisodeSpec.generate(seed)
        result = run_wire_episode(spec)
        summary["sends"] += result.spec.messages  # type: ignore[operator]
        summary["delivered"] += result.delivered  # type: ignore[operator]
        summary["duplicates_suppressed"] += (  # type: ignore[operator]
            result.duplicates_suppressed
        )
        summary["retransmits"] += result.retransmits  # type: ignore[operator]
        summary["reconnects"] += result.reconnects  # type: ignore[operator]
        summary["faults_fired"] += result.reconnects  # type: ignore[operator]
        if not result.ok:
            summary["failures"] += 1  # type: ignore[operator]
            summary["violations"].extend(  # type: ignore[union-attr]
                f"seed={seed} {violation}" for violation in result.violations
            )
            if repro_dir is not None:
                path = f"{repro_dir}/CHAOS_repro_wire_seed{seed}.json"
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(spec.to_json())
                    handle.write("\n")
                summary["repro_paths"].append(path)  # type: ignore[union-attr]
    return summary
