"""Experiment runners: canned end-to-end scenario executions.

Each runner assembles a testbed, drives the scenario to quiescence, and
returns a structured :class:`ExperimentResult` that both the benchmarks
and the integration tests consume.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.outcome import OutcomeRecord
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.workloads.receivers import ReceiverMode, ReceiverScript, ScriptedReceiver
from repro.workloads.scenarios import (
    SECOND_MS,
    Testbed,
    build_example1_condition,
    build_example2_condition,
)


@dataclass
class ExperimentResult:
    """Outcome and bookkeeping of one scenario run."""

    outcome: OutcomeRecord
    testbed: Testbed
    cmid: str
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """True when the conditional message succeeded."""
        return self.outcome.succeeded


def run_example1(
    r1_react_ms: int = 3 * 3_600 * SECOND_MS,
    r2_react_ms: int = 5 * 3_600 * SECOND_MS,
    r3_react_ms: int = 8 * 3_600 * SECOND_MS,
    r4_react_ms: int = 30 * 3_600 * SECOND_MS,
    r1_mode: ReceiverMode = ReceiverMode.PROCESS_COMMIT,
    r2_mode: ReceiverMode = ReceiverMode.PROCESS_COMMIT,
    r3_mode: ReceiverMode = ReceiverMode.PROCESS_COMMIT,
    r4_mode: ReceiverMode = ReceiverMode.READ,
    latency_ms: int = 50,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """Run Example 1 (group meeting, Figures 1/4) to completion.

    Defaults give the paper's success story: all four read within two
    days, Receiver3 processes within a week, and two of the other three
    (R1, R2) process within the subset window while R4 only reads.

    Pass a :class:`~repro.obs.trace.FlightRecorder` as ``tracer`` and/or
    a :class:`~repro.obs.registry.MetricsRegistry` as ``metrics`` to get
    the full stage-by-stage trace and latency breakdown of the run.
    """
    testbed = Testbed(
        ["R1", "R2", "R3", "R4"],
        latency_ms=latency_ms,
        seed=seed,
        tracer=tracer,
        metrics=metrics,
    )
    condition = build_example1_condition(testbed)
    cmid = testbed.service.send_message(
        {"meeting": "quarterly planning"}, condition, compensation={"cancelled": True}
    )
    reacts = {
        "R1": (r1_react_ms, r1_mode),
        "R2": (r2_react_ms, r2_mode),
        "R3": (r3_react_ms, r3_mode),
        "R4": (r4_react_ms, r4_mode),
    }
    scripts: Dict[str, ScriptedReceiver] = {}
    for name, (react, mode) in reacts.items():
        script = ScriptedReceiver(
            testbed.receiver(name),
            testbed.scheduler,
            ReceiverScript(
                queue=testbed.queue_of(name),
                react_after_ms=react,
                mode=mode,
                process_ms=60 * SECOND_MS,
            ),
        )
        script.start()
        scripts[name] = script
    testbed.run_all()
    outcome = testbed.service.outcome(cmid)
    assert outcome is not None, "example 1 must decide by its timeout"
    return ExperimentResult(
        outcome=outcome,
        testbed=testbed,
        cmid=cmid,
        extras={"scripts": scripts},
    )


def run_example2(
    controllers: int = 4,
    first_reaction_ms: Optional[int] = 5 * SECOND_MS,
    pick_up_window_ms: int = 20 * SECOND_MS,
    latency_ms: int = 20,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """Run Example 2 (air traffic control, Figures 2/5) to completion.

    ``first_reaction_ms=None`` models the failure case: no controller
    reads the flight message, the 21-second evaluation timeout fires, and
    the staged compensation cancels the unread original.  ``tracer`` and
    ``metrics`` wire observability through the testbed as in
    :func:`run_example1`.
    """
    testbed = Testbed(
        ["TOWER"],
        latency_ms=latency_ms,
        seed=seed,
        tracer=tracer,
        metrics=metrics,
    )
    condition = build_example2_condition(
        shared_queue="Q.CENTRAL",
        manager="QM.TOWER",
        pick_up_window_ms=pick_up_window_ms,
        evaluation_timeout_ms=pick_up_window_ms + SECOND_MS,
    )
    cmid = testbed.service.send_message(
        {"flight": "BA117", "runway": "27L"}, condition
    )
    # All controllers poll the shared queue; only the first getter wins.
    tower = testbed.receivers["TOWER"]
    from repro.core.receiver import ConditionalMessagingReceiver

    controller_endpoints = [
        ConditionalMessagingReceiver(tower.manager, recipient_id=f"controller-{i}")
        for i in range(controllers)
    ]
    picked: List[str] = []
    if first_reaction_ms is not None:
        def first_pick() -> None:
            message = controller_endpoints[0].read_message("Q.CENTRAL")
            if message is not None:
                picked.append(controller_endpoints[0].recipient_id)

        testbed.at(first_reaction_ms, first_pick)
        for i, endpoint in enumerate(controller_endpoints[1:], start=1):
            def late_pick(endpoint=endpoint) -> None:
                message = endpoint.read_message("Q.CENTRAL")
                if message is not None:
                    picked.append(endpoint.recipient_id)

            testbed.at(first_reaction_ms + i * SECOND_MS, late_pick)
    testbed.run_all()
    outcome = testbed.service.outcome(cmid)
    assert outcome is not None, "example 2 must decide by its timeout"
    return ExperimentResult(
        outcome=outcome,
        testbed=testbed,
        cmid=cmid,
        extras={"picked_by": picked, "controllers": controller_endpoints},
    )


class MultiprocessDeployment:
    """Spawn a wire-transport deployment as real OS processes.

    One sender host plus ``receivers`` receiver hosts, each a
    ``python -m repro.net.host`` subprocess talking over unix sockets
    (or TCP on loopback).  Use as a context manager — :meth:`cleanup`
    runs on *every* exit path, so a failing benchmark or test never
    leaks child processes or unix-socket files:

        with MultiprocessDeployment(receivers=4, messages=200) as dep:
            result = dep.run()

    Args:
        receivers: Number of receiver host processes.
        messages: Conditional messages the sender round-robins.
        transport: ``"unix"`` or ``"tcp"`` (loopback, ephemeral ports).
        socket_dir: Directory for unix sockets; a private temp dir
            (removed on cleanup) when None.
        capacity: Each receiver's advertised credit/backlog bound.
        pickup_ms: ``msg_pick_up_time`` deadline for the condition.
        timeout_s: Bound on READY handshakes and on the sender run.
    """

    def __init__(
        self,
        receivers: int,
        messages: int,
        transport: str = "unix",
        socket_dir: Optional[str] = None,
        capacity: int = 128,
        pickup_ms: int = 60_000,
        timeout_s: float = 120.0,
    ) -> None:
        if receivers < 1:
            raise ValueError("need at least one receiver process")
        if transport not in ("unix", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.receivers = receivers
        self.messages = messages
        self.transport = transport
        self.capacity = capacity
        self.pickup_ms = pickup_ms
        self.timeout_s = timeout_s
        self._owns_dir = socket_dir is None
        self.socket_dir = socket_dir or tempfile.mkdtemp(prefix="repro-wire-")
        os.makedirs(self.socket_dir, exist_ok=True)
        self.procs: List[subprocess.Popen] = []
        self.peers: List[Tuple[str, str]] = []
        self.sender_name = "QM.S"
        if transport == "unix":
            self.sender_addr = f"unix:{os.path.join(self.socket_dir, 's.sock')}"
        else:
            self.sender_addr = f"tcp:127.0.0.1:{_free_port()}"
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(sys.modules["repro"].__file__))
        )
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = (
            src_dir + os.pathsep + self._env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)

    def __enter__(self) -> "MultiprocessDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()

    # -- lifecycle --------------------------------------------------------------

    def _spawn(self, argv: List[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.host", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env,
            text=True,
        )
        self.procs.append(proc)
        return proc

    def _receiver_listen(self, index: int) -> str:
        if self.transport == "unix":
            return f"unix:{os.path.join(self.socket_dir, f'r{index}.sock')}"
        return "tcp:127.0.0.1:0"

    def start_receivers(self) -> List[Tuple[str, str]]:
        """Spawn every receiver host and collect its READY address."""
        for i in range(self.receivers):
            name = f"QM.R{i}"
            proc = self._spawn(
                [
                    "receiver",
                    "--name", name,
                    "--listen", self._receiver_listen(i),
                    "--peer", f"{self.sender_name}={self.sender_addr}",
                    "--capacity", str(self.capacity),
                    "--timeout", str(self.timeout_s),
                ]
            )
            ready = _await_line(proc, "READY ", self.timeout_s)
            bound = ready.split()[2]
            self.peers.append((name, bound))
        return self.peers

    def run_sender(self) -> Dict[str, object]:
        """Run the sender to completion; returns its RESULT payload."""
        argv = [
            "sender",
            "--name", self.sender_name,
            "--listen", self.sender_addr,
            "--messages", str(self.messages),
            "--pickup-ms", str(self.pickup_ms),
            "--timeout", str(self.timeout_s),
        ]
        for name, bound in self.peers:
            argv += ["--peer", f"{name}={bound}"]
        proc = self._spawn(argv)
        try:
            out, err = proc.communicate(timeout=self.timeout_s + 10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            raise RuntimeError(
                f"sender timed out after {self.timeout_s}s\n{out}\n{err}"
            )
        if proc.returncode != 0:
            raise RuntimeError(
                f"sender exited with {proc.returncode}\n{out}\n{err}"
            )
        for line in out.splitlines():
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        raise RuntimeError(f"sender produced no RESULT line\n{out}\n{err}")

    def run(self) -> Dict[str, object]:
        """Start the receivers, run the sender, return its result."""
        self.start_receivers()
        return self.run_sender()

    def cleanup(self, grace_s: float = 5.0) -> None:
        """Tear everything down; safe to call on any exit path.

        Closes each host's stdin first (their cue to exit cleanly),
        escalates to terminate/kill for stragglers, then removes the
        unix-socket files (and the socket dir, when this deployment
        created it).
        """
        for proc in self.procs:
            if proc.stdin is not None and not proc.stdin.closed:
                try:
                    proc.stdin.close()
                except OSError:
                    pass
        deadline = time.monotonic() + grace_s
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.05, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.terminate()
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for proc in self.procs:
            for stream in (proc.stdout, proc.stderr):
                if stream is not None and not stream.closed:
                    stream.close()
        if self._owns_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)
        else:
            for entry in os.listdir(self.socket_dir):
                if entry.endswith(".sock"):
                    try:
                        os.unlink(os.path.join(self.socket_dir, entry))
                    except OSError:
                        pass


def _free_port() -> int:
    """Reserve-and-release a loopback TCP port for a child to bind."""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _await_line(proc: subprocess.Popen, prefix: str, timeout_s: float) -> str:
    """Read ``proc`` stdout lines until one starts with ``prefix``."""
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while True:
        if proc.poll() is not None:
            err = proc.stderr.read() if proc.stderr else ""
            raise RuntimeError(
                f"host exited with {proc.returncode} before {prefix!r}\n{err}"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"timed out waiting for {prefix!r} from host")
        ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 0.25))
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            err = proc.stderr.read() if proc.stderr else ""
            raise RuntimeError(f"host closed stdout before {prefix!r}\n{err}")
        if line.startswith(prefix):
            return line.strip()


def run_chaos_corpus(
    episodes: int = 50,
    base_seed: int = 0,
    journal: str = "memory",
    journal_dir: Optional[str] = None,
    repro_dir: Optional[str] = None,
    transport: str = "local",
) -> Dict[str, object]:
    """Run a fixed-seed chaos corpus; returns an aggregate summary.

    With the default ``transport="local"`` this drives
    :class:`repro.chaos.ChaosExplorer` over ``episodes`` consecutive
    seeds.  Every failing episode is shrunk to a minimal reproducer;
    when ``repro_dir`` is given the reproducer JSON is written there as
    ``CHAOS_repro_seed<seed>.json`` so CI can upload it as an artifact.

    With ``transport="tcp"`` it instead runs the wire-chaos family
    (:func:`repro.chaos.wire.run_wire_corpus`): real
    :class:`~repro.net.protocol.ChannelEngine` pairs over a simulated
    lossy connection, with seeded mid-frame drops, reconnect resync and
    deferred confirmations — the ``journal*`` arguments do not apply.

    Args:
        episodes: Number of seeded episodes.
        base_seed: Seed of the first episode (episode ``i`` uses
            ``base_seed + i``).
        journal: A scheme of :data:`repro.mq.persistence.JOURNAL_SCHEMES`
            — file journals enable torn-tail faults; ``sqlstore``
            exercises engine-transaction commit groups.
        journal_dir: Directory for on-disk stores (temporary when None).
        repro_dir: Where to write minimized reproducers for failures.
        transport: ``"local"`` (in-process MessageNetwork chaos) or
            ``"tcp"`` (wire-protocol chaos).

    Returns:
        Summary dict: ``episodes``, ``failures`` (count),
        ``violations`` (list of strings), ``repro_paths``, plus the
        aggregate ``sends``/``crashes``/``faults_fired`` counters
        (wire corpora report wire counters instead).
    """
    if transport == "tcp":
        from repro.chaos.wire import run_wire_corpus

        return run_wire_corpus(
            episodes=episodes, base_seed=base_seed, repro_dir=repro_dir
        )
    if transport != "local":
        raise ValueError(f"unknown chaos transport {transport!r}")

    from repro.chaos import ChaosExplorer, EpisodeSpec

    explorer = ChaosExplorer(journal_dir=journal_dir)
    summary: Dict[str, object] = {
        "episodes": episodes,
        "base_seed": base_seed,
        "journal": journal,
        "failures": 0,
        "violations": [],
        "repro_paths": [],
        "sends": 0,
        "crashes": 0,
        "faults_fired": 0,
    }
    for i in range(episodes):
        seed = base_seed + i
        spec = EpisodeSpec.generate(seed, journal=journal)
        result = explorer.run_episode(spec)
        summary["sends"] += result.sends  # type: ignore[operator]
        summary["crashes"] += result.crashes  # type: ignore[operator]
        summary["faults_fired"] += result.faults_fired  # type: ignore[operator]
        if result.ok:
            continue
        summary["failures"] += 1  # type: ignore[operator]
        summary["violations"].extend(  # type: ignore[union-attr]
            f"seed={seed} {violation}" for violation in result.violations
        )
        if repro_dir is not None:
            minimal = explorer.shrink(spec)
            path = explorer.write_repro(
                minimal, f"{repro_dir}/CHAOS_repro_seed{seed}.json"
            )
            summary["repro_paths"].append(path)  # type: ignore[union-attr]
    return summary


def run_bounded_check(
    gen_seeds: Optional[List[int]] = None,
    crash_budget: int = 1,
    max_schedules: int = 6_000,
    repro_dir: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run the exhaustive bounded checker over the CI configurations.

    Enumerates every event interleaving and crash point (within
    ``crash_budget``) of the pinned canonical rule set plus one
    generated rule set per seed in ``gen_seeds`` (default ``[1, 2]``),
    checking the full invariant suite at every terminal state — see
    :class:`repro.chaos.bounded.BoundedExplorer`.

    When ``baseline_path`` names an earlier report (the committed
    ``CHAOS_bounded.json``), a *state-count collapse* gate compares
    per-config explored-state counts: a config exploring fewer than
    half its baseline states trips the gate — the signature of the
    checker silently ceasing to explore (over-eager pruning, a hashing
    bug) rather than the protocol shrinking.

    Returns:
        Summary dict shaped like the report file: per-config
        ``configs`` (state/transition/schedule counts, completeness,
        violations), ``failures`` (configs with violations),
        ``violations`` (flat strings), ``repro_paths`` (written when
        ``repro_dir`` is given), and ``gate_failures``.
    """
    from repro.chaos.bounded import BoundedExplorer, canonical_ruleset
    from repro.rules import RuleSetGenerator

    configs = [("canonical", canonical_ruleset())]
    for seed in gen_seeds if gen_seeds is not None else [1, 2]:
        ruleset = RuleSetGenerator(
            seed, max_receivers=2, max_messages=2
        ).generate()
        configs.append((f"gen-{seed}", ruleset))

    summary: Dict[str, object] = {
        "crash_budget": crash_budget,
        "configs": {},
        "failures": 0,
        "violations": [],
        "repro_paths": [],
        "gate_failures": [],
    }
    for name, ruleset in configs:
        explorer = BoundedExplorer(
            ruleset,
            crash_budget=crash_budget,
            max_schedules=max_schedules,
        )
        result = explorer.run()
        summary["configs"][name] = result.to_dict()  # type: ignore[index]
        if result.ok:
            continue
        summary["failures"] += 1  # type: ignore[operator]
        summary["violations"].extend(  # type: ignore[union-attr]
            f"{name} {violation}"
            for failure in result.violations
            for violation in failure.violations
        )
        if repro_dir is not None:
            path = explorer.write_repro(
                result.violations[0],
                f"{repro_dir}/CHAOS_bounded_repro_{name}.json",
            )
            summary["repro_paths"].append(path)  # type: ignore[union-attr]

    if baseline_path is not None:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        for name, entry in summary["configs"].items():  # type: ignore[union-attr]
            old = baseline.get("configs", {}).get(name)
            if not old:
                continue
            if entry["states"] < 0.5 * old["states"]:
                summary["gate_failures"].append(  # type: ignore[union-attr]
                    f"{name}: explored {entry['states']} states, under"
                    f" 50% of baseline {old['states']} — bounded checker"
                    " stopped exploring?"
                )
    return summary
