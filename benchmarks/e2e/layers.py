"""The per-layer ledger: counts, call counts and self times, by layer.

Three sources, all outside the program:

* **counters** the program already keeps in public attributes
  (``Journal.flush_count``, ``service.stats``, ``QueueStats`` ...), read
  before and after the measured phase;
* **call counts** from one ``cProfile`` pass over a fixed slice of the
  workload, ``ncalls`` summed per source module;
* **self times** from the traced run (:mod:`benchmarks.e2e.tracing`).

:func:`per_layer` turns them into the metrics ``BENCHMARK.json`` lists.
Every workload reports every metric; a layer a workload does not touch
reads 0, which is the prediction the README's interaction table makes.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, Iterable

from repro.core.logqueues import ACK_QUEUE

from benchmarks.e2e.common import ratio, store_of
from benchmarks.e2e.tracing import SpanTracer

#: source file (under src/repro/) -> the ``*.calls_per_cmsg`` it feeds
_CALL_LAYERS = {
    "core/sender.py": "core.sender",
    "core/service.py": "core.service",
    "core/receiver.py": "core.receiver",
    "core/satisfaction.py": "core.satisfaction",
    "mq/manager.py": "mq.manager",
    "mq/queue.py": "mq.manager",
    "mq/message.py": "mq.manager",
}


def count(
    managers: Iterable[Any],
    service: Any,
    receivers: Iterable[Any],
    broker: Any = None,
    hosts: Iterable[Any] = (),
) -> Dict[str, float]:
    """Read every public counter the ledger uses, as one flat dict."""
    facts: Dict[str, float] = {
        key: 0.0
        for key in (
            "journal.records", "journal.bytes", "journal.flushes",
            "sql.transactions", "sql.ops", "queue.puts", "queue.gets",
            "wire.frames", "wire.bytes", "wire.retransmits", "wire.duplicates",
            "wire.messages",
        )
    }
    for manager in managers:
        store = store_of(manager)
        if manager.journal is not None:
            facts["journal.records"] += store.records_written
            facts["journal.bytes"] += store.bytes_written
            facts["journal.flushes"] += store.flush_count
        elif store is not None:
            facts["sql.transactions"] += store.flush_count
            facts["sql.ops"] += store.records_written
        for queue_name in manager.queue_names():
            stats = manager.queue(queue_name).stats
            facts["queue.puts"] += stats.puts
            facts["queue.gets"] += stats.gets
    facts["ack.messages"] = service.manager.queue(ACK_QUEUE).stats.puts
    facts["service.sends"] = service.stats.conditional_sends
    facts["service.generated"] = service.stats.standard_messages_generated
    evaluation = service.evaluation.stats
    facts["eval.evaluations"] = evaluation.evaluations_run
    facts["eval.succeeded"] = evaluation.decided_success
    facts["eval.failed"] = evaluation.decided_failure
    facts["eval.timeouts"] = evaluation.decided_by_timeout
    facts["comp.released"] = service.compensation.released_count
    receivers = list(receivers)
    facts["receiver.reads"] = sum(r.stats.reads for r in receivers)
    facts["receiver.acks"] = sum(r.stats.acks_sent for r in receivers)
    facts["receiver.cancellations"] = sum(r.stats.cancellations for r in receivers)
    facts["pubsub.published"] = broker.stats.published if broker else 0
    facts["pubsub.deliveries"] = broker.stats.deliveries if broker else 0
    for host in hosts:
        for label, stats in host.wire_stats().items():
            facts["wire.frames"] += stats["frames_sent"]
            facts["wire.bytes"] += stats["bytes_sent"]
            facts["wire.retransmits"] += stats["retransmits"]
            facts["wire.duplicates"] += stats["duplicates"]
            if label.startswith("out:"):
                facts["wire.messages"] += stats["delivered"]
    return facts


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def profile_calls(run_slice: Any) -> Dict[str, float]:
    """``ncalls`` per conditional message, per layer, over one slice.

    ``run_slice()`` executes the slice and returns how many conditional
    messages it decided.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        cmsgs = run_slice()
    finally:
        profile.disable()
    totals = {layer: 0 for layer in set(_CALL_LAYERS.values())}
    copies = validations = 0
    marker = os.sep + os.path.join("src", "repro") + os.sep
    for (filename, _line, function), row in pstats.Stats(profile).stats.items():
        _, found, relative = filename.rpartition(marker)
        if not found:
            continue
        relative = relative.replace(os.sep, "/")
        ncalls = row[1]
        layer = _CALL_LAYERS.get(relative)
        if layer is not None:
            totals[layer] += ncalls
        if relative == "mq/message.py":
            if function == "copy":
                copies += ncalls
            elif function == "validate_properties":
                validations += ncalls
    calls = {f"{layer}.calls_per_cmsg": ratio(n, cmsgs) for layer, n in totals.items()}
    calls["mq.message.copies_per_cmsg"] = ratio(copies, cmsgs)
    calls["mq.message.validations_per_cmsg"] = ratio(validations, cmsgs)
    return calls


def per_layer(
    facts: Dict[str, float],
    calls: Dict[str, float],
    tracer: SpanTracer,
    traced: Dict[str, float],
    untraced_decided_per_s: float,
) -> Dict[str, float]:
    """Assemble every ``per_layer`` metric of ``BENCHMARK.json``.

    ``facts`` are counter deltas over the untraced measured phase (plus a
    few workload-supplied numbers); ``traced`` describes the traced run:
    ``cmsgs``, ``failed``, ``reads``, ``wire_messages``, ``busy_s`` (what
    the self times should add up to) and ``decided_per_s``.
    """
    cmsgs = facts["cmsgs"]
    decided = facts["eval.succeeded"] + facts["eval.failed"]
    t_cmsgs = traced["cmsgs"]

    def us(seconds: float, per: float) -> float:
        return ratio(seconds * 1e6, per)

    def self_us_per_call(layer: str, *names: str) -> float:
        return us(tracer.self_s(layer, *names), tracer.call_count(layer, *names))

    matches = tracer.call_count("mq.pubsub", "subscriptions_for")
    wire_msgs = traced.get("wire_messages", 0.0)
    metrics = {
        "core.sender.self_us_per_cmsg": us(tracer.self_s("core.sender"), t_cmsgs),
        "core.sender.msgs_generated_per_cmsg": ratio(
            facts["service.generated"], facts["service.sends"]
        ),
        "core.service.send_self_us_per_cmsg": us(
            tracer.self_s("core.service", "send_message"), t_cmsgs
        ),
        "core.service.decide_self_us_per_cmsg": us(
            tracer.self_s("core.service", "_on_decided", "apply_outcome_actions"),
            t_cmsgs,
        ),
        "core.receiver.read_self_us_per_read": us(
            tracer.self_s("core.receiver", "read_message"), traced.get("reads", 0.0)
        ),
        "core.receiver.acks_per_ack_msg": ratio(
            facts["receiver.acks"], facts["ack.messages"]
        ),
        "core.receiver.pairs_cancelled_per_failed": ratio(
            facts["receiver.cancellations"], facts["eval.failed"]
        ),
        "core.evaluation.pump_self_us_per_cmsg": us(
            tracer.self_s("core.evaluation"), t_cmsgs
        ),
        "core.evaluation.evaluations_per_decision": ratio(
            facts["eval.evaluations"], decided
        ),
        "core.evaluation.timeouts_share": ratio(facts["eval.timeouts"], decided),
        "core.satisfaction.self_us_per_evaluation": self_us_per_call(
            "core.satisfaction"
        ),
        "core.compensation.stage_self_us_per_cmsg": us(
            tracer.self_s("core.compensation", "stage"), t_cmsgs
        ),
        "core.compensation.release_self_us_per_failed": us(
            tracer.self_s("core.compensation", "release"), traced.get("failed", 0.0)
        ),
        "core.compensation.released_per_failed": ratio(
            facts["comp.released"], facts["eval.failed"]
        ),
        "mq.manager.puts_per_cmsg": ratio(facts["queue.puts"], cmsgs),
        "mq.manager.gets_per_cmsg": ratio(facts["queue.gets"], cmsgs),
        "mq.manager.put_self_us": self_us_per_call(
            "mq.manager", "put", "put_many", "put_remote"
        ),
        "mq.manager.get_self_us": self_us_per_call("mq.manager", "get", "get_wait"),
        "mq.persistence.records_per_cmsg": ratio(facts["journal.records"], cmsgs),
        "mq.persistence.bytes_per_cmsg": ratio(facts["journal.bytes"], cmsgs),
        "mq.persistence.flushes_per_cmsg": ratio(facts["journal.flushes"], cmsgs),
        "mq.persistence.encode_self_us_per_cmsg": us(
            tracer.self_s(
                "mq.persistence", "log_put", "log_put_many", "log_get",
                "append_many", "encode_record",
            ),
            t_cmsgs,
        ),
        "mq.persistence.write_self_us_per_cmsg": us(
            tracer.self_s("mq.persistence", "_write_serialized"), t_cmsgs
        ),
        "mq.persistence.recover_records_per_s": facts.get(
            "recover_records_per_s", 0.0
        ),
        "mq.sqlstore.transactions_per_cmsg": ratio(facts["sql.transactions"], cmsgs),
        "mq.sqlstore.ops_per_cmsg": ratio(facts["sql.ops"], cmsgs),
        "mq.sqlstore.put_self_us": self_us_per_call("mq.sqlstore", "put", "put_many"),
        "mq.sqlstore.get_self_us": self_us_per_call("mq.sqlstore", "get"),
        "mq.sqlstore.open_ms": facts.get("sql.open_ms", 0.0),
        "mq.network.send_self_us_per_msg": us(
            tracer.self_s("mq.network"), tracer.call_count("mq.network", "send")
        ),
        "net.wire.send_self_us_per_msg": us(tracer.self_s("net.wire"), wire_msgs),
        "net.protocol.engine_self_us_per_msg": us(
            tracer.self_s("net.protocol"), wire_msgs
        ),
        "net.framing.codec_self_us_per_msg": us(tracer.self_s("net.framing"), wire_msgs),
        "net.framing.bytes_per_msg": ratio(facts["wire.bytes"], facts["wire.messages"]),
        "net.protocol.frames_per_msg": ratio(
            facts["wire.frames"], facts["wire.messages"]
        ),
        "net.protocol.retransmits": facts["wire.retransmits"],
        "net.protocol.duplicates": facts["wire.duplicates"],
        "net.protocol.rtt_srtt_ms": facts.get("wire.rtt_srtt_ms", 0.0),
        "net.wire.spool_wait_ms_p50": traced.get("spool_wait_ms_p50", 0.0),
        "mq.pubsub.publish_per_s": facts.get("publish_per_s", 0.0),
        "mq.pubsub.publish_self_us": self_us_per_call("mq.pubsub", "publish"),
        "mq.pubsub.match_self_us": us(
            tracer.self_s("mq.pubsub", "subscriptions_for", "match"), matches
        ),
        "mq.pubsub.deliveries_per_publish": ratio(
            facts["pubsub.deliveries"], facts["pubsub.published"]
        ),
        "mq.pubsub.match_cache_hit_share": (
            1.0 - ratio(tracer.call_count("mq.pubsub", "match"), matches)
            if matches
            else 0.0
        ),
        "loadgen.lateness_ms_p99": facts.get("loadgen.lateness_ms_p99", 0.0),
        "loadgen.decision_ms_p50_r150": facts.get("loadgen.decision_ms_p50_r150", 0.0),
        "loadgen.decision_ms_p50_r450": facts.get("loadgen.decision_ms_p50_r450", 0.0),
        "loadgen.decision_ms_p99_r300": facts.get("loadgen.decision_ms_p99_r300", 0.0),
        "loadgen.max_rate_ok": facts.get("loadgen.max_rate_ok", 0.0),
        "loadgen.send_ms_p95": facts["send_ms_p95"],
        "loadgen.decision_ms_p95": facts["decision_ms_p95"],
        "loadgen.drift_share": facts.get("drift_share", 0.0),
        "loadgen.fail_share": facts.get("fail_share", 0.0),
        "trace.overhead_share": 1.0
        - ratio(traced["decided_per_s"], untraced_decided_per_s),
        "trace.coverage_share": ratio(
            sum(tracer.layer_self_s().values()), traced["busy_s"]
        ),
        "trace.eventloop_self_us_per_cmsg": us(tracer.self_s("eventloop"), t_cmsgs),
    }
    metrics.update(calls)
    return metrics
