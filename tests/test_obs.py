"""Tests for the observability layer: tracer, registry, and renderers."""

import pytest

from repro.harness.reporting import render_metrics, render_trace_timeline
from repro.mq.message import Message
from repro.obs import (
    NULL_TRACER,
    STAGE_ACK,
    STAGE_ARRIVAL,
    STAGE_COMMIT,
    STAGE_COMPENSATION,
    STAGE_DEAD_LETTER,
    STAGE_EVALUATE,
    STAGE_GET,
    STAGE_OUTCOME,
    STAGE_SEND,
    STAGE_XMIT,
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    cmid_of,
)


class TestCmidOf:
    def test_prefers_conditional_message_id_property(self):
        message = Message(body=None, correlation_id="corr").with_properties(
            DS_CMID="cm-1"
        )
        assert cmid_of(message) == "cm-1"

    def test_falls_back_to_correlation_id(self):
        assert cmid_of(Message(body=None, correlation_id="corr")) == "corr"

    def test_none_for_plain_message(self):
        assert cmid_of(Message(body=None)) is None


class TestNullTracer:
    def test_disabled_by_default(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is False

    def test_emit_is_a_noop(self):
        NULL_TRACER.emit(STAGE_SEND, at_ms=0, cmid="cm-1", extra="ignored")


class TestFlightRecorder:
    def test_enabled(self):
        assert FlightRecorder().enabled is True

    def test_records_in_order_with_monotonic_seq(self):
        recorder = FlightRecorder()
        recorder.emit(STAGE_SEND, at_ms=5, cmid="cm-1", manager="QM.S")
        recorder.emit(STAGE_ARRIVAL, at_ms=5, cmid="cm-1", queue="Q.R")
        recorder.emit(STAGE_GET, at_ms=9, cmid="cm-2")
        assert [e.seq for e in recorder.events] == [1, 2, 3]
        assert recorder.stages("cm-1") == [STAGE_SEND, STAGE_ARRIVAL]
        assert recorder.cmids() == ["cm-1", "cm-2"]
        assert len(recorder) == 3

    def test_detail_kwargs_are_kept(self):
        recorder = FlightRecorder()
        recorder.emit(STAGE_ACK, at_ms=0, cmid="cm-1", kind="read", n=2)
        assert recorder.events[0].detail == {"kind": "read", "n": 2}

    def test_capacity_drops_oldest(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.emit(STAGE_SEND, at_ms=i, cmid=f"cm-{i}")
        assert [e.at_ms for e in recorder.events] == [3, 4]
        assert recorder.events[-1].seq == 5  # seq keeps counting

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear(self):
        recorder = FlightRecorder()
        recorder.emit(STAGE_SEND, at_ms=0)
        recorder.clear()
        assert len(recorder) == 0
        recorder.emit(STAGE_SEND, at_ms=1)
        assert recorder.events[0].seq == 2


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        assert registry.counter("puts.QM.S") == 0
        assert registry.incr("puts.QM.S") == 1
        assert registry.incr("puts.QM.S", 4) == 5
        assert registry.counters() == {"puts.QM.S": 5}

    def test_gauges(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth.QM.S.Q") is None
        registry.set_gauge("depth.QM.S.Q", 3)
        assert registry.gauge("depth.QM.S.Q") == 3.0
        registry.set_gauge("depth.QM.S.Q", 0)
        assert registry.gauges() == {"depth.QM.S.Q": 0.0}

    def test_histograms(self):
        registry = MetricsRegistry()
        assert registry.histogram_stats("lat") is None
        for value in [10, 20, 30, 40]:
            registry.observe("lat", value)
        stats = registry.histogram_stats("lat")
        assert stats.count == 4
        assert stats.mean == 25.0
        assert stats.minimum == 10 and stats.maximum == 40
        assert stats.p50 == 25.0
        assert registry.histograms() == ["lat"]
        assert registry.histogram("lat") == [10.0, 20.0, 30.0, 40.0]

    def test_clear(self):
        registry = MetricsRegistry()
        registry.incr("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 1)
        registry.clear()
        assert not registry.counters()
        assert not registry.gauges()
        assert not registry.histograms()


class TestManagerInstrumentation:
    """Tracer/metrics wiring at the queue-manager level."""

    @staticmethod
    def make_manager(clock):
        from repro.mq.manager import QueueManager

        recorder = FlightRecorder()
        registry = MetricsRegistry()
        manager = QueueManager(
            "QM.T", clock, tracer=recorder, metrics=registry
        )
        return manager, recorder, registry

    def test_put_get_trace_and_counters(self, clock):
        manager, recorder, registry = self.make_manager(clock)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="x", correlation_id="cm-1"))
        manager.get("APP.Q")
        assert recorder.stages("cm-1") == [STAGE_ARRIVAL, STAGE_GET]
        assert registry.counter("puts.QM.T") == 1
        assert registry.counter("gets.QM.T") == 1

    def test_depth_gauge_tracks_queue(self, clock):
        manager, _recorder, registry = self.make_manager(clock)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body=1))
        manager.put("APP.Q", Message(body=2))
        assert registry.gauge("depth.QM.T.APP.Q") == 2.0
        manager.get("APP.Q")
        assert registry.gauge("depth.QM.T.APP.Q") == 1.0

    def test_syncpoint_commit_traced(self, clock):
        manager, recorder, _registry = self.make_manager(clock)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="x", correlation_id="cm-1"))
        tx = manager.begin()
        manager.get("APP.Q", transaction=tx)
        tx.commit()
        assert recorder.stages("cm-1") == [
            STAGE_ARRIVAL,
            STAGE_GET,
            STAGE_COMMIT,
        ]
        get_event = recorder.events_for("cm-1")[1]
        assert get_event.detail["transactional"] is True

    def test_dead_letter_traced_and_counted(self, clock):
        from repro.mq.manager import DEAD_LETTER_QUEUE

        manager, recorder, registry = self.make_manager(clock)
        manager.define_queue("APP.Q")
        manager.put("APP.Q", Message(body="stale", expiry_ms=10))
        clock.set(11)
        assert manager.get_wait("APP.Q") is None
        dead_events = [
            e for e in recorder.events if e.stage == STAGE_DEAD_LETTER
        ]
        assert len(dead_events) == 1
        assert dead_events[0].queue == DEAD_LETTER_QUEUE
        assert dead_events[0].detail["reason"] == "expired"
        assert registry.counter("dead_letters.QM.T") == 1


    def test_restart_says_what_it_did(self, clock):
        from repro.mq.manager import QueueManager
        from repro.mq.persistence import MemoryJournal

        journal = MemoryJournal()
        manager = QueueManager("QM.T", clock, journal=journal)
        manager.define_queue("APP.Q")
        for i in range(6):
            manager.put("APP.Q", Message(body=i))
        registry = MetricsRegistry()
        QueueManager.recover("QM.T", clock, journal, metrics=registry)
        # define + 6 puts, all live: scanned, restored, left as found.
        assert registry.counter("journal.recover.records") == 7
        assert registry.counter("journal.recover.live") == 6
        assert registry.counter("journal.recover.compacted") == 0
        assert len(registry.histogram("journal.recover.ms")) == 1
        for _ in range(5):
            manager.get("APP.Q")
        QueueManager.recover("QM.T", clock, journal, metrics=registry)
        # Counters add up over restarts; this one found 12 records with
        # one message live and compacted the log.
        assert registry.counter("journal.recover.records") == 7 + 12
        assert registry.counter("journal.recover.live") == 6 + 1
        assert registry.counter("journal.recover.compacted") == 1
        assert len(registry.histogram("journal.recover.ms")) == 2
        # The same three counts, for the last restart, without a registry.
        assert (
            journal.recover_records, journal.recover_live, journal.recover_compacted
        ) == (12, 1, 1)


class TestEndToEndTrace:
    """One conditional message's full path through a Testbed."""

    @staticmethod
    def run_traced_example1():
        from repro.harness.runner import run_example1

        recorder = FlightRecorder()
        registry = MetricsRegistry()
        result = run_example1(tracer=recorder, metrics=registry)
        return result, recorder, registry

    def test_stage_sequence_covers_the_lifecycle(self):
        result, recorder, _registry = self.run_traced_example1()
        assert result.succeeded
        stages = recorder.stages(result.cmid)
        # Four destinations fan out, travel, arrive, are read and acked;
        # the sender evaluates and decides.
        assert stages.count(STAGE_SEND) == 4
        assert stages.count(STAGE_XMIT) >= 4
        assert stages.count(STAGE_ARRIVAL) >= 4
        assert STAGE_GET in stages
        assert STAGE_ACK in stages
        assert STAGE_EVALUATE in stages
        assert stages.count(STAGE_OUTCOME) == 1
        # Causal order: first send precedes first arrival precedes the
        # outcome, and the outcome is decided exactly once, last of these.
        assert stages.index(STAGE_SEND) < stages.index(STAGE_ARRIVAL)
        assert stages.index(STAGE_ARRIVAL) < stages.index(STAGE_OUTCOME)

    def test_timestamps_are_monotone_in_emission_order(self):
        result, recorder, _registry = self.run_traced_example1()
        events = recorder.events_for(result.cmid)
        assert all(
            a.at_ms <= b.at_ms for a, b in zip(events, events[1:])
        )
        assert [e.seq for e in events] == sorted(e.seq for e in events)

    def test_latency_histograms_collected(self):
        _result, _recorder, registry = self.run_traced_example1()
        ack_stats = registry.histogram_stats("ack_latency_ms")
        decision_stats = registry.histogram_stats("decision_latency_ms")
        assert ack_stats is not None and ack_stats.count >= 4
        assert decision_stats is not None and decision_stats.count == 1
        assert decision_stats.minimum >= ack_stats.minimum

    def test_gauges_show_the_state_that_only_grows(self):
        """Receiver log and evaluation records are not pruned yet; an
        operator can at least watch them.  The network's delivery ledger
        is the seqs accepted out of order: none once the channels drain."""
        result, _recorder, registry = self.run_traced_example1()
        assert registry.gauge("depth.QM.R1.DS.RLOG.Q") == 1.0
        assert registry.gauge(f"evaluation_records.{result.testbed.SENDER}") == 1.0
        assert registry.gauge("delivered_ledger.network") == 0.0

    def test_failure_path_traces_compensation(self):
        from repro.harness.runner import run_example2

        recorder = FlightRecorder()
        result = run_example2(first_reaction_ms=None, tracer=recorder)
        assert not result.succeeded
        stages = recorder.stages(result.cmid)
        assert STAGE_OUTCOME in stages
        assert STAGE_COMPENSATION in stages
        assert stages.index(STAGE_OUTCOME) < stages.index(STAGE_COMPENSATION)

    def test_disabled_tracer_records_nothing(self):
        from repro.harness.runner import run_example1

        result = run_example1()
        assert result.succeeded
        assert result.testbed.tracer is NULL_TRACER


class TestRenderers:
    def test_trace_timeline_renders_stages_and_deltas(self):
        recorder = FlightRecorder()
        recorder.emit(
            STAGE_SEND, at_ms=0, cmid="cm-1", manager="QM.S", queue="Q.R",
            message_id="0123456789abc", priority=4,
        )
        recorder.emit(
            STAGE_ARRIVAL, at_ms=50, cmid="cm-1", manager="QM.R", queue="Q.R",
            message_id="0123456789abc",
        )
        text = render_trace_timeline(recorder.events_for("cm-1"))
        assert "trace cm-1" in text
        assert "send" in text and "arrival" in text
        assert "+50" in text
        assert "priority=4" in text
        assert "0123456789…" in text  # long ids are shortened

    def test_trace_timeline_explicit_title(self):
        text = render_trace_timeline([], title="empty trace")
        assert text.startswith("empty trace")

    def test_render_metrics_tables(self):
        registry = MetricsRegistry()
        registry.incr("puts.QM.S", 3)
        registry.set_gauge("depth.QM.S.Q", 1)
        for v in [1.0, 2.0, 3.0]:
            registry.observe("lat_ms", v)
        text = render_metrics(registry)
        assert "puts.QM.S" in text and "counter" in text
        assert "depth.QM.S.Q" in text and "gauge" in text
        assert "lat_ms" in text and "p95" in text

    def test_render_metrics_empty(self):
        assert "no metrics recorded" in render_metrics(MetricsRegistry())
