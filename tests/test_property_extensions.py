"""Property-based tests for the extension modules (expectations)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.expectations import ExpectationOutcome, ExpectationService
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.sim.clock import SimulatedClock
from repro.sim.scheduler import EventScheduler


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=200), max_size=10),  # arrivals
    st.integers(min_value=1, max_value=5),                            # min_count
    st.integers(min_value=1, max_value=150),                          # deadline
)
def test_expectation_decision_matches_oracle(arrival_times, min_count, deadline):
    """The expectation outcome equals the obvious oracle: MET iff at
    least min_count arrivals happen at or before the deadline, decided at
    the min_count-th timely arrival (or the deadline)."""
    clock = SimulatedClock()
    scheduler = EventScheduler(clock)
    manager = QueueManager("QM.R", clock)
    service = ExpectationService(manager, scheduler=scheduler)
    expectation = service.expect("Q", within_ms=deadline, min_count=min_count)
    for at in sorted(arrival_times):
        scheduler.call_at(at, lambda: manager.put("Q", Message(body=None)))
    scheduler.run_all()

    timely = sorted(t for t in arrival_times if t <= deadline)
    if len(timely) >= min_count:
        assert expectation.outcome is ExpectationOutcome.MET
        assert expectation.decided_at_ms == timely[min_count - 1]
    else:
        assert expectation.outcome is ExpectationOutcome.FAILED
        assert expectation.decided_at_ms == deadline
