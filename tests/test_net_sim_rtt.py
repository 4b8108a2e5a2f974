"""Sim-network retry timers route through the shared RFC 6298 estimator.

The same ``RttEstimator`` drives retransmission on the in-process
``MessageNetwork`` (here) and the TCP transport (test_net_wire); these
tests pin the sim side: initial RTO from ``retry_interval_ms``,
samples from clean transfers, backoff on loss, Karn's rule on retries
and re-drives.
"""

import pytest

from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.network import MessageNetwork, Transport
from repro.net.rtt import RttEstimator


def build(network, clock, **connect_kwargs):
    managers = {}
    for name in ("QM.A", "QM.B"):
        managers[name] = network.add_manager(QueueManager(name, clock))
    network.connect("QM.A", "QM.B", **connect_kwargs)
    return managers


def test_network_is_a_transport(network):
    assert isinstance(network, Transport)


def test_channel_estimator_seeded_from_retry_interval(network, clock):
    build(network, clock, retry_interval_ms=250)
    chan = network.channel("QM.A", "QM.B")
    assert isinstance(chan.rtt, RttEstimator)
    assert chan.rtt.rto == 250.0


def test_clean_transfer_feeds_rtt_sample(network, scheduler, clock):
    managers = build(network, clock, latency_ms=40)
    managers["QM.B"].define_queue("IN.Q")
    managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body="x"))
    scheduler.run_all()
    chan = network.channel("QM.A", "QM.B")
    assert chan.rtt.samples == 1
    assert chan.rtt.srtt == pytest.approx(40.0)
    assert not chan.inflight  # tracking cleaned up


def test_lost_attempt_backs_off_and_retries_at_rto(network, scheduler, clock):
    managers = build(network, clock, latency_ms=10, loss_rate=0.9,
                     retry_interval_ms=100)
    managers["QM.B"].define_queue("IN.Q")
    for i in range(10):
        managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body=i))
    scheduler.run_all()
    chan = network.channel("QM.A", "QM.B")
    assert managers["QM.B"].depth("IN.Q") == 10  # reliable despite loss
    assert chan.stats.failed_attempts > 0
    # Losses double the RTO (clamped), at most once per timeout interval.
    assert 0 < chan.rtt.backoffs <= chan.stats.failed_attempts
    # Samples only from the (rare at 90% loss) clean first attempts.
    assert chan.rtt.samples <= 10 - 1


def test_concurrent_losses_inside_one_interval_back_off_once(
    network, scheduler, clock
):
    """RFC 6298 §5.5: the channel's one timer backs off per *expiry*.  N
    parked messages losing an attempt inside one timeout interval are one
    expiry — not N doublings, which at 30 in flight turned an 11 ms RTO
    into 45 s and missed a pick-up window the retries would have met."""
    managers = build(network, clock, latency_ms=10, loss_rate=0.5,
                     retry_interval_ms=100)
    managers["QM.B"].define_queue("IN.Q")
    lost = iter([0.0] * 8)  # the first attempt of each message is lost
    network._rng.random = lambda: next(lost, 1.0)
    for i in range(8):
        managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body=i))
    scheduler.run_all()
    chan = network.channel("QM.A", "QM.B")
    assert managers["QM.B"].depth("IN.Q") == 8
    assert chan.stats.failed_attempts == 8
    assert chan.rtt.backoffs == 1
    assert chan.rtt.rto == 200.0  # every delivery was a retry: no sample (Karn)
    # A loss after that interval has run out is a new expiry.
    lost = iter([0.0])
    managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body="later"))
    scheduler.run_all()
    assert managers["QM.B"].depth("IN.Q") == 9
    assert chan.rtt.backoffs == 2


def test_karn_rule_retried_message_never_samples(network, scheduler, clock):
    managers = build(network, clock, latency_ms=10, loss_rate=0.5,
                     retry_interval_ms=50)
    managers["QM.B"].define_queue("IN.Q")
    for i in range(30):
        managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body=i))
    scheduler.run_all()
    chan = network.channel("QM.A", "QM.B")
    assert managers["QM.B"].depth("IN.Q") == 30
    # Samples can only come from messages that were never retried.
    assert chan.rtt.samples <= chan.stats.delivered
    assert chan.rtt.samples >= chan.stats.delivered - chan.stats.failed_attempts
    assert not chan.inflight


def test_rto_adapts_toward_channel_latency(network, scheduler, clock):
    managers = build(network, clock, latency_ms=20, retry_interval_ms=5000)
    managers["QM.B"].define_queue("IN.Q")
    for i in range(10):
        managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body=i))
        scheduler.run_all()
    chan = network.channel("QM.A", "QM.B")
    # Far below the configured 5s initial interval once samples arrive.
    assert chan.rtt.rto < 200.0


def test_redrive_marks_inflight_ambiguous(network, scheduler, clock):
    managers = build(network, clock, latency_ms=30)
    managers["QM.B"].define_queue("IN.Q")
    network.stop_channel("QM.A", "QM.B")
    managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body="parked"))
    scheduler.run_all()
    assert managers["QM.B"].depth("IN.Q") == 0  # partitioned
    network.start_channel("QM.A", "QM.B")  # re-drives the parked message
    # The original attempt event already fired against the stopped
    # channel; the re-driven attempt exists.  Heal-then-redrive again to
    # force a second outstanding attempt for the same id.
    network.redrive()
    scheduler.run_all()
    assert managers["QM.B"].depth("IN.Q") == 1
    chan = network.channel("QM.A", "QM.B")
    # Ambiguous attempt: no sample taken (Karn applies to re-drives).
    assert chan.rtt.samples == 0
    assert not chan.inflight


def test_sync_network_unaffected(sync_network, clock):
    managers = build(sync_network, clock)
    managers["QM.B"].define_queue("IN.Q")
    managers["QM.A"].put_remote("QM.B", "IN.Q", Message(body="now"))
    assert managers["QM.B"].get("IN.Q").body == "now"
    chan = sync_network.channel("QM.A", "QM.B")
    assert chan.rtt.samples == 0  # zero-latency sync path takes no samples
