"""Admission-control invariants and the monotone-shed property.

The policy is a pure function, so most of this suite needs no server:
bounded depth, shed thresholds, reject-only-at-the-bound, and the
Hypothesis property that rising load can never yield a more capable
rung than an earlier-admitted request got.  The latency signal is a
windowed histogram of request seconds; tests inject one on a fake clock
so samples age out on demand, and hold the shed decision to the SLO
tracker's burn rate on the same clock.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.resilient import DEGRADATION_LADDER
from repro.obs import DEFAULT_BUCKETS, SloTracker, WindowedHistogram
from repro.serving.admission import (
    REJECT,
    SHED_LADDER,
    AdmissionController,
    AdmissionRejected,
    ShedPolicy,
)

from tests.obs.test_window import FakeClock

RUNG_INDEX = {rung: index for index, rung in enumerate(SHED_LADDER)}


def clocked_controller(max_queue: int, slo_ms: float, clock: FakeClock):
    """An admission controller whose latency window runs on *clock*."""
    return AdmissionController(
        max_queue=max_queue,
        slo_ms=slo_ms,
        latencies=WindowedHistogram("serving.request.seconds", clock=clock),
    )


# ----------------------------------------------------------------------
# ShedPolicy: the pure mapping
# ----------------------------------------------------------------------
def test_policy_tiers_by_depth():
    policy = ShedPolicy(depth_fractions=(0.5, 0.75))
    assert policy.rung_for(0.0, 0.0) == "full"
    assert policy.rung_for(0.49, 0.0) == "full"
    assert policy.rung_for(0.5, 0.0) == "no_coherence"
    assert policy.rung_for(0.75, 0.0) == "prior_only"
    assert policy.rung_for(0.99, 0.0) == "prior_only"
    assert policy.rung_for(1.0, 0.0) == REJECT


def test_policy_tiers_by_latency():
    policy = ShedPolicy(latency_ratios=(1.0, 2.0))
    assert policy.rung_for(0.0, 0.5) == "full"
    assert policy.rung_for(0.0, 1.0) == "full"
    assert policy.rung_for(0.0, 1.5) == "no_coherence"
    assert policy.rung_for(0.0, 2.5) == "prior_only"


def test_latency_alone_never_rejects():
    """429 only when the shed ladder is exhausted — i.e. the queue is
    literally full.  However blown the SLO is, a non-full queue admits
    at prior_only."""
    policy = ShedPolicy()
    for ratio in (1.0, 2.0, 10.0, 1e9):
        assert policy.rung_for(0.99, ratio) != REJECT


def test_worse_signal_wins():
    policy = ShedPolicy()
    assert policy.rung_for(0.6, 5.0) == "prior_only"
    assert policy.rung_for(0.8, 0.0) == "prior_only"
    assert policy.rung_for(0.6, 1.5) == "no_coherence"


@settings(max_examples=300, deadline=None)
@given(
    f1=st.floats(0.0, 2.0),
    f2=st.floats(0.0, 2.0),
    r1=st.floats(0.0, 10.0),
    r2=st.floats(0.0, 10.0),
)
def test_policy_monotone_componentwise(f1, f2, r1, r2):
    """More load never yields a more capable rung (either signal)."""
    lo_f, hi_f = sorted((f1, f2))
    lo_r, hi_r = sorted((r1, r2))
    policy = ShedPolicy()
    relaxed = policy.rung_for(lo_f, lo_r)
    loaded = policy.rung_for(hi_f, hi_r)
    assert RUNG_INDEX[loaded] >= RUNG_INDEX[relaxed]


@settings(max_examples=200, deadline=None)
@given(
    arrivals=st.integers(min_value=1, max_value=40),
    max_queue=st.integers(min_value=1, max_value=32),
    seed_latency=st.floats(0.0, 5000.0),
)
def test_shed_ladder_monotone_under_rising_load(
    arrivals, max_queue, seed_latency
):
    """For any seeded arrival pattern with no completions (load only
    rises), each admitted request's rung is no better than any
    earlier-admitted one, and the first reject ends admission for good.
    """
    controller = AdmissionController(max_queue=max_queue, slo_ms=1000.0)
    controller.latencies.observe(seed_latency / 1000.0)
    indices = []
    rejected_at = None
    for arrival in range(arrivals):
        try:
            rung = controller.admit()
        except AdmissionRejected:
            rejected_at = arrival
            break
        indices.append(RUNG_INDEX[rung])
    assert indices == sorted(indices)
    if rejected_at is not None:
        assert rejected_at == max_queue  # exactly at the bound
        assert controller.depth == max_queue


# ----------------------------------------------------------------------
# AdmissionController: bounded depth and slot accounting
# ----------------------------------------------------------------------
def test_depth_is_bounded_and_reject_only_at_bound():
    controller = AdmissionController(max_queue=4, slo_ms=1000.0)
    rungs = [controller.admit() for _ in range(4)]
    assert controller.depth == 4
    assert all(rung in DEGRADATION_LADDER for rung in rungs)
    with pytest.raises(AdmissionRejected):
        controller.admit()
    assert controller.depth == 4  # a reject charges no slot
    controller.complete(latency_ms=10.0)
    assert controller.depth == 3
    assert controller.admit() in DEGRADATION_LADDER  # slot freed


def test_admission_sheds_before_rejecting():
    """Crossing the depth thresholds degrades the granted rung before
    anything is rejected."""
    controller = AdmissionController(max_queue=8, slo_ms=1000.0)
    rungs = [controller.admit() for _ in range(8)]
    assert rungs[:4] == ["full"] * 4  # below 0.5
    assert rungs[4:6] == ["no_coherence"] * 2  # [0.5, 0.75)
    assert rungs[6:] == ["prior_only"] * 2  # [0.75, 1.0)
    stats = controller.stats()
    assert stats["shed"] == 4
    assert stats["rejected"] == 0


def test_latency_pressure_degrades_admission():
    clock = FakeClock()
    controller = clocked_controller(100, 100.0, clock)
    assert controller.admit() == "full"
    for _ in range(8):
        controller.latencies.observe(0.150)  # p99 = 1.5x SLO
    assert controller.admit() == "no_coherence"
    for _ in range(8):
        controller.latencies.observe(0.500)  # p99 = 5x SLO
    assert controller.admit() == "prior_only"
    clock.advance(60.0)  # both bursts age out of the window
    assert controller.admit() == "full"


def test_complete_without_admit_raises():
    controller = AdmissionController(max_queue=2, slo_ms=100.0)
    with pytest.raises(Exception):
        controller.complete()


def test_stats_and_rung_mix_accounting():
    controller = AdmissionController(max_queue=4, slo_ms=1000.0)
    for _ in range(4):
        controller.admit()
    with pytest.raises(AdmissionRejected):
        controller.admit()
    for _ in range(4):
        controller.complete(latency_ms=5.0)
    stats = controller.stats()
    assert stats["completed"] == 4
    assert stats["rejected"] == 1
    assert stats["depth"] == 0
    mix = dict(controller.rung_mix)
    assert sum(mix.values()) == 4
    assert mix["full"] == 2


# ----------------------------------------------------------------------
# The latency window: one windowed histogram of request seconds
# ----------------------------------------------------------------------
def test_latency_window_quantiles():
    """complete() feeds milliseconds in as seconds; the p99 is the
    nearest-rank bucket estimate, never below the exact p99."""
    controller = clocked_controller(4, 1000.0, FakeClock())
    assert controller.stats()["p99_ms"] == 0.0
    for value in range(1, 101):
        controller.admit()
        controller.complete(latency_ms=float(value))
    assert controller.latencies.count == 100
    # The 99th of 1..100 ms lies in the (50, 100] ms bucket.
    assert controller.stats()["p99_ms"] == pytest.approx(100.0)
    assert controller.p99_ms() >= 99.0
    assert controller.latencies.quantile(0.5) == 0.05


def test_latency_window_slides():
    """A slow request sheds until it is older than the window."""
    clock = FakeClock()
    controller = clocked_controller(4, 100.0, clock)
    controller.latencies.observe(0.5)  # one request at 5x the SLO
    assert controller.admit() == "prior_only"
    clock.advance(30.0)
    controller.complete(latency_ms=2.0)
    assert controller.p99_ms() == pytest.approx(500.0)
    clock.advance(30.0)  # the 0.5 s sample leaves; the 2 ms one stays
    assert controller.p99_ms() == pytest.approx(2.0)
    assert controller.admit() == "full"


def test_metrics_disabled_admission_keeps_its_own_window():
    controller = AdmissionController(max_queue=2, slo_ms=100.0)
    assert isinstance(controller.latencies, WindowedHistogram)
    controller.admit()
    controller.complete(latency_ms=500.0)
    assert controller.admit() == "prior_only"


@settings(max_examples=150, deadline=None)
@example(slo_ms=100.0, runs=[(0.0, 500, 5_000), (0.0, 4, 150_000)])
@example(slo_ms=100.0, runs=[(0.0, 500, 5_000), (0.0, 6, 150_000)])
@example(
    slo_ms=100.0,
    runs=[(0.0, 500, 5_000), (0.0, 6, 150_000), (61.0, 1, 5_000)],
)
@given(
    slo_ms=st.sampled_from([bound * 1000.0 for bound in DEFAULT_BUCKETS]),
    runs=st.lists(
        st.tuples(
            st.floats(0.0, 30.0),  # seconds before the run
            st.integers(1, 150),  # requests in the run
            st.one_of(  # their latency, in whole microseconds
                st.integers(1, 90_000_000),
                st.builds(
                    lambda bound, offset: max(1, round(bound * 1e6) + offset),
                    st.sampled_from(DEFAULT_BUCKETS),
                    st.integers(-2, 2),
                ),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_latency_signal_agrees_with_slo_burn_rate(slo_ms, runs):
    """With the SLO on a bucket bound and objective 0.99, admission sheds
    on latency exactly when the SLO tracker burns faster than 1x — one
    latency sequence fed to both on one clock, samples ageing out."""
    clock = FakeClock()
    controller = clocked_controller(2, slo_ms, clock)
    tracker = SloTracker(slo_ms=slo_ms, objective=0.99, clock=clock)
    for wait_s, count, latency_us in runs:
        clock.advance(wait_s)
        latency_ms = latency_us / 1000.0
        for _ in range(count):
            controller.admit()
            controller.complete(latency_ms=latency_ms)
            tracker.record(latency_ms)
        burning = tracker.burn_rate() > 1.0
        assert (controller.p99_ms() / slo_ms > 1.0) == burning
        rung = controller.admit()  # the empty queue leaves latency alone
        controller.complete()
        assert (rung != "full") == burning


def test_invalid_construction():
    with pytest.raises(ValueError):
        AdmissionController(max_queue=0, slo_ms=100.0)
    with pytest.raises(ValueError):
        AdmissionController(max_queue=1, slo_ms=0.0)
