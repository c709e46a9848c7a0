"""Unit and concurrency tests for :mod:`repro.obs.metrics`."""

from __future__ import annotations

import pickle
import threading

import pytest

from ledger.quantiles import rank as ledger_rank
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    get_metrics,
    set_metrics,
)
from repro.obs.metrics import nearest_rank
from repro.utils.timing import TimingStats


class TestNearestRank:
    QS = (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0)

    def test_equals_the_ledger_rule(self):
        """The ledger keeps its own copy of the rule; the two agree.
        Every whole percentile is checked too: products such as
        0.07 * 100 = 7.000000000000001 need the epsilon."""
        percentiles = tuple(k / 100 for k in range(101))
        for n in range(1, 1001):
            for q in self.QS + percentiles:
                assert nearest_rank(q, n) == ledger_rank(q, n), (q, n)

    def test_timing_stats_and_histogram_share_it(self):
        samples = [float(value) for value in range(1, 151)]
        stats = TimingStats(list(samples))
        histogram = Histogram("h", buckets=samples)
        for value in samples:
            histogram.observe(value)
        for q in self.QS:
            expected = samples[nearest_rank(q, len(samples)) - 1]
            assert stats.quantile(q) == expected
            assert histogram.quantile(q) == expected


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)


class TestHistogram:
    def test_bucketing_and_aggregates(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 100.0
        assert snap["bucket_counts"] == [1, 2, 1, 1]

    def test_nearest_rank_quantiles(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        # Ten samples: 9 in the <=1.0 bucket, one in the <=8.0 bucket.
        for _ in range(9):
            hist.observe(0.5)
        hist.observe(5.0)
        # p90 = rank ceil(0.9*10)=9 -> still the first bucket, not max.
        assert hist.quantile(0.9) <= 1.0
        assert hist.quantile(0.99) == 5.0  # clamped to observed max
        assert hist.quantile(0.5) <= 1.0

    def test_quantile_resolves_bucket_upper_bound(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.5)
        hist.observe(1.6)
        assert hist.quantile(0.5) == pytest.approx(1.6)  # min(bound, max)

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestRegistrySnapshots:
    def test_snapshot_is_plain_and_picklable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 1
        assert "p50" in snap["histograms"]["h"]
        assert "p90" in snap["histograms"]["h"]
        assert "p99" in snap["histograms"]["h"]

    def test_merge_adds_counters_and_buckets(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, n in ((a, 2), (b, 5)):
            registry.counter("c").inc(n)
            registry.gauge("g").set(n)
            registry.histogram("h", buckets=(1.0, 2.0)).observe(n / 10)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7
        assert snap["gauges"]["g"] == 5  # max wins
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == pytest.approx(0.2)
        assert snap["histograms"]["h"]["max"] == pytest.approx(0.5)

    def test_merge_into_empty_registry_adopts_bounds(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.histogram("h").bounds == (1.0, 2.0)
        assert target.histogram("h").count == 1

    def test_merge_mismatched_bounds_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_drain_returns_delta_and_resets(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(0.1)
        delta = registry.drain()
        assert delta["counters"]["c"] == 3
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0
        # A second drain reports only new activity.
        registry.counter("c").inc(1)
        assert registry.drain()["counters"]["c"] == 1


class TestNullRegistry:
    def test_default_registry_is_null(self):
        assert get_metrics() is NULL_METRICS
        assert not NULL_METRICS.enabled

    def test_null_metrics_are_shared_noops(self):
        counter = NULL_METRICS.counter("a")
        assert counter is NULL_METRICS.counter("b")
        assert counter is NULL_METRICS.gauge("g")
        assert counter is NULL_METRICS.histogram("h")
        counter.inc()
        counter.set(5)
        counter.observe(1.0)
        assert counter.value == 0
        assert NULL_METRICS.drain() == {}

    def test_set_metrics_swaps_and_restores(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            assert previous is NULL_METRICS
            assert get_metrics() is registry
        finally:
            assert set_metrics(None) is registry
        assert get_metrics() is NULL_METRICS


class TestConcurrency:
    THREADS = 8
    OPS = 2000

    def test_registry_hammered_from_eight_threads(self):
        """Counters, gauges and histograms stay exact under contention,
        including metric creation racing observation."""
        registry = MetricsRegistry()
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def work(worker: int) -> None:
            try:
                barrier.wait(timeout=10)
                for op in range(self.OPS):
                    registry.counter("shared.counter").inc()
                    registry.counter(f"worker.{worker}").inc(2)
                    registry.gauge("shared.gauge").set(worker)
                    registry.histogram(
                        "shared.hist", buckets=(0.25, 0.5, 1.0)
                    ).observe((op % 4) / 4)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = self.THREADS * self.OPS
        assert registry.counter("shared.counter").value == total
        for worker in range(self.THREADS):
            assert registry.counter(f"worker.{worker}").value == (
                2 * self.OPS
            )
        hist = registry.histogram("shared.hist")
        assert hist.count == total
        snap = hist.snapshot()
        assert sum(snap["bucket_counts"]) == total
        # Every op cycled 0, .25, .5, .75 evenly across the buckets.
        assert snap["bucket_counts"][:3] == [
            total // 2, total // 4, total // 4
        ]

    def test_concurrent_merges_are_atomic_per_metric(self):
        source = MetricsRegistry()
        source.counter("c").inc(1)
        source.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = source.snapshot()
        target = MetricsRegistry()
        threads = [
            threading.Thread(
                target=lambda: [target.merge(snap) for _ in range(50)]
            )
            for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = 50 * self.THREADS
        assert target.counter("c").value == expected
        assert target.histogram("h").count == expected
