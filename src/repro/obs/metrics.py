"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` names and owns every metric::

    metrics = MetricsRegistry()
    metrics.counter("pipeline.documents").inc()
    metrics.gauge("batch.queue_depth").set(7)
    metrics.histogram("pipeline.stage.solve.seconds").observe(0.012)

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain picklable dicts, so
worker *processes* can ship their numbers across the pickle wall and the
parent merges them with :meth:`MetricsRegistry.merge`;
:meth:`MetricsRegistry.drain` atomically snapshots-and-resets, which is
how ``BatchRunner`` process workers report deltas per task.  Worker
*threads* simply share one registry — every mutation takes the owning
metric's lock.

Histograms use fixed bucket boundaries (default: a log-spaced
seconds-oriented ladder), recording per-bucket counts plus count / sum /
min / max; p50/p90/p99 are nearest-rank estimates that resolve to the
upper bound of the bucket holding the rank (clamped to the observed max).
:func:`nearest_rank` is the one rank rule every quantile in the package
uses.

The disabled path is near-free: :data:`NULL_METRICS` hands out shared
no-op metric objects.  The process-wide registry defaults to it; enable
with :func:`set_metrics`.
"""

from __future__ import annotations

import bisect
import math
import operator
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Log-spaced ladder for durations in seconds (overflow bucket above).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: The quantiles every histogram snapshot reports.
SNAPSHOT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time value (queue depth, cache size, …)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Shift the current value by *amount*."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Shift the current value by ``-amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


def nearest_rank(q: float, n: int) -> int:
    """The 1-based nearest rank of the q-quantile among n samples.

    ``ceil(q*n)`` clamped to ``[1, n]``: q=0.9 over 10 samples is the 9th
    ordered sample, not the maximum.  The epsilon keeps a float product
    such as ``0.07 * 100 = 7.000000000000001`` from ceiling one rank too
    far.
    """
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def bucket_bounds(buckets: Optional[Sequence[float]]) -> Tuple[float, ...]:
    """Validated histogram bounds (:data:`DEFAULT_BUCKETS` for ``None``)."""
    bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
    if not bounds or list(bounds) != sorted(set(bounds)):
        raise ValueError(
            "histogram buckets must be strictly increasing and non-empty"
        )
    return bounds


class _HistogramSlot:
    """Bucket counts plus count / sum / min / max.

    The whole state of a :class:`Histogram`, and of one interval of a
    :class:`~repro.obs.window.WindowedHistogram`.  Not locked: the owner
    holds its own lock around every call.
    """

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: int):
        self.bucket_counts = [0] * buckets
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, bucket: int, value: float) -> None:
        """Count *value* into bucket index *bucket*."""
        self.bucket_counts[bucket] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @classmethod
    def from_row(cls, row: Mapping) -> "_HistogramSlot":
        """The slot a :meth:`row` (or a histogram snapshot) describes."""
        slot = cls(0)
        slot.bucket_counts = list(row["bucket_counts"])
        slot.count = row["count"]
        slot.sum = row["sum"]
        slot.min = row["min"]
        slot.max = row["max"]
        return slot

    def row(self) -> Dict[str, object]:
        """Picklable copy of the state."""
        return {
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def absorb(self, other: "_HistogramSlot") -> None:
        """Add *other*'s samples (bucket layouts must match)."""
        if not other.count:
            return
        self.bucket_counts = list(
            map(operator.add, self.bucket_counts, other.bucket_counts)
        )
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def quantile(self, bounds: Sequence[float], q: float) -> float:
        """Nearest-rank estimate: the upper bound of the bucket holding
        the rank, clamped to the observed maximum (exact for the overflow
        bucket); 0.0 while empty."""
        if self.count == 0:
            return 0.0
        rank = nearest_rank(q, self.count)
        cumulative = 0
        for bucket, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if bucket < len(bounds):
                    return min(bounds[bucket], self.max)
                break
        return self.max


class Histogram:
    """Fixed-bucket histogram with nearest-rank quantile estimates."""

    __slots__ = ("name", "bounds", "_lock", "_slot")

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ):
        self.name = name
        self.bounds = bucket_bounds(buckets)
        self._lock = threading.Lock()
        # One bucket per bound plus the overflow bucket.
        self._slot = _HistogramSlot(len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one sample."""
        bucket = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._slot.observe(bucket, value)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        with self._lock:
            return self._slot.count

    @property
    def sum(self) -> float:
        """Sum of recorded samples."""
        with self._lock:
            return self._slot.sum

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the bucket counts."""
        with self._lock:
            return self._slot.quantile(self.bounds, q)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view: counts, sum, min/max, buckets, p50/p90/p99."""
        with self._lock:
            slot = self._slot
            snap: Dict[str, object] = {
                "count": slot.count,
                "sum": slot.sum,
                "min": slot.min if slot.count else 0.0,
                "max": slot.max if slot.count else 0.0,
                "bounds": list(self.bounds),
                "bucket_counts": list(slot.bucket_counts),
            }
            for label, q in SNAPSHOT_QUANTILES:
                snap[label] = slot.quantile(self.bounds, q)
        return snap

    def merge(self, snapshot: Mapping) -> None:
        """Add another histogram's :meth:`snapshot` (bounds must match)."""
        if list(snapshot["bounds"]) != list(self.bounds):
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                "differ"
            )
        with self._lock:
            self._slot.absorb(_HistogramSlot.from_row(snapshot))

    def _reset(self) -> None:
        with self._lock:
            self._slot = _HistogramSlot(len(self.bounds) + 1)


class MetricsRegistry:
    """Names and owns every metric; snapshots merge across workers."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._windowed_counters: Dict[str, object] = {}
        self._windowed_histograms: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Metric accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first use."""
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*, created on first use."""
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram called *name*, created on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(name, buckets)
                )
        return metric

    def windowed_counter(self, name: str, **kwargs):
        """The windowed (rolling-rate) counter *name*, created on first
        use; kwargs (``window_seconds``, ``window_buckets``, ``clock``)
        only apply at creation."""
        metric = self._windowed_counters.get(name)
        if metric is None:
            from repro.obs.window import WindowedCounter

            with self._lock:
                metric = self._windowed_counters.setdefault(
                    name, WindowedCounter(name, **kwargs)
                )
        return metric

    def windowed_histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **kwargs,
    ):
        """The windowed (rolling-quantile) histogram *name*, created on
        first use; kwargs only apply at creation."""
        metric = self._windowed_histograms.get(name)
        if metric is None:
            from repro.obs.window import WindowedHistogram

            with self._lock:
                metric = self._windowed_histograms.setdefault(
                    name, WindowedHistogram(name, buckets, **kwargs)
                )
        return metric

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A picklable, consistent-per-metric copy of every metric."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            windowed_counters = list(self._windowed_counters.values())
            windowed_histograms = list(
                self._windowed_histograms.values()
            )
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
            "windows": {
                "counters": {
                    w.name: w.snapshot() for w in windowed_counters
                },
                "histograms": {
                    w.name: w.snapshot() for w in windowed_histograms
                },
            },
        }

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Alias of :meth:`snapshot` (JSON output, ``--metrics-out``)."""
        return self.snapshot()

    def reset(self) -> None:
        """Zero every metric (names and bucket layouts are kept)."""
        with self._lock:
            metrics: List[object] = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
                + list(self._windowed_counters.values())
                + list(self._windowed_histograms.values())
            )
        for metric in metrics:
            metric._reset()

    def drain(self) -> Dict[str, Dict[str, object]]:
        """Snapshot then reset — the per-task delta a process worker
        ships back to the parent for :meth:`merge`."""
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add; gauges keep the larger value (the interesting
        direction for queue depths and cache sizes); histograms add
        bucket counts (bucket layouts must match) and widen min/max.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            with gauge._lock:
                if value > gauge._value:
                    gauge._value = value
        for name, snap in snapshot.get("histograms", {}).items():
            if snap.get("count"):
                self.histogram(
                    name, buckets=snap.get("bounds") or None
                ).merge(snap)
        windows = snapshot.get("windows", {})
        for name, snap in windows.get("counters", {}).items():
            self.windowed_counter(
                name,
                window_seconds=snap["window_seconds"],
                window_buckets=snap["window_buckets"],
            ).merge(snap)
        for name, snap in windows.get("histograms", {}).items():
            self.windowed_histogram(
                name,
                buckets=snap.get("bounds") or None,
                window_seconds=snap["window_seconds"],
                window_buckets=snap["window_buckets"],
            ).merge(snap)


class _NullMetric:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    sum = 0.0
    total = 0.0
    bounds: Tuple[float, ...] = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def rate(self) -> float:
        return 0.0

    def merge(self, snapshot: Dict[str, object]) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """API-compatible registry that records nothing."""

    enabled = False

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> _NullMetric:
        return _NULL_METRIC

    def windowed_counter(self, name: str, **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def windowed_histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **kwargs,
    ) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "windows": {"counters": {}, "histograms": {}},
        }

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return self.snapshot()

    def reset(self) -> None:
        pass

    def drain(self) -> Dict[str, Dict[str, object]]:
        return {}

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        pass


#: The process-wide disabled registry (shared singleton).
NULL_METRICS = NullMetricsRegistry()

_metrics: object = NULL_METRICS


def get_metrics():
    """The process-wide metrics registry (``NULL_METRICS`` by default)."""
    return _metrics


def set_metrics(registry) -> object:
    """Install *registry* process-wide; returns the previous one.

    Pass ``None`` (or :data:`NULL_METRICS`) to disable metrics again.
    """
    global _metrics
    previous = _metrics
    _metrics = registry if registry is not None else NULL_METRICS
    return previous
