"""Time-windowed metrics: rates and rolling quantiles over a bucket ring.

The cumulative counters/histograms of :mod:`repro.obs.metrics` answer
"how much since boot"; a live dashboard and the SLO tracker need "how
much *lately*".  Both windowed metric kinds here keep a ring of
fixed-interval buckets keyed by the **absolute** interval index
``int(now / interval)``:

* writes land in the current interval's slot;
* reads merge every slot younger than the window and ignore the rest —
  old samples age out by arithmetic, no sweeper thread;
* absolute indexing makes snapshots mergeable across processes (all
  workers share the wall clock), which is how windowed series ride the
  existing ``BatchRunner`` metric fan-in.

The clock is injectable so tests can plant old samples and watch them
age out deterministically.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import (
    SNAPSHOT_QUANTILES,
    _HistogramSlot,
    bucket_bounds,
)

__all__ = ["WindowedCounter", "WindowedHistogram"]

#: Default rolling window: one minute in twelve 5-second buckets.
DEFAULT_WINDOW_SECONDS = 60.0
DEFAULT_WINDOW_BUCKETS = 12


class _WindowBase:
    """Ring bookkeeping shared by both windowed metric kinds."""

    def __init__(
        self,
        name: str,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        window_buckets: int = DEFAULT_WINDOW_BUCKETS,
        clock: Callable[[], float] = time.time,
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if window_buckets < 1:
            raise ValueError("window_buckets must be >= 1")
        self.name = name
        self.window_seconds = float(window_seconds)
        self.window_buckets = int(window_buckets)
        self.interval = self.window_seconds / self.window_buckets
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: Dict[int, object] = {}

    def _slot_index(self) -> int:
        return int(self._clock() / self.interval)

    def _live_indexes(self, now_index: Optional[int] = None) -> List[int]:
        """Indexes inside the window; also evicts everything older."""
        if now_index is None:
            now_index = self._slot_index()
        oldest = now_index - self.window_buckets + 1
        stale = [index for index in self._ring if index < oldest]
        for index in stale:
            del self._ring[index]
        return sorted(self._ring)

    def _reset(self) -> None:
        with self._lock:
            self._ring.clear()


class WindowedCounter(_WindowBase):
    """Event count over the rolling window, with a per-second rate."""

    def inc(self, amount: float = 1.0) -> None:
        """Count *amount* events now."""
        index = self._slot_index()
        with self._lock:
            self._ring[index] = self._ring.get(index, 0.0) + amount

    @property
    def total(self) -> float:
        """Events inside the window."""
        with self._lock:
            return sum(
                self._ring[index] for index in self._live_indexes()
            )

    def rate(self) -> float:
        """Events per second over the window."""
        return self.total / self.window_seconds

    def snapshot(self) -> Dict[str, object]:
        """Picklable view (``ring`` keys are absolute interval indexes)."""
        with self._lock:
            live = self._live_indexes()
            return {
                "window_seconds": self.window_seconds,
                "window_buckets": self.window_buckets,
                "total": sum(self._ring[index] for index in live),
                "rate": (
                    sum(self._ring[index] for index in live)
                    / self.window_seconds
                ),
                "ring": {
                    str(index): self._ring[index] for index in live
                },
            }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another process's snapshot in (absolute-index aligned)."""
        with self._lock:
            for key, amount in snapshot.get("ring", {}).items():
                index = int(key)
                self._ring[index] = self._ring.get(index, 0.0) + amount
            self._live_indexes()


class WindowedHistogram(_WindowBase):
    """Fixed-bound histogram whose quantiles cover only the window.

    Each live interval is one :class:`~repro.obs.metrics.Histogram`
    state; reads merge the live intervals and walk the buckets the way
    the cumulative histogram does — p99 therefore *forgets* any sample
    older than ``window_seconds``.
    """

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        window_buckets: int = DEFAULT_WINDOW_BUCKETS,
        clock: Callable[[], float] = time.time,
    ):
        super().__init__(name, window_seconds, window_buckets, clock)
        self.bounds = bucket_bounds(buckets)

    def _slot_at(self, index: int) -> _HistogramSlot:
        slot = self._ring.get(index)
        if slot is None:
            slot = self._ring[index] = _HistogramSlot(len(self.bounds) + 1)
        return slot

    def observe(self, value: float) -> None:
        """Record one sample now."""
        index = self._slot_index()
        bucket = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._slot_at(index).observe(bucket, value)

    def _merged_locked(self) -> _HistogramSlot:
        merged = _HistogramSlot(len(self.bounds) + 1)
        for index in self._live_indexes():
            merged.absorb(self._ring[index])
        return merged

    @property
    def count(self) -> int:
        """Samples inside the window."""
        with self._lock:
            return sum(
                self._ring[index].count for index in self._live_indexes()
            )

    def rate(self) -> float:
        """Samples per second over the window."""
        return self.count / self.window_seconds

    def quantile(self, q: float) -> float:
        """Nearest-rank windowed quantile (0.0 while the window is empty)."""
        with self._lock:
            merged = self._merged_locked()
        return merged.quantile(self.bounds, q)

    def snapshot(self) -> Dict[str, object]:
        """Picklable view: windowed count/sum/rate/min/max/quantiles."""
        with self._lock:
            merged = self._merged_locked()
            ring = {
                str(index): slot.row() for index, slot in self._ring.items()
            }
        total = merged.count
        snap: Dict[str, object] = {
            "window_seconds": self.window_seconds,
            "window_buckets": self.window_buckets,
            "bounds": list(self.bounds),
            "count": total,
            "sum": merged.sum,
            "rate": total / self.window_seconds,
            "min": merged.min if total else 0.0,
            "max": merged.max if total else 0.0,
            "ring": ring,
        }
        for label, q in SNAPSHOT_QUANTILES:
            snap[label] = merged.quantile(self.bounds, q)
        return snap

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another process's snapshot in (absolute-index aligned)."""
        if list(snapshot.get("bounds", self.bounds)) != list(self.bounds):
            raise ValueError(
                f"cannot merge windowed histogram {self.name!r}: bucket "
                "bounds differ"
            )
        with self._lock:
            for key, row in snapshot.get("ring", {}).items():
                self._slot_at(int(key)).absorb(_HistogramSlot.from_row(row))
            self._live_indexes()
