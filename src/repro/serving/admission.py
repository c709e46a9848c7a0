"""Admission control: bounded queueing plus shed-by-rung load policy.

Under overload a production NED service should degrade, not buffer: the
admission controller bounds the number of outstanding requests and maps
observed load onto the graceful-degradation ladder of
:mod:`repro.faults.resilient`.  A request admitted under pressure starts
life at a cheaper rung (``no_coherence``, then ``prior_only``); only when
the ladder is exhausted — the queue is literally full — is a request
rejected (HTTP 429).

The policy itself (:class:`ShedPolicy`) is a pure function of two load
signals, *queue-depth fraction* and *windowed-p99 / SLO ratio*, and is
monotone in both by construction: more load never yields a more capable
rung.  That monotonicity is the property the serving chaos suite checks
with Hypothesis.

The p99 is read from one :class:`~repro.obs.window.WindowedHistogram`
of request seconds (the last 60 s in twelve 5-second slots).  With a
metrics registry enabled the server hands admission the registry's
``serving.request.seconds`` window, so the p99 admission sheds on, the
p99 ``/metrics`` exports and ``/stats`` ``p99_ms`` are one number; with
``slo_ms`` on a bucket bound and objective 0.99, the latency ratio
exceeds 1 exactly when the SLO burn rate does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.resilient import DEGRADATION_LADDER
from repro.obs import WindowedHistogram, get_metrics

#: The admission verdicts, most capable first.  The first three are the
#: degradation ladder rungs a request may start at; ``REJECT`` is the
#: verdict past the last rung.
REJECT = "reject"
SHED_LADDER: Tuple[str, ...] = DEGRADATION_LADDER + (REJECT,)


class AdmissionRejected(ReproError):
    """Raised when the shed ladder is exhausted (queue full) — HTTP 429."""

    def __init__(self, depth: int, max_queue: int):
        super().__init__(
            f"admission queue full ({depth}/{max_queue}); request rejected"
        )
        self.depth = depth
        self.max_queue = max_queue


@dataclass(frozen=True)
class ShedPolicy:
    """Pure load -> rung mapping; monotone in both load signals.

    ``depth_fractions`` / ``latency_ratios`` are the two escalation
    thresholds of each signal.  The verdict is the *worse* of the two
    per-signal rungs, so either signal alone can push admission down the
    ladder, and rising load can never climb back up.  Latency alone never
    rejects — only a full queue does (``depth_fraction >= 1``), which is
    what "429 only when the shed ladder is exhausted" means.
    """

    depth_fractions: Tuple[float, float] = (0.5, 0.75)
    latency_ratios: Tuple[float, float] = (1.0, 2.0)

    def _depth_rung(self, fraction: float) -> int:
        if fraction >= 1.0:
            return 3  # reject: the queue itself is full
        if fraction >= self.depth_fractions[1]:
            return 2
        if fraction >= self.depth_fractions[0]:
            return 1
        return 0

    def _latency_rung(self, ratio: float) -> int:
        if ratio > self.latency_ratios[1]:
            return 2
        if ratio > self.latency_ratios[0]:
            return 1
        return 0

    def rung_for(self, depth_fraction: float, latency_ratio: float) -> str:
        """The admission verdict for the given load signals.

        Returns a ladder rung name, or :data:`REJECT` when the queue is
        full.  Monotone: raising either argument never returns an earlier
        (more capable) ladder position.
        """
        index = max(
            self._depth_rung(depth_fraction),
            self._latency_rung(latency_ratio),
        )
        return SHED_LADDER[index]


class AdmissionController:
    """Bounded admission with shed-by-rung accounting.

    ``admit`` charges one slot and returns the starting rung the request
    is entitled to; ``complete`` releases the slot and feeds the observed
    latency into ``latencies``, the windowed histogram of request seconds
    whose p99 is the policy's latency signal.  Depth therefore counts
    *outstanding* requests — waiting in the micro-batcher plus in-flight
    in the batch executor — which is the quantity that bounds server
    memory.  Without a ``latencies`` histogram admission keeps its own,
    so a server with metrics disabled still sheds on latency.
    """

    def __init__(
        self,
        max_queue: int,
        slo_ms: float,
        policy: Optional[ShedPolicy] = None,
        latencies: Optional[WindowedHistogram] = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if slo_ms <= 0:
            raise ValueError("slo_ms must be > 0")
        self.max_queue = max_queue
        self.slo_ms = slo_ms
        self.policy = policy if policy is not None else ShedPolicy()
        self.latencies = (
            latencies
            if latencies is not None
            else WindowedHistogram("serving.request.seconds")
        )
        self._lock = threading.Lock()
        self._depth = 0
        self._admitted: Dict[str, int] = {}
        self._rejected = 0
        self._completed = 0

    # ------------------------------------------------------------------
    # Load signals
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Outstanding admitted requests (queued + in-flight)."""
        with self._lock:
            return self._depth

    def p99_ms(self) -> float:
        """The windowed p99 request latency in milliseconds."""
        return self.latencies.quantile(0.99) * 1000.0

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------
    def admit(self) -> str:
        """Charge one slot and return this request's starting rung.

        Raises :class:`AdmissionRejected` when the queue is full (the
        only condition that rejects).  The decision and the slot charge
        are atomic, so concurrent admissions cannot overshoot
        ``max_queue``.
        """
        latency_ratio = self.p99_ms() / self.slo_ms
        metrics = get_metrics()
        with self._lock:
            rung = self.policy.rung_for(
                self._depth / self.max_queue, latency_ratio
            )
            if rung == REJECT:
                self._rejected += 1
                depth = self._depth
            else:
                self._depth += 1
                self._admitted[rung] = self._admitted.get(rung, 0) + 1
        if rung == REJECT:
            if metrics.enabled:
                metrics.counter("serving.rejected").inc()
                metrics.windowed_counter("serving.rejected").inc()
            raise AdmissionRejected(depth, self.max_queue)
        if metrics.enabled:
            metrics.counter("serving.admitted").inc()
            metrics.counter(f"serving.admitted.{rung}").inc()
            metrics.windowed_counter("serving.admitted").inc()
            if rung != "full":
                metrics.counter("serving.shed").inc()
                metrics.windowed_counter("serving.shed").inc()
            metrics.gauge("serving.queue_depth").set(self.depth)
        return rung

    def complete(self, latency_ms: Optional[float] = None) -> None:
        """Release one slot; record the request's latency."""
        with self._lock:
            if self._depth <= 0:
                raise ReproError(
                    "admission complete() without a matching admit()"
                )
            self._depth -= 1
            self._completed += 1
        if latency_ms is not None:
            self.latencies.observe(latency_ms / 1000.0)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge("serving.queue_depth").set(self.depth)
            if latency_ms is not None:
                metrics.histogram("serving.request.seconds").observe(
                    latency_ms / 1000.0
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Admission counters: per-rung admits, rejects, completions."""
        with self._lock:
            admitted = dict(self._admitted)
            return {
                "depth": self._depth,
                "max_queue": self.max_queue,
                "admitted": admitted,
                "shed": sum(
                    count
                    for rung, count in admitted.items()
                    if rung != "full"
                ),
                "rejected": self._rejected,
                "completed": self._completed,
                "p99_ms": self.p99_ms(),
            }

    @property
    def rung_mix(self) -> List[Tuple[str, int]]:
        """Admissions per rung in ladder order (for reports)."""
        with self._lock:
            admitted = dict(self._admitted)
        return [
            (rung, admitted.get(rung, 0)) for rung in DEGRADATION_LADDER
        ]
