"""Wall-clock timing used by the efficiency experiments (Table 4.4) and
the per-stage pipeline instrumentation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.metrics import nearest_rank


class Stopwatch:
    """Accumulates elapsed time per named phase.

    Usage::

        watch = Stopwatch()
        with watch.measure("coherence"):
            ...
        watch.total("coherence")
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def measure(self, phase: str) -> "_Measurement":
        """Context manager timing one phase occurrence."""
        return _Measurement(self, phase)

    def record(self, phase: str, elapsed: float) -> None:
        """Add an elapsed duration to a phase."""
        self._totals[phase] = self._totals.get(phase, 0.0) + elapsed
        self._counts[phase] = self._counts.get(phase, 0) + 1

    def total(self, phase: str) -> float:
        """Accumulated seconds of a phase."""
        return self._totals.get(phase, 0.0)

    def count(self, phase: str) -> int:
        """Number of recorded occurrences of a phase."""
        return self._counts.get(phase, 0)

    def phases(self) -> List[str]:
        """All phase names, sorted."""
        return sorted(self._totals)


class _Measurement:
    def __init__(self, watch: Stopwatch, phase: str):
        self._watch = watch
        self._phase = phase
        self._start = 0.0

    def __enter__(self) -> "_Measurement":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._watch.record(self._phase, time.perf_counter() - self._start)


@dataclass
class PipelineStats:
    """Per-stage instrumentation of one disambiguation run.

    ``phase_seconds`` maps stage name (``candidate_retrieval``,
    ``feature_computation``, ``coherence_test``, ``graph_build``,
    ``solve``, ``post_process``) to accumulated wall-clock seconds; ``counters`` carries volume/effort
    numbers (mention and candidate counts, solver iterations, heap pops,
    …).  Attached to :class:`repro.types.DisambiguationResult` as
    ``stats``.
    """

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, Union[int, float, str]] = field(default_factory=dict)

    @classmethod
    def from_stopwatch(
        cls,
        watch: "Stopwatch",
        counters: Optional[Mapping[str, Union[int, float, str]]] = None,
    ) -> "PipelineStats":
        """Collect every phase of *watch* plus optional counters."""
        return cls(
            phase_seconds={
                phase: watch.total(phase) for phase in watch.phases()
            },
            counters=dict(counters) if counters else {},
        )

    @classmethod
    def merge(cls, stats: Iterable["PipelineStats"]) -> "PipelineStats":
        """Fold per-document stats into corpus totals.

        Phase seconds and numeric counters add up (every counter is a
        per-document count).  Non-numeric counters (e.g. the solver's
        post-process strategy string) are dropped.
        """
        merged = cls()
        for item in stats:
            if item is None:
                continue
            for phase, seconds in item.phase_seconds.items():
                merged.phase_seconds[phase] = (
                    merged.phase_seconds.get(phase, 0.0) + seconds
                )
            for key, value in item.counters.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                merged.counters[key] = merged.counters.get(key, 0) + value
        return merged

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded phase durations."""
        return sum(self.phase_seconds.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (benchmark output, logging)."""
        return {
            "phase_seconds": dict(self.phase_seconds),
            "total_seconds": self.total_seconds,
            "counters": dict(self.counters),
        }


@dataclass
class TimingStats:
    """Summary statistics over a list of per-document timings."""

    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation (0 for fewer than two samples)."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return (sum((x - mean) ** 2 for x in self.samples) / (n - 1)) ** 0.5

    def quantile(self, q: float) -> float:
        """Empirical quantile by :func:`~repro.obs.metrics.nearest_rank`
        (q in [0, 1]; 0.0 when empty)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        return ordered[nearest_rank(q, len(ordered)) - 1]
