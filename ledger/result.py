"""One workload run's figures, checks and printed form."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.eval.measures import DocumentOutcome, EvaluationResult

from ledger.quantiles import quantile


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples the value summarizes (None for a single measurement).
    samples: Optional[int] = None


@dataclass
class RunResult:
    """What one workload run measured and whether its answers held."""

    workload: str
    #: End-to-end metrics (untraced run).
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics (traced run).
    layers: Dict[str, Metric] = field(default_factory=dict)
    #: Printed with the end-to-end metrics but carrying no bound: too
    #: unsteady on a shared host to gate on (p99), or the complement of
    #: a bounded metric (fail_frac).
    reported: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def put(
        self, name: str, value: float, unit: str,
        samples: Optional[int] = None,
    ) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def put_layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = Metric(float(value), unit)

    def put_reported(
        self, name: str, value: float, unit: str,
        samples: Optional[int] = None,
    ) -> None:
        self.reported[name] = Metric(float(value), unit, samples)

    @property
    def correct(self) -> bool:
        return not self.problems

    def lines(self, traced: bool) -> List[str]:
        """The human-readable report: every metric with unit and count."""
        metrics = self.layers if traced else self.metrics
        rows = [(name, m, "") for name, m in metrics.items()]
        if not traced:
            rows += [(n, m, "  unbounded") for n, m in self.reported.items()]
        width = max([len(name) for name, _m, _tag in rows] + [4])
        out = []
        for name, m, tag in rows:
            count = "" if m.samples is None else f"  (n={m.samples})"
            out.append(f"  {name:<{width}}  {m.value:.6g} {m.unit}{count}{tag}")
        return out

    def summary(self, traced: bool) -> Dict[str, object]:
        """The last-line JSON object."""
        metrics = self.layers if traced else self.metrics
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metric.value, "unit": metric.unit}
                for name, metric in metrics.items()
            },
        }


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(documents, predictions: Sequence[Optional[dict]]):
    """(micro, macro) over in-KB gold mentions; a missing answer is wrong."""
    evaluation = EvaluationResult()
    for annotated, predicted in zip(documents, predictions):
        outcome = DocumentOutcome(doc_id=annotated.doc_id)
        for annotation in annotated.gold:
            if annotation.is_out_of_kb:
                continue
            guess = predicted.get(annotation.mention) if predicted else None
            outcome.pairs.append((annotation.entity, guess, None))
        evaluation.outcomes.append(outcome)
    return evaluation.micro, evaluation.macro


def put_latency(result: RunResult, latencies_ms: Sequence[float]) -> None:
    """``p50_ms``, ``p90_ms`` and (unbounded) ``p99_ms``, with the count."""
    n = len(latencies_ms)
    result.put("p50_ms", quantile(latencies_ms, 0.50), "ms", n)
    result.put("p90_ms", quantile(latencies_ms, 0.90), "ms", n)
    result.put_reported("p99_ms", quantile(latencies_ms, 0.99), "ms", n)


def put_fail_frac(result: RunResult) -> None:
    """``ok_frac`` (bounded) and its complement ``fail_frac``."""
    fail = result.failed / result.attempted
    result.put("ok_frac", 1.0 - fail, "fraction", result.attempted)
    result.put_reported("fail_frac", fail, "fraction", result.attempted)
