"""Experiment runner: disambiguate a corpus and collect measures.

``run_disambiguator`` drives any object with a
``disambiguate(document) -> DisambiguationResult`` method over annotated
documents, restricts evaluation to mentions whose gold entity is in the KB
when asked to (Chapter 3/4 protocol, Section 3.6.1), records per-mention
correctness with the gold entity's inlink count (for the link-bucketed
analyses), and optionally attaches per-mention confidences.

Disambiguation can be fanned out over a worker pool: pass ``workers > 1``
(or an explicit :class:`~repro.core.batch.BatchRunner` as ``batch``) and
the corpus is dispatched through :mod:`repro.core.batch` while scoring
stays serial in input order — the evaluation is bit-identical to the
serial path for any worker count.  A document that fails inside a batch
run is recorded on ``CorpusRun.failures`` and scored as all-incorrect
(prediction ``None``) rather than aborting the corpus pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.batch import BatchConfig, BatchRunner, DocumentFailure
from repro.eval.measures import (
    DocumentOutcome,
    EvaluationResult,
)
from repro.faults.resilient import RobustnessConfig, make_resilient
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import get_metrics, get_tracer, log_event
from repro.types import (
    AnnotatedDocument,
    DisambiguationResult,
    Document,
    EntityId,
    Mention,
)
from repro.utils.timing import PipelineStats

_LOG = logging.getLogger("repro.eval")

#: Optional hook computing mention -> confidence for one document's result.
ConfidenceFn = Callable[
    [Document, DisambiguationResult], Dict[Mention, float]
]


@dataclass
class CorpusRun:
    """Everything an experiment needs from one corpus pass."""

    evaluation: EvaluationResult
    #: (gold entity inlink count, prediction correct) per evaluated mention.
    link_records: List[Tuple[int, bool]] = field(default_factory=list)
    results: List[Optional[DisambiguationResult]] = field(
        default_factory=list
    )
    #: Documents that raised during a batch run (empty on the serial path,
    #: which propagates exceptions as before).
    failures: List[DocumentFailure] = field(default_factory=list)
    #: Merged per-document pipeline stats (corpus totals) — phase seconds
    #: and numeric counters summed across every worker, serial or batch.
    stats: Optional[PipelineStats] = None

    @property
    def rung_counts(self) -> Dict[str, int]:
        """Documents per degradation rung — every document reports the
        ladder rung that produced its result (``full`` outside the
        robustness layer)."""
        counts: Dict[str, int] = {}
        for result in self.results:
            if result is not None:
                rung = getattr(result, "degradation_rung", "full")
                counts[rung] = counts.get(rung, 0) + 1
        return counts

    @property
    def micro(self) -> float:
        """Micro average accuracy of the run."""
        return self.evaluation.micro

    @property
    def macro(self) -> float:
        """Macro average accuracy of the run."""
        return self.evaluation.macro

    @property
    def map(self) -> float:
        """MAP of the run (confidence ranking)."""
        return self.evaluation.map


def run_disambiguator(
    pipeline,
    documents: Sequence[AnnotatedDocument],
    kb: Optional[KnowledgeBase] = None,
    in_kb_only: bool = True,
    confidence_fn: Optional[ConfidenceFn] = None,
    workers: int = 1,
    batch: Optional[BatchRunner] = None,
    robustness: Optional[RobustnessConfig] = None,
) -> CorpusRun:
    """Disambiguate every document and evaluate against the gold standard.

    With ``in_kb_only`` (the Chapter 3/4 protocol) mentions whose gold
    entity is out-of-KB are excluded from scoring.  ``kb`` enables the
    inlink-count records; without it, link counts are recorded as 0.

    ``workers > 1`` fans the disambiguation out over a thread pool sharing
    *pipeline* (wrap its relatedness in ``CachingRelatedness`` for thread-
    safe sharing); an explicit ``batch`` runner overrides both ``pipeline``
    and ``workers`` for full control (process pools, per-worker pipeline
    factories).  Scoring is always serial and in input order, so the
    evaluation is bit-identical across worker counts.

    ``robustness`` wraps the pipeline in the deadline / degradation
    layer (:mod:`repro.faults.resilient`) before anything
    runs; an explicit ``batch`` runner is used as given — wrap its
    pipeline or factory yourself for full control.
    """
    pipeline = make_resilient(pipeline, robustness)
    if batch is None and workers > 1:
        batch = BatchRunner(
            pipeline=pipeline,
            config=BatchConfig(workers=workers, executor="thread"),
        )
    evaluation = EvaluationResult()
    run = CorpusRun(evaluation=evaluation)
    with get_tracer().span(
        "corpus.evaluate", category="corpus", documents=len(documents)
    ):
        if batch is not None:
            batch_outcome = batch.run(
                [annotated.document for annotated in documents]
            )
            results = batch_outcome.results
            run.failures = list(batch_outcome.failures)
            run.stats = batch_outcome.stats
        else:
            results = [
                pipeline.disambiguate(annotated.document)
                for annotated in documents
            ]
            run.stats = PipelineStats.merge(
                result.stats
                for result in results
                if result is not None and result.stats is not None
            )
        _score_run(
            run, documents, results, kb, in_kb_only, confidence_fn
        )
    _publish_observations(run, documents)
    return run


def _score_run(
    run: CorpusRun,
    documents: Sequence[AnnotatedDocument],
    results: Sequence[Optional[DisambiguationResult]],
    kb: Optional[KnowledgeBase],
    in_kb_only: bool,
    confidence_fn: Optional[ConfidenceFn],
) -> None:
    """Serial, input-ordered scoring of a corpus pass."""
    evaluation = run.evaluation
    for annotated, result in zip(documents, results):
        run.results.append(result)
        confidences: Dict[Mention, float] = {}
        if confidence_fn is not None and result is not None:
            confidences = confidence_fn(annotated.document, result)
        predicted = result.as_map() if result is not None else {}
        outcome = DocumentOutcome(doc_id=annotated.doc_id)
        for annotation in annotated.gold:
            if in_kb_only and annotation.is_out_of_kb:
                continue
            mention = annotation.mention
            prediction = predicted.get(mention)
            confidence = confidences.get(mention)
            if confidence is None and result is not None:
                assignment = result.assignment_for(mention)
                if assignment is not None and assignment.confidence is not None:
                    confidence = assignment.confidence
                elif assignment is not None:
                    confidence = assignment.score
            outcome.pairs.append(
                (annotation.entity, prediction, confidence)
            )
            run.link_records.append(
                (
                    _inlink_count(kb, annotation.entity),
                    prediction == annotation.entity,
                )
            )
        evaluation.outcomes.append(outcome)


def _publish_observations(
    run: CorpusRun, documents: Sequence[AnnotatedDocument]
) -> None:
    metrics = get_metrics()
    rungs = run.rung_counts
    degraded = sum(
        count for rung, count in rungs.items() if rung != "full"
    )
    if metrics.enabled:
        metrics.counter("eval.corpus_runs").inc()
        metrics.counter("eval.documents").inc(len(documents))
        metrics.counter("eval.mentions_scored").inc(
            len(run.link_records)
        )
        metrics.counter("eval.failures").inc(len(run.failures))
        if degraded:
            metrics.counter("eval.degraded_documents").inc(degraded)
    if _LOG.isEnabledFor(logging.INFO):
        log_event(
            _LOG,
            "eval.corpus",
            _level=logging.INFO,
            documents=len(documents),
            mentions_scored=len(run.link_records),
            failures=len(run.failures),
            degraded=degraded,
            micro=run.micro,
            macro=run.macro,
        )


def _inlink_count(
    kb: Optional[KnowledgeBase], entity_id: EntityId
) -> int:
    if kb is None or entity_id not in kb:
        return 0
    return kb.inlink_count(entity_id)
