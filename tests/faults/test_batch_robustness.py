"""Robustness through the batch layer: isolation, taxonomy, concurrency.

Covers the batch-side satellite work: ``DocumentFailure`` records routed
through the error taxonomy (control-flow exceptions must escape), the
resilient wrapper riding inside :class:`BatchRunner` workers, and an
8-thread stress run under chaos worker latency
(``tests/faults/chaos.py``) that must stay input-ordered and
bit-identical to the serial pass.
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchConfig, BatchRunner
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.errors import PermanentError, TransientError
from repro.faults.resilient import RobustnessConfig, make_resilient
from repro.obs import MetricsRegistry, set_metrics
from repro.relatedness import CachingRelatedness, MilneWittenRelatedness
from repro.types import DisambiguationResult

from tests.faults.chaos import Chaos, Fault


class _FlakyPipeline:
    """Raises a transient error the first *flaky_calls* times per doc.

    ``config`` and ``with_config`` (every rung is this same pipeline)
    give it the degradation ladder.
    """

    config = AidaConfig()

    def __init__(self, flaky_calls: int = 1):
        self.flaky_calls = flaky_calls
        self.seen = {}

    def with_config(self, config) -> "_FlakyPipeline":
        return self

    def disambiguate(self, document) -> DisambiguationResult:
        count = self.seen.get(document.doc_id, 0) + 1
        self.seen[document.doc_id] = count
        if count <= self.flaky_calls:
            raise TransientError(f"flaky on {document.doc_id} #{count}")
        return DisambiguationResult(doc_id=document.doc_id, assignments=[])


class _FailingPipeline:
    """Always raises the configured exception instance."""

    def __init__(self, error: BaseException):
        self.error = error

    def disambiguate(self, document):
        raise self.error


def _comparable(result):
    return [
        (
            assignment.mention,
            assignment.entity,
            assignment.score,
            sorted(assignment.candidate_scores.items()),
        )
        for assignment in result.assignments
    ]


def _cached_pipeline(kb):
    return AidaDisambiguator(
        kb,
        relatedness=CachingRelatedness(
            MilneWittenRelatedness(kb.links, max(kb.entity_count, 2))
        ),
    )


class TestFailureRecords:
    def test_flaky_pipeline_recovers_with_retries(self, sample_docs):
        """Nothing retries inside the run: each document fails once,
        isolated, and resubmitting the failed documents recovers them."""
        pipeline = make_resilient(
            _FlakyPipeline(flaky_calls=1), RobustnessConfig(deadline_ms=1e6)
        )
        documents = [annotated.document for annotated in sample_docs]
        runner = BatchRunner(pipeline=pipeline)
        first = runner.run(documents)
        assert [f.doc_id for f in first.failures] == [
            d.doc_id for d in documents
        ]
        assert all(f.attempts == 1 for f in first.failures)
        assert first.failure_kinds == {"transient": len(documents)}
        outcome = runner.run(documents)
        assert outcome.ok
        assert [r.doc_id for r in outcome.results] == [
            d.doc_id for d in documents
        ]
        assert all(r.attempts == 1 for r in outcome.results)
        assert outcome.rung_counts == {"full": len(documents)}

    def test_transient_exhaustion_recorded_with_attempts(self, sample_docs):
        """A transient error on every rung fails the document; its
        ``attempts`` counts the rungs tried."""
        pipeline = make_resilient(
            _FlakyPipeline(flaky_calls=99), RobustnessConfig(degrade=True)
        )
        documents = [annotated.document for annotated in sample_docs[:3]]
        outcome = BatchRunner(pipeline=pipeline).run(documents)
        assert not outcome.ok
        assert len(outcome.failures) == len(documents)
        for failure in outcome.failures:
            assert failure.kind == "transient"
            assert failure.attempts == 3  # one per rung
        assert outcome.failure_kinds == {"transient": len(documents)}

    def test_permanent_failure_kind(self, sample_docs):
        documents = [annotated.document for annotated in sample_docs[:2]]
        outcome = BatchRunner(
            pipeline=_FailingPipeline(PermanentError("backend gone"))
        ).run(documents)
        assert [f.kind for f in outcome.failures] == ["permanent"] * 2
        assert [f.index for f in outcome.failures] == [0, 1]
        assert all(
            "PermanentError: backend gone" == f.error
            for f in outcome.failures
        )

    @pytest.mark.parametrize("control", [KeyboardInterrupt, SystemExit])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_control_flow_exceptions_escape_batch(
        self, sample_docs, control, executor
    ):
        """Ctrl-C and interpreter shutdown are never document failures."""
        runner = BatchRunner(
            pipeline=_FailingPipeline(control()),
            config=BatchConfig(workers=2, executor=executor),
        )
        documents = [annotated.document for annotated in sample_docs[:2]]
        with pytest.raises(control):
            runner.run(documents)


class TestResilientBatchIntegration:
    def test_permanent_relatedness_faults_degrade_in_batch(
        self, kb, sample_docs
    ):
        pipeline = make_resilient(
            AidaDisambiguator(kb), RobustnessConfig(degrade=True)
        )
        documents = [annotated.document for annotated in sample_docs]
        with Chaos(pipeline, [Fault("relatedness", kind="permanent")]):
            outcome = BatchRunner(pipeline=pipeline).run(documents)
        assert outcome.ok
        rungs = outcome.rung_counts
        assert set(rungs) <= {"full", "no_coherence"}
        assert rungs.get("no_coherence", 0) >= 1
        assert sum(rungs.values()) == len(documents)


class TestThreadStress:
    def test_eight_threads_under_latency(self, kb, sample_docs):
        """8 threads + chaos worker latency stay ordered, bit-identical
        to serial, and drain the queue-depth gauge."""
        documents = [
            annotated.document for annotated in sample_docs
        ] * 3
        serial = [
            _comparable(AidaDisambiguator(kb).disambiguate(document))
            for document in documents
        ]
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        pipeline = _cached_pipeline(kb)
        latency = Fault("worker", kind="latency", latency_ms=2.0)
        try:
            with Chaos(pipeline, [latency]) as chaos:
                outcome = BatchRunner(
                    pipeline=pipeline,
                    config=BatchConfig(
                        workers=8, executor="thread", max_pending=12
                    ),
                ).run(documents)
        finally:
            set_metrics(previous)
        assert outcome.ok
        assert [r.doc_id for r in outcome.results] == [
            d.doc_id for d in documents
        ]
        assert [_comparable(r) for r in outcome.results] == serial
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["batch.queue_depth"] == 0
        assert chaos.triggers["worker"].calls == len(documents)
