"""Unit tests for the batch execution layer (:mod:`repro.core.batch`).

These tests exercise the runner's contracts in isolation with toy
pipelines: deterministic input-order results whatever the completion
order, per-document error isolation, executor selection/degradation, and
the back-pressure window.  The end-to-end equivalence against the serial
evaluation path lives in ``tests/test_differential_batch.py``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.batch import (
    BatchConfig,
    BatchError,
    BatchOutcome,
    BatchRunner,
    DocumentFailure,
)
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.utils.timing import PipelineStats
from repro.types import (
    DisambiguationResult,
    Document,
    Mention,
    MentionAssignment,
)


def _doc(index: int) -> Document:
    return Document(doc_id=f"doc-{index}", tokens=("tok", str(index)))


def _result_for(document: Document) -> DisambiguationResult:
    mention = Mention(surface=document.tokens[1], start=1, end=2)
    return DisambiguationResult(
        doc_id=document.doc_id,
        assignments=[
            MentionAssignment(
                mention=mention, entity=f"E_{document.doc_id}", score=1.0
            )
        ],
    )


class EchoPipeline:
    """Deterministic toy pipeline; picklable for process pools."""

    def disambiguate(self, document: Document) -> DisambiguationResult:
        return _result_for(document)


class ReversedLatencyPipeline(EchoPipeline):
    """Earlier documents take *longer*, forcing out-of-order completion."""

    def __init__(self, total: int):
        self.total = total

    def disambiguate(self, document: Document) -> DisambiguationResult:
        index = int(document.doc_id.split("-")[1])
        time.sleep(0.002 * (self.total - index))
        return super().disambiguate(document)


class FlakyPipeline(EchoPipeline):
    """Raises for configured doc ids; picklable for process pools."""

    def __init__(self, bad_ids):
        self.bad_ids = set(bad_ids)

    def disambiguate(self, document: Document) -> DisambiguationResult:
        if document.doc_id in self.bad_ids:
            raise RuntimeError(f"boom on {document.doc_id}")
        return super().disambiguate(document)


class StatsPipeline(EchoPipeline):
    """Attaches per-document PipelineStats; picklable for process pools."""

    def disambiguate(self, document: Document) -> DisambiguationResult:
        index = int(document.doc_id.split("-")[1])
        result = _result_for(document)
        result.stats = PipelineStats(
            phase_seconds={"solve": 0.25, "graph_build": 0.5},
            counters={
                "mentions": 2,
                "relatedness_pairs": 10 * (index + 1),
                "post_process": "keep",
            },
        )
        return result


class MeteredPipeline(EchoPipeline):
    """Records to whatever registry is live in its (worker) process."""

    def disambiguate(self, document: Document) -> DisambiguationResult:
        metrics = get_metrics()
        metrics.counter("toy.documents").inc()
        metrics.histogram("toy.seconds").observe(0.001)
        return super().disambiguate(document)


def _make_flaky_for_process():
    return FlakyPipeline({"doc-2"})


def _make_echo_for_process():
    return EchoPipeline()


def _make_stats_for_process():
    return StatsPipeline()


def _make_metered_for_process():
    return MeteredPipeline()


class PidPipeline(EchoPipeline):
    """Scores each document with the pid that ran it; ``doc-die`` kills
    its worker process outright."""

    def disambiguate(self, document: Document) -> DisambiguationResult:
        if document.doc_id == "doc-die":
            os._exit(1)
        result = _result_for(document)
        result.assignments[0].score = float(os.getpid())
        return result


class LoggedPidFactory:
    """Picklable factory logging the pid of every pipeline it builds."""

    def __init__(self, log_path: str):
        self.log_path = log_path

    def __call__(self) -> PidPipeline:
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return PidPipeline()


class TestBatchConfig:
    def test_defaults_are_serial_single_worker(self):
        config = BatchConfig()
        assert config.workers == 1
        assert config.effective_workers == 1

    def test_rejects_bad_values(self):
        with pytest.raises(BatchError):
            BatchConfig(workers=0)
        with pytest.raises(BatchError):
            BatchConfig(executor="fibers")
        with pytest.raises(BatchError):
            BatchConfig(max_pending=0)

    def test_serial_executor_caps_effective_workers(self):
        config = BatchConfig(workers=8, executor="serial")
        assert config.effective_workers == 1


class TestRunnerConstruction:
    def test_requires_some_pipeline(self):
        with pytest.raises(BatchError):
            BatchRunner()

    def test_process_requires_factory(self):
        with pytest.raises(BatchError):
            BatchRunner(
                pipeline=EchoPipeline(),
                config=BatchConfig(workers=2, executor="process"),
            )


class TestDeterministicOrdering:
    def test_results_in_input_order_despite_completion_order(self):
        documents = [_doc(i) for i in range(8)]
        runner = BatchRunner(
            pipeline=ReversedLatencyPipeline(len(documents)),
            config=BatchConfig(workers=4, executor="thread"),
        )
        outcome = runner.run(documents)
        assert outcome.ok
        assert [r.doc_id for r in outcome.results] == [
            d.doc_id for d in documents
        ]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_thread_results_match_serial(self, workers):
        documents = [_doc(i) for i in range(10)]
        serial = BatchRunner(pipeline=EchoPipeline()).run(documents)
        threaded = BatchRunner(
            pipeline=EchoPipeline(),
            config=BatchConfig(workers=workers, executor="thread"),
        ).run(documents)
        assert [r.assignments for r in serial.results] == [
            r.assignments for r in threaded.results
        ]

    def test_empty_corpus(self):
        outcome = BatchRunner(pipeline=EchoPipeline()).run([])
        assert outcome.ok
        assert outcome.results == []
        assert outcome.wall_seconds >= 0.0


class TestErrorIsolation:
    @pytest.mark.parametrize(
        "config",
        [
            BatchConfig(),
            BatchConfig(workers=3, executor="thread"),
        ],
    )
    def test_failures_recorded_not_raised(self, config):
        documents = [_doc(i) for i in range(6)]
        runner = BatchRunner(
            pipeline=FlakyPipeline({"doc-1", "doc-4"}), config=config
        )
        outcome = runner.run(documents)
        assert not outcome.ok
        assert [f.index for f in outcome.failures] == [1, 4]
        assert [f.doc_id for f in outcome.failures] == ["doc-1", "doc-4"]
        for failure in outcome.failures:
            assert "RuntimeError: boom" in failure.error
            assert "RuntimeError" in failure.traceback
        # Result slots line up: None exactly at the failed indexes.
        assert [i for i, r in enumerate(outcome.results) if r is None] == [
            1,
            4,
        ]
        assert len(outcome.successes) == 4

    def test_raise_on_failure(self):
        outcome = BatchOutcome(
            results=[None],
            failures=[
                DocumentFailure(index=0, doc_id="d", error="E: nope")
            ],
        )
        with pytest.raises(BatchError, match="d: E: nope"):
            outcome.raise_on_failure()
        BatchOutcome(results=[]).raise_on_failure()  # no-op when ok


class TestFactoriesAndSharing:
    def test_thread_factory_builds_one_pipeline_per_worker(self):
        built = []
        lock = threading.Lock()

        def factory():
            pipeline = EchoPipeline()
            with lock:
                built.append(pipeline)
            return pipeline

        runner = BatchRunner(
            pipeline_factory=factory,
            config=BatchConfig(workers=3, executor="thread"),
        )
        documents = [_doc(i) for i in range(12)]
        outcome = runner.run(documents)
        assert outcome.ok
        # Lazily built: at most one pipeline per worker thread, and the
        # pool reuses them across documents.
        assert 1 <= len(built) <= 3

    def test_max_pending_backpressure_still_complete_and_ordered(self):
        documents = [_doc(i) for i in range(9)]
        runner = BatchRunner(
            pipeline=ReversedLatencyPipeline(len(documents)),
            config=BatchConfig(
                workers=3, executor="thread", max_pending=2
            ),
        )
        outcome = runner.run(documents)
        assert outcome.ok
        assert [r.doc_id for r in outcome.results] == [
            d.doc_id for d in documents
        ]


class TestMergedStats:
    @pytest.mark.parametrize(
        "config,factory",
        [
            (BatchConfig(), None),
            (BatchConfig(workers=3, executor="thread"), None),
            (
                BatchConfig(workers=2, executor="process"),
                _make_stats_for_process,
            ),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_outcome_carries_corpus_totals(self, config, factory):
        documents = [_doc(i) for i in range(6)]
        runner = BatchRunner(
            pipeline=None if factory else StatsPipeline(),
            pipeline_factory=factory,
            config=config,
        )
        outcome = runner.run(documents)
        assert outcome.ok
        merged = outcome.stats
        assert merged is not None
        assert merged.phase_seconds["solve"] == pytest.approx(6 * 0.25)
        assert merged.phase_seconds["graph_build"] == pytest.approx(3.0)
        assert merged.counters["mentions"] == 12
        # Every counter is a per-document count: totals are sums.
        assert merged.counters["relatedness_pairs"] == 210
        # Non-numeric counters are dropped from corpus totals.
        assert "post_process" not in merged.counters

    def test_stats_skip_failed_and_statless_documents(self):
        outcome = BatchRunner(
            pipeline=FlakyPipeline({"doc-1"}),
        ).run([_doc(i) for i in range(3)])
        assert outcome.stats is not None
        assert outcome.stats.phase_seconds == {}
        assert outcome.stats.counters == {}


class TestProcessMetricsMerge:
    @pytest.fixture
    def live_registry(self):
        registry = MetricsRegistry()
        set_metrics(registry)
        yield registry
        set_metrics(None)

    def test_worker_deltas_merge_into_parent(self, live_registry):
        documents = [_doc(i) for i in range(8)]
        outcome = BatchRunner(
            pipeline_factory=_make_metered_for_process,
            config=BatchConfig(workers=2, executor="process"),
        ).run(documents)
        assert outcome.ok
        assert live_registry.counter("toy.documents").value == 8
        assert live_registry.histogram("toy.seconds").count == 8
        assert live_registry.counter("batch.documents").value == 8
        assert live_registry.gauge("batch.queue_depth").value == 0

    def test_disabled_metrics_stay_disabled(self):
        assert not get_metrics().enabled
        outcome = BatchRunner(
            pipeline_factory=_make_metered_for_process,
            config=BatchConfig(workers=2, executor="process"),
        ).run([_doc(i) for i in range(3)])
        assert outcome.ok
        assert not get_metrics().enabled


class TestProcessExecutor:
    def test_process_results_ordered(self):
        documents = [_doc(i) for i in range(5)]
        runner = BatchRunner(
            pipeline_factory=_make_echo_for_process,
            config=BatchConfig(workers=2, executor="process"),
        )
        outcome = runner.run(documents)
        assert outcome.ok
        assert [r.doc_id for r in outcome.results] == [
            d.doc_id for d in documents
        ]
        assert outcome.results[3].assignments[0].entity == "E_doc-3"

    def test_process_error_isolation(self):
        documents = [_doc(i) for i in range(4)]
        runner = BatchRunner(
            pipeline_factory=_make_flaky_for_process,
            config=BatchConfig(workers=2, executor="process"),
        )
        outcome = runner.run(documents)
        assert [f.doc_id for f in outcome.failures] == ["doc-2"]
        assert outcome.results[2] is None
        assert len(outcome.successes) == 3


class TestOpenPool:
    def _runner(self, tmp_path) -> BatchRunner:
        return BatchRunner(
            pipeline_factory=LoggedPidFactory(str(tmp_path / "builds")),
            config=BatchConfig(workers=2, executor="process"),
        )

    def _builds(self, tmp_path):
        log = (tmp_path / "builds").read_text()
        return [int(pid) for pid in log.split()]

    def test_one_pool_serves_every_run(self, tmp_path):
        """Runs of any size — single documents included — go to the one
        open pool, whose workers each build their pipeline once."""
        runner = self._runner(tmp_path).open()
        try:
            ran_in = set()
            for size in (1, 3, 1, 2, 4, 1):
                documents = [_doc(i) for i in range(size)]
                outcome = runner.run(documents)
                assert outcome.ok
                assert [r.doc_id for r in outcome.results] == [
                    d.doc_id for d in documents
                ]
                ran_in |= {
                    int(r.assignments[0].score) for r in outcome.results
                }
        finally:
            runner.close()
        builds = self._builds(tmp_path)
        assert os.getpid() not in builds
        assert os.getpid() not in ran_in
        assert len(builds) == len(set(builds)) <= 2
        assert ran_in <= set(builds)

    def test_dead_worker_does_not_poison_later_runs(self, tmp_path):
        runner = self._runner(tmp_path).open()
        try:
            with pytest.raises(BrokenProcessPool):
                runner.run(
                    [Document(doc_id="doc-die", tokens=("tok", "x"))]
                )
            outcome = runner.run([_doc(0), _doc(1)])
            assert outcome.ok
        finally:
            runner.close()

    def test_only_process_runners_open_a_pool(self):
        runner = BatchRunner(
            pipeline=EchoPipeline(),
            config=BatchConfig(workers=2, executor="thread"),
        )
        with pytest.raises(BatchError):
            runner.open()

    def test_close_without_open_is_a_no_op(self, tmp_path):
        self._runner(tmp_path).close()
