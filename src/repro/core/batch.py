"""Batch execution of a disambiguation pipeline over a document corpus.

The per-document solver is fast (PR 1); at corpus scale the hot path is
fanning documents out and not recomputing shared work.  This module
provides the batch layer:

* :class:`BatchRunner` runs any pipeline (an object with
  ``disambiguate(document) -> DisambiguationResult``) over a sequence of
  documents on a ``concurrent.futures`` pool — threads, processes, or a
  plain serial loop — with **deterministic result ordering** (results come
  back in input order regardless of completion order) and **per-document
  error isolation** (a failing document yields a recorded
  :class:`DocumentFailure`, never a crashed run).
* Worker pipelines share pairwise relatedness work through a
  :class:`~repro.relatedness.caching.CachingRelatedness` passed to the
  ``pipeline_factory`` closure (thread mode) — see
  :func:`repro.eval.runner.run_disambiguator` and
  ``benchmarks/bench_batch.py`` for the canonical wiring.

Pipeline sharing rules:

* ``executor="serial"`` and ``executor="thread"`` can reuse one
  ``pipeline`` instance.  A shared pipeline is safe for *results* under
  threads only if its relatedness measure is thread-safe — wrap it in
  :class:`CachingRelatedness`.  The LSH measures keep their per-task
  ``prepare`` state (allowed pairs, pair cache) in thread-local storage
  over a read-only KB-wide sketch table, so one instance serves
  concurrent documents; only their pruned zeros are excluded from shared
  memoization (see ``cacheable_pair``).  Prefer ``pipeline_factory``:
  each worker thread lazily builds its own pipeline, and the factory
  closes over whatever should be shared (the KB, a caching relatedness
  wrapper, a precomputed sketch table).
* ``executor="process"`` requires a *picklable* ``pipeline_factory``
  (a module-level callable or a :class:`~repro.core.spec.PipelineSpec`);
  each worker process builds its pipeline once in the pool initializer.
  Processes cannot share a relatedness cache.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import ReproError, classify_error, describe_error
from repro.faults.injector import get_injector
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    get_metrics,
    get_tracer,
    log_event,
    set_metrics,
    set_tracer,
    use_context,
)
from repro.types import DisambiguationResult, Document
from repro.utils.timing import PipelineStats

_LOG = logging.getLogger("repro.batch")

#: Builds a fresh pipeline; must be picklable for ``executor="process"``.
PipelineFactory = Callable[[], object]

_EXECUTORS = ("serial", "thread", "process")

_SPAWN = multiprocessing.get_context("spawn")


class BatchError(ReproError):
    """Misconfiguration of the batch layer (not a document failure)."""


@dataclass(frozen=True)
class BatchConfig:
    """How to fan a corpus out over workers.

    ``workers <= 1`` always degrades to the serial loop, whatever the
    ``executor`` says, so callers can scale a single knob.
    ``max_pending`` bounds the number of in-flight documents (back-
    pressure for very large corpora); ``None`` submits everything at
    once.
    """

    workers: int = 1
    executor: str = "thread"
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise BatchError("workers must be >= 1")
        if self.executor not in _EXECUTORS:
            raise BatchError(
                f"executor must be one of {_EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise BatchError("max_pending must be None or >= 1")

    @property
    def effective_workers(self) -> int:
        """Worker count after the serial degradation rule."""
        return self.workers if self.executor != "serial" else 1


@dataclass(frozen=True)
class DocumentFailure:
    """One document that raised instead of disambiguating.

    ``kind`` buckets the error under the robustness taxonomy of
    :mod:`repro.errors` (``transient`` / ``permanent`` / ``deadline``);
    ``attempts`` counts pipeline attempts the document consumed before
    failing (> 1 when a robustness layer retried or degraded).
    ``request_id`` joins the failure to the originating serving request's
    trace (empty outside the serving path).
    """

    index: int
    doc_id: str
    error: str
    traceback: str = ""
    kind: str = "permanent"
    attempts: int = 1
    request_id: str = ""

    @classmethod
    def from_exception(
        cls,
        index: int,
        doc_id: str,
        exc: Exception,
        request_id: str = "",
    ) -> "DocumentFailure":
        """Build a failure record routed through the error taxonomy.

        Only ``Exception`` is accepted: control-flow exceptions
        (``KeyboardInterrupt``, ``SystemExit``) must propagate and never
        become document failures.
        """
        return cls(
            index=index,
            doc_id=doc_id,
            error=describe_error(exc),
            traceback=traceback.format_exc(),
            kind=classify_error(exc),
            attempts=int(getattr(exc, "robust_attempts", 1)),
            request_id=request_id,
        )


@dataclass
class BatchOutcome:
    """Everything one batch pass produces.

    ``results[i]`` corresponds to ``documents[i]`` — ``None`` exactly when
    ``documents[i]`` appears in ``failures``.
    """

    results: List[Optional[DisambiguationResult]] = field(
        default_factory=list
    )
    failures: List[DocumentFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Snapshot of the shared relatedness cache, when one was observable.
    cache_stats: Optional[Dict[str, object]] = None
    #: Merged per-document :class:`~repro.utils.timing.PipelineStats`
    #: totals across every worker — thread *and* process executors (the
    #: per-worker counters ride back on each pickled result).
    stats: Optional[PipelineStats] = None

    @property
    def ok(self) -> bool:
        """True when every document disambiguated."""
        return not self.failures

    @property
    def rung_counts(self) -> Dict[str, int]:
        """Documents per degradation rung (``{"full": n, ...}``) —
        which configuration of the graceful-degradation ladder produced
        each successful result."""
        counts: Dict[str, int] = {}
        for result in self.results:
            if result is not None:
                rung = getattr(result, "degradation_rung", "full")
                counts[rung] = counts.get(rung, 0) + 1
        return counts

    @property
    def failure_kinds(self) -> Dict[str, int]:
        """Failures per taxonomy bucket (transient/permanent/deadline)."""
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts

    @property
    def successes(self) -> List[DisambiguationResult]:
        """The non-failed results, still in input order."""
        return [result for result in self.results if result is not None]

    def raise_on_failure(self) -> None:
        """Raise a :class:`BatchError` summarizing any failures."""
        if self.failures:
            summary = "; ".join(
                f"{failure.doc_id}: {failure.error}"
                for failure in self.failures[:5]
            )
            raise BatchError(
                f"{len(self.failures)} document(s) failed: {summary}"
            )


# ----------------------------------------------------------------------
# Process-pool plumbing: a per-process pipeline built by the initializer.
# ----------------------------------------------------------------------
_process_pipeline: Optional[object] = None


def _process_init(
    factory: PipelineFactory,
    metrics_enabled: bool,
    tracing_enabled: bool = False,
) -> None:
    global _process_pipeline
    if metrics_enabled:
        # Give the child its own registry (robust under both fork and
        # spawn); each task drains it and ships the delta back for the
        # parent to merge.
        set_metrics(MetricsRegistry())
    if tracing_enabled:
        # Child-side spans mint ids in a pid-offset range so absorbed
        # records never collide with parent-side span ids.
        import os

        set_tracer(Tracer(span_id_base=(os.getpid() & 0xFFFF) << 32))
    start = time.perf_counter()
    _process_pipeline = factory()
    metrics = get_metrics()
    if metrics.enabled:
        # How long this worker took to stand up its pipeline — the
        # fork/pickle-vs-snapshot attach cost.  Shipped to the parent
        # with the first task's metrics delta.
        metrics.histogram("batch.worker.attach_ms").observe(
            (time.perf_counter() - start) * 1000.0
        )


def _process_task(
    index: int,
    document: Document,
    context: Optional[TraceContext] = None,
):
    """Runs in the worker process; never raises across the pickle wall.

    Returns ``(index, result, failure, obs_delta)`` — the fourth element
    bundles this task's drained metrics snapshot and exported span dicts
    (``None`` while both are disabled); the parent merges the metrics and
    absorbs the spans on arrival.

    *context* (when given) is activated for the duration of the task, so
    worker-side spans carry the originating request's trace/request ids
    and the worker's top-level span re-parents onto the request span.

    Isolation catches ``Exception`` only and routes it through the error
    taxonomy (:func:`repro.errors.classify_error`); ``KeyboardInterrupt``
    and ``SystemExit`` propagate and tear the task down.
    """
    try:
        with use_context(context):
            injector = get_injector()
            if injector.enabled:
                injector.fire("worker")
            result = _process_pipeline.disambiguate(document)
            failure = None
    except Exception as exc:
        result = None
        failure = DocumentFailure.from_exception(
            index,
            document.doc_id,
            exc,
            request_id=context.request_id if context else "",
        )
    metrics = get_metrics()
    tracer = get_tracer()
    obs_delta = None
    if metrics.enabled or tracer.enabled:
        spans = []
        if tracer.enabled:
            spans = [record.as_dict() for record in tracer.records()]
            tracer.clear()
        obs_delta = {
            "metrics": metrics.drain() if metrics.enabled else None,
            "spans": spans,
        }
    return index, result, failure, obs_delta


class BatchRunner:
    """Fan a pipeline over documents with ordered, isolated results.

    Exactly one of ``pipeline`` / ``pipeline_factory`` drives each worker:
    a factory wins when both are given (the explicit pipeline then only
    serves introspection).  See the module docstring for the sharing
    rules per executor kind.
    """

    def __init__(
        self,
        pipeline: Optional[object] = None,
        pipeline_factory: Optional[PipelineFactory] = None,
        config: Optional[BatchConfig] = None,
    ):
        if pipeline is None and pipeline_factory is None:
            raise BatchError(
                "BatchRunner needs a pipeline or a pipeline_factory"
            )
        self.config = config if config is not None else BatchConfig()
        if self.config.executor == "process" and pipeline_factory is None:
            raise BatchError(
                "process executor requires a picklable pipeline_factory"
            )
        self._pipeline = pipeline
        self._factory = pipeline_factory
        self._thread_local = threading.local()
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Worker-side pipeline resolution
    # ------------------------------------------------------------------
    def _worker_pipeline(self) -> object:
        """The pipeline this worker thread should use.

        With a factory, each thread builds (and keeps) its own pipeline;
        otherwise the single shared instance is returned.
        """
        if self._factory is None:
            return self._pipeline
        pipeline = getattr(self._thread_local, "pipeline", None)
        if pipeline is None:
            pipeline = self._factory()
            self._thread_local.pipeline = pipeline
        return pipeline

    def _run_one(
        self,
        index: int,
        document: Document,
        context: Optional[TraceContext] = None,
    ):
        # Thread workers share the process-wide metrics registry and
        # tracer, so the fourth (obs delta) slot is always None here.
        # Isolation catches ``Exception`` only, routed through the error
        # taxonomy — ``KeyboardInterrupt``/``SystemExit`` propagate out
        # of the run.
        try:
            with use_context(context):
                injector = get_injector()
                if injector.enabled:
                    injector.fire("worker")
                result = self._worker_pipeline().disambiguate(document)
            return index, result, None, None
        except Exception as exc:
            failure = DocumentFailure.from_exception(
                index,
                document.doc_id,
                exc,
                request_id=context.request_id if context else "",
            )
            return index, None, failure, None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def open(self) -> "BatchRunner":
        """Keep one pool, until :meth:`close`, for every later run (runs
        must not overlap), so each worker builds its pipeline once.
        Workers are spawned: forked ones would hold every descriptor the
        parent had open (a server's client sockets) for the pool's life."""
        if self.config.executor != "process":
            raise BatchError("only the process executor keeps a pool open")
        if self._pool is None:
            self._pool = self._process_pool(_SPAWN)
        return self

    def close(self) -> None:
        """Shut down the pool :meth:`open` started, if any."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _process_pool(self, mp_context=None) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=mp_context,
            initializer=_process_init,
            initargs=(
                self._factory,
                get_metrics().enabled,
                get_tracer().enabled,
            ),
        )

    def run(
        self,
        documents: Sequence[Document],
        contexts: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> BatchOutcome:
        """Disambiguate every document; results in input order.

        *contexts*, when given, aligns with *documents*: each document
        runs under its own request :class:`TraceContext` (the serving
        path's per-request trace ids crossing the executor boundary).
        """
        if contexts is not None and len(contexts) != len(documents):
            raise BatchError("contexts must align with documents")
        start = time.perf_counter()
        outcome = BatchOutcome(results=[None] * len(documents))

        def context_for(index: int) -> Optional[TraceContext]:
            return contexts[index] if contexts is not None else None

        def submit_process(pool, index: int, document: Document):
            return pool.submit(
                _process_task, index, document, context_for(index)
            )

        with get_tracer().span(
            "batch.run",
            category="batch",
            documents=len(documents),
            executor=self.config.executor,
            workers=self.config.effective_workers,
        ):
            if documents:
                if self._pool is not None:
                    try:
                        self._run_pool(
                            documents, outcome, self._pool, submit_process
                        )
                    except BrokenProcessPool:
                        # A dead worker breaks the whole pool; the next
                        # run gets a fresh one instead of failing too.
                        self._pool.shutdown(wait=False)
                        self._pool = self._process_pool(_SPAWN)
                        raise
                elif self.config.effective_workers <= 1:
                    self._run_serial(documents, outcome, context_for)
                elif self.config.executor == "process":
                    self._run_pool(
                        documents,
                        outcome,
                        self._process_pool(),
                        submit_process,
                    )
                else:
                    self._run_pool(
                        documents,
                        outcome,
                        ThreadPoolExecutor(
                            max_workers=self.config.workers
                        ),
                        submit=lambda pool, index, doc: pool.submit(
                            self._run_one, index, doc, context_for(index)
                        ),
                    )
        outcome.failures.sort(key=lambda failure: failure.index)
        outcome.wall_seconds = time.perf_counter() - start
        outcome.cache_stats = self._observe_cache()
        outcome.stats = PipelineStats.merge(
            result.stats
            for result in outcome.results
            if result is not None and result.stats is not None
        )
        self._publish_observations(outcome, len(documents))
        return outcome

    def _publish_observations(
        self, outcome: BatchOutcome, document_count: int
    ) -> None:
        metrics = get_metrics()
        rungs = outcome.rung_counts
        degraded = sum(
            count for rung, count in rungs.items() if rung != "full"
        )
        if metrics.enabled:
            metrics.counter("batch.runs").inc()
            metrics.counter("batch.documents").inc(document_count)
            metrics.counter("batch.failures").inc(len(outcome.failures))
            for kind, count in outcome.failure_kinds.items():
                metrics.counter(f"batch.failures.{kind}").inc(count)
            if degraded:
                metrics.counter("batch.degraded_documents").inc(degraded)
            metrics.histogram("batch.run.seconds").observe(
                outcome.wall_seconds
            )
        if _LOG.isEnabledFor(logging.INFO):
            log_event(
                _LOG,
                "batch.run",
                _level=logging.INFO,
                documents=document_count,
                failures=len(outcome.failures),
                degraded=degraded,
                executor=self.config.executor,
                workers=self.config.effective_workers,
                seconds=outcome.wall_seconds,
            )

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        documents: Sequence[Document],
        outcome: BatchOutcome,
        context_for,
    ) -> None:
        for index, document in enumerate(documents):
            _, result, failure, _obs = self._run_one(
                index, document, context_for(index)
            )
            if failure is not None:
                outcome.failures.append(failure)
            else:
                outcome.results[index] = result

    def _run_pool(
        self,
        documents: Sequence[Document],
        outcome: BatchOutcome,
        pool,
        submit,
    ) -> None:
        window = self.config.max_pending or len(documents)
        metrics = get_metrics()
        queue_depth = metrics.gauge("batch.queue_depth")
        # An open() pool outlives the run; any other pool ends with it.
        with pool if pool is not self._pool else nullcontext():
            pending: Set[Future] = set()
            queue = iter(enumerate(documents))
            exhausted = False
            while pending or not exhausted:
                while not exhausted and len(pending) < window:
                    try:
                        index, document = next(queue)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.add(submit(pool, index, document))
                queue_depth.set(len(pending))
                if not pending:
                    continue
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                queue_depth.set(len(pending))
                for future in done:
                    index, result, failure, obs_delta = future.result()
                    if obs_delta:
                        # A process worker's drained registry snapshot
                        # plus its exported span dicts.
                        if obs_delta.get("metrics"):
                            metrics.merge(obs_delta["metrics"])
                        if obs_delta.get("spans"):
                            get_tracer().absorb(obs_delta["spans"])
                    if failure is not None:
                        outcome.failures.append(failure)
                    else:
                        outcome.results[index] = result
        queue_depth.set(0)

    def _observe_cache(self) -> Optional[Dict[str, object]]:
        """Cache counters of the explicit pipeline's measure, if caching."""
        relatedness = getattr(self._pipeline, "relatedness", None)
        stats = getattr(relatedness, "cache_stats", None)
        if callable(stats):
            return stats().as_dict()
        return None
