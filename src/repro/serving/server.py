"""The long-lived disambiguation front door.

:class:`DisambiguationServer` accepts documents two ways — a minimal
stdlib-only HTTP/1.1 JSON endpoint (``asyncio.start_server``) and a
stdin-JSONL pump — and funnels both through one submit path:

1. **admission** (:mod:`repro.serving.admission`): a bounded slot count;
   under load the request is granted a degraded starting rung, at the
   bound it is rejected (HTTP 429);
2. **micro-batching** (:mod:`repro.serving.batcher`): whenever the
   executor is free, everything queued (up to ``batch_max_docs``) leaves
   as one batch, so batches grow with load and no request waits on an
   idle executor;
3. **execution**: each batch runs through a
   :class:`~repro.core.batch.BatchRunner` on a dedicated thread, every
   document routed into the wrapped
   :class:`~repro.faults.resilient.ResilientDisambiguator` *at its
   admitted rung* — rung walking, per-attempt
   :class:`~repro.faults.Budget` deadlines and attempts accounting are
   all the existing robustness machinery, not a serving re-implementation.

The HTTP parser is bounded: a request must be read within
:data:`REQUEST_READ_TIMEOUT_S` (else 408), and its request line, header
lines and declared body are capped (414, 431, 413).

Results resolve per-request futures on the event loop; latency feeds
the windowed histogram whose p99 admission sheds on, closing the
shedding loop.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.core.batch import BatchConfig, BatchOutcome, BatchRunner
from repro.errors import ConfigurationError, ReproError, describe_error
from repro.faults.resilient import (
    ResilientFactory,
    RobustnessConfig,
    make_resilient,
)
from repro.ner.recognizer import NamedEntityRecognizer
from repro.obs import (
    SloTracker,
    TraceContext,
    TraceSink,
    current_context,
    get_metrics,
    get_tracer,
    log_event,
    render_prometheus,
)
from repro.serving.admission import AdmissionController, AdmissionRejected
from repro.serving.batcher import MicroBatcher
from repro.serving.config import ServingConfig
from repro.serving.protocol import (
    ProtocolError,
    document_from_payload,
    error_to_dict,
    response_to_dict,
)
from repro.types import DisambiguationResult, Document

_LOG = logging.getLogger("repro.serving")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

#: Largest request body the front door reads (1 MiB).  A larger declared
#: ``Content-Length`` is answered 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Most header lines one request may carry; more are answered 431.
MAX_HEADER_LINES = 100

#: Seconds a client has to send its whole request (request line, headers
#: and body); a slower one is answered 408.
REQUEST_READ_TIMEOUT_S = 5.0

#: A ``Content-Length`` value: ASCII digits only.
_DIGITS = re.compile(r"[0-9]+")


class _RequestRejected(Exception):
    """A request refused while parsing, before it reaches a route."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(
    reader: asyncio.StreamReader, status: int, what: str
) -> bytes:
    """One line; a line over the reader's limit is rejected with *status*.

    ``StreamReader.readline`` raises ``ValueError`` for such a line.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise _RequestRejected(status, f"{what} exceeds the line limit")


class ServingFailure(ReproError):
    """A document failed in the batch executor — HTTP 500.

    ``kind`` carries the taxonomy bucket of the underlying failure
    (transient / permanent / deadline), ``attempts`` the pipeline
    attempts it consumed.
    """

    def __init__(
        self,
        doc_id: str,
        error: str,
        kind: str,
        attempts: int,
        request_id: str = "",
    ):
        super().__init__(f"{doc_id}: [{kind}] {error}")
        self.doc_id = doc_id
        self.kind = kind
        self.attempts = attempts
        self.request_id = request_id


@dataclass
class ServingRequest:
    """One admitted document riding through the micro-batcher."""

    document: Document
    rung: str
    future: "asyncio.Future[DisambiguationResult]"
    enqueued: float
    #: The request's trace context (rung baggage, trace/request ids).
    context: Optional[TraceContext] = None
    #: ``time.time()`` at enqueue — the queue-wait span's wall start.
    wall_enqueued: float = 0.0


@dataclass
class ServingResponse:
    """What :meth:`DisambiguationServer.submit` resolves to."""

    result: DisambiguationResult
    admitted_rung: str
    latency_ms: float
    request_id: str = ""
    trace_id: str = ""

    def to_dict(self) -> Dict:
        """The wire payload of this response."""
        return response_to_dict(
            self.result,
            self.admitted_rung,
            self.latency_ms,
            request_id=self.request_id or None,
            trace_id=self.trace_id or None,
        )


class _BaggageRungPipeline:
    """Pipeline adapter routing each document to its admitted rung.

    The rung rides in the active :class:`TraceContext`'s baggage — the
    one per-request channel that survives both thread *and* process
    executor boundaries (object identity does not survive pickling).
    """

    def __init__(self, pipeline):
        self._pipeline = pipeline
        #: Whether the wrapped pipeline understands ladder slicing.
        self._sliceable = hasattr(pipeline, "ladder")

    def disambiguate(self, document: Document, **kwargs):
        context = current_context()
        rung = (
            context.baggage.get("rung", "full")
            if context is not None
            else "full"
        )
        if self._sliceable:
            return self._pipeline.disambiguate(
                document, start_rung=rung, **kwargs
            )
        return self._pipeline.disambiguate(document, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._pipeline, name)


class _BaggageRungFactory:
    """Picklable factory composing rung routing onto a worker pipeline.

    Process-pool workers build ``_BaggageRungPipeline(factory())`` once
    in the pool initializer; per-task rungs then arrive via context
    baggage like in the thread path.
    """

    def __init__(self, factory):
        self.factory = factory

    def __call__(self):
        return _BaggageRungPipeline(self.factory())


class DisambiguationServer:
    """Admission-controlled, micro-batching disambiguation service.

    ``pipeline`` is any ``disambiguate(document)`` object; unless it is
    already a :class:`ResilientDisambiguator` (detected by its ``ladder``
    attribute) it is wrapped in one so the shed ladder and per-attempt
    deadline exist — ``robustness`` overrides the default wrap
    (``degrade=True, deadline_ms=config.slo_ms``).

    ``pipeline_factory`` (typically a
    :class:`~repro.core.spec.PipelineSpec`, whose ``source`` ``/stats``
    reports) builds the pipeline when ``pipeline`` is omitted.
    ``executor="process"`` requires a *picklable* factory: one pool
    lives from :meth:`start` to :meth:`stop`, each worker builds its
    resilient pipeline once, and per-request rungs plus trace ids cross
    the pickle wall in :class:`TraceContext` baggage.
    """

    def __init__(
        self,
        pipeline=None,
        config: Optional[ServingConfig] = None,
        kb=None,
        robustness: Optional[RobustnessConfig] = None,
        pipeline_factory=None,
    ):
        self.config = config if config is not None else ServingConfig()
        if pipeline is None:
            if pipeline_factory is None:
                raise ConfigurationError(
                    "DisambiguationServer needs a pipeline or a "
                    "pipeline_factory"
                )
            pipeline = pipeline_factory()
        if robustness is None:
            robustness = RobustnessConfig(
                degrade=True, deadline_ms=self.config.slo_ms
            )
        if not hasattr(pipeline, "ladder"):
            pipeline = make_resilient(pipeline, robustness)
        self.pipeline = pipeline
        self._pool_runner: Optional[BatchRunner] = None
        if self.config.executor == "process":
            if pipeline_factory is None:
                raise ConfigurationError(
                    "executor='process' requires a picklable "
                    "pipeline_factory"
                )
            self._pool_runner = BatchRunner(
                pipeline_factory=_BaggageRungFactory(
                    ResilientFactory(pipeline_factory, robustness)
                ),
                config=BatchConfig(
                    workers=self.config.workers, executor="process"
                ),
            )
        #: The factory's ``source``, or "memory" for a ready-built one.
        self.pipeline_source = getattr(pipeline_factory, "source", "memory")
        self.kb = kb if kb is not None else getattr(pipeline, "kb", None)
        self.recognizer = (
            NamedEntityRecognizer(self.kb.dictionary)
            if self.kb is not None
            else None
        )
        # Admission sheds on the registry's windowed request latency, so
        # /metrics exports the p99 admission acts on.
        metrics = get_metrics()
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            slo_ms=self.config.slo_ms,
            latencies=(
                metrics.windowed_histogram("serving.request.seconds")
                if metrics.enabled
                else None
            ),
        )
        self.slo = SloTracker(
            slo_ms=self.config.slo_ms, objective=self.config.slo_objective
        )
        self._trace_sink: Optional[TraceSink] = None
        self._sample_accum = 1.0  # first request is always head-sampled
        self._batcher: Optional[MicroBatcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, listen: bool = True) -> None:
        """Start the batcher (and the TCP listener unless ``listen`` is
        False — the stdin-JSONL and loopback-test modes need only the
        submit path)."""
        if self._started:
            raise ReproError("server already started")
        self._started = True
        if self.config.trace_export is not None:
            self._trace_sink = TraceSink(self.config.trace_export)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serving-batch"
        )
        if self._pool_runner is not None:
            self._pool_runner.open()
        self._batcher = MicroBatcher(
            self._flush, max_batch=self.config.batch_max_docs
        )
        self._batcher.start()
        if listen:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
            )
            self.port = self._server.sockets[0].getsockname()[1]
            log_event(
                _LOG,
                "serving.listen",
                _level=logging.INFO,
                host=self.config.host,
                port=self.port,
            )

    async def stop(self) -> None:
        """Stop accepting, drain every queued request, release threads."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._pool_runner is not None:
            self._pool_runner.close()
        if self._trace_sink is not None:
            self._trace_sink.close()
        self._started = False

    async def __aenter__(self) -> "DisambiguationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def batcher(self) -> MicroBatcher:
        """The running micro-batcher (post-``start``)."""
        if self._batcher is None:
            raise ReproError("server not started")
        return self._batcher

    # ------------------------------------------------------------------
    # The submit path (shared by HTTP, JSONL, and tests)
    # ------------------------------------------------------------------
    def _mint_context(self) -> TraceContext:
        """A fresh request context with the deterministic head-sampling
        verdict (an exact ``trace_sample_rate`` fraction of requests,
        no RNG, so loopback tests are reproducible)."""
        rate = self.config.trace_sample_rate
        sampled = False
        if rate > 0.0:
            self._sample_accum += rate
            if self._sample_accum >= 1.0 - 1e-9:
                self._sample_accum -= 1.0
                sampled = True
        return TraceContext.new(sampled=sampled)

    def _finish_request(
        self,
        context: TraceContext,
        root_span_id: Optional[int],
        wall_started: float,
        latency_ms: Optional[float] = None,
        error: bool = False,
        rung: str = "",
        doc_id: str = "",
    ) -> None:
        """Close out one request: SLO ledger, root span, tail sampling."""
        now = time.time()
        if latency_ms is None:
            latency_ms = (now - wall_started) * 1000.0
        good = self.slo.record(latency_ms, error=error)
        metrics = get_metrics()
        if metrics.enabled:
            self.slo.publish(metrics)
        tracer = get_tracer()
        if not tracer.enabled:
            return
        tracer.record_span(
            "request",
            category="serving",
            wall_start=wall_started,
            duration=now - wall_started,
            span_id=root_span_id,
            trace_id=context.trace_id,
            request_id=context.request_id,
            doc_id=doc_id,
            rung=rung,
            error=error,
            slo_good=good,
        )
        # Tail sampling: SLO-breaching and erroring requests always keep
        # their full span tree; healthy ones only when head-sampled.
        spans = tracer.take_trace(context.trace_id)
        if (context.sampled or not good) and self._trace_sink is not None:
            self._trace_sink.export(spans)

    async def submit(
        self,
        document: Document,
        context: Optional[TraceContext] = None,
    ) -> ServingResponse:
        """Admit, batch, execute, and await one document.

        Raises :class:`AdmissionRejected` at the queue bound and
        :class:`ServingFailure` when every rung failed; both carry the
        minted ``request_id`` for client-side log joining.
        """
        metrics = get_metrics()
        tracer = get_tracer()
        if context is None:
            context = self._mint_context()
        if metrics.enabled:
            metrics.counter("serving.requests").inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        wall_started = time.time()
        root_span_id = (
            tracer.allocate_span_id() if tracer.enabled else None
        )
        admit_wall = time.time()
        try:
            rung = self.admission.admit()
        except AdmissionRejected as exc:
            exc.request_id = context.request_id
            exc.trace_id = context.trace_id
            self._finish_request(
                context,
                root_span_id,
                wall_started,
                error=True,
                rung="reject",
                doc_id=document.doc_id,
            )
            raise
        if tracer.enabled:
            tracer.record_span(
                "admission",
                category="serving",
                wall_start=admit_wall,
                duration=time.time() - admit_wall,
                parent_id=root_span_id,
                trace_id=context.trace_id,
                request_id=context.request_id,
                rung=rung,
            )
        context = context.with_parent(root_span_id).with_baggage(
            rung=rung
        )
        future: "asyncio.Future[DisambiguationResult]" = (
            loop.create_future()
        )
        request = ServingRequest(
            document=document,
            rung=rung,
            future=future,
            enqueued=started,
            context=context,
            wall_enqueued=time.time(),
        )
        try:
            await self.batcher.put(request)
        except BaseException:
            # The slot was charged but the request never entered a batch.
            self.admission.complete()
            self._finish_request(
                context,
                root_span_id,
                wall_started,
                error=True,
                rung=rung,
                doc_id=document.doc_id,
            )
            raise
        try:
            result = await future
        except Exception as exc:
            if metrics.enabled:
                metrics.counter("serving.failures").inc()
                metrics.windowed_counter("serving.failures").inc()
            if not getattr(exc, "request_id", ""):
                exc.request_id = context.request_id
            exc.trace_id = context.trace_id
            self._finish_request(
                context,
                root_span_id,
                wall_started,
                latency_ms=(loop.time() - started) * 1000.0,
                error=True,
                rung=rung,
                doc_id=document.doc_id,
            )
            raise
        latency_ms = (loop.time() - started) * 1000.0
        if metrics.enabled:
            metrics.counter("serving.responses").inc()
            metrics.windowed_counter("serving.responses").inc()
            metrics.counter(
                f"serving.rung.{result.degradation_rung}"
            ).inc()
        self._finish_request(
            context,
            root_span_id,
            wall_started,
            latency_ms=latency_ms,
            error=False,
            rung=result.degradation_rung,
            doc_id=document.doc_id,
        )
        return ServingResponse(
            result=result,
            admitted_rung=rung,
            latency_ms=latency_ms,
            request_id=context.request_id,
            trace_id=context.trace_id,
        )

    async def process(
        self, documents: Sequence[Document], concurrency: int = 1
    ) -> List[ServingResponse]:
        """Submit *documents* through the full serving path, results in
        input order.  ``concurrency`` bounds in-flight submissions —
        1 is the single-flight mode of the differential tests."""
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def one(document: Document) -> ServingResponse:
            async with semaphore:
                return await self.submit(document)

        return list(
            await asyncio.gather(*(one(doc) for doc in documents))
        )

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _execute(self, batch: List[ServingRequest]) -> BatchOutcome:
        """Runs on the dedicated executor thread."""
        documents = [request.document for request in batch]
        contexts = [request.context for request in batch]
        if self._pool_runner is not None:
            return self._pool_runner.run(documents, contexts=contexts)
        config = BatchConfig(
            workers=min(self.config.workers, len(documents)),
            executor=self.config.executor,
        )
        runner = BatchRunner(
            pipeline=_BaggageRungPipeline(self.pipeline), config=config
        )
        return runner.run(documents, contexts=contexts)

    async def _flush(self, batch: List[ServingRequest]) -> None:
        loop = asyncio.get_running_loop()
        batch_start_wall = time.time()
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._execute, batch
            )
        except Exception as exc:
            # The whole batch failed to execute (not a per-document
            # failure) — resolve every future so no caller hangs.
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
                self.admission.complete(
                    (loop.time() - request.enqueued) * 1000.0
                )
            return
        batch_wall = time.time() - batch_start_wall
        tracer = get_tracer()
        failures = {
            failure.index: failure for failure in outcome.failures
        }
        for index, request in enumerate(batch):
            latency_ms = (loop.time() - request.enqueued) * 1000.0
            result = outcome.results[index]
            if tracer.enabled and request.context is not None:
                # Recorded before resolving the future, so the spans are
                # in the buffer when submit() takes the trace.
                context = request.context
                tracer.record_span(
                    "queue.wait",
                    category="serving",
                    wall_start=request.wall_enqueued,
                    duration=max(
                        batch_start_wall - request.wall_enqueued, 0.0
                    ),
                    parent_id=context.parent_span_id,
                    trace_id=context.trace_id,
                    request_id=context.request_id,
                )
                tracer.record_span(
                    "batch.exec",
                    category="serving",
                    wall_start=batch_start_wall,
                    duration=batch_wall,
                    parent_id=context.parent_span_id,
                    trace_id=context.trace_id,
                    request_id=context.request_id,
                    batch_size=len(batch),
                    executor=self.config.executor,
                )
            if not request.future.done():
                if result is not None:
                    request.future.set_result(result)
                else:
                    failure = failures[index]
                    request.future.set_exception(
                        ServingFailure(
                            doc_id=failure.doc_id,
                            error=failure.error,
                            kind=failure.kind,
                            attempts=failure.attempts,
                            request_id=failure.request_id,
                        )
                    )
            self.admission.complete(latency_ms)

    # ------------------------------------------------------------------
    # HTTP front-end (stdlib-only minimal HTTP/1.1)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        status, payload, headers = 500, {"error": "internal"}, {}
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                raise _RequestRejected(
                    408,
                    f"request not read within {REQUEST_READ_TIMEOUT_S} s",
                )
            status, payload = await self._route(method, path, body)
        except _RequestRejected as exc:
            status = exc.status
            payload = {
                "error": str(exc),
                "request_id": self._mint_context().request_id,
            }
        except Exception as exc:
            status, payload = 500, error_to_dict(exc)
        if status == 429:
            headers["Retry-After"] = "1"
        try:
            self._write_response(writer, status, payload, headers)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, bytes]:
        """``(method, path, body)``; raises :class:`_RequestRejected` for
        a malformed request line, a ``Content-Length`` that is not all
        digits or that repeats with another value, or a body shorter than
        its ``Content-Length`` (400), a request line longer than the stream
        reader's line limit (414), too many header lines or one over the
        line limit (431), or a declared body above :data:`MAX_BODY_BYTES`
        (413)."""
        request_line = await _read_line(reader, 414, "request line")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _RequestRejected(400, "malformed request")
        method, path, _version = parts
        lengths = set()
        header_lines = 0
        while True:
            line = await _read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                raise _RequestRejected(
                    431, f"more than {MAX_HEADER_LINES} header lines"
                )
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                lengths.add(value.strip(" \t\r\n"))
        # RFC 9112 section 6.3: the value is 1*DIGIT, and repeats must
        # agree (int() alone would also read "1_0" or "+5").
        if len(lengths) > 1:
            raise _RequestRejected(400, "conflicting Content-Length values")
        content_length = 0
        if lengths:
            value = lengths.pop()
            if not _DIGITS.fullmatch(value):
                raise _RequestRejected(400, "malformed Content-Length")
            # int() refuses strings of more than 4300 digits, so a value
            # too long to be within the limit is refused by its length.
            value = value.lstrip("0") or "0"
            if len(value) > len(str(MAX_BODY_BYTES)):
                raise _RequestRejected(
                    413,
                    f"a {len(value)}-digit Content-Length exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
            content_length = int(value)
        if content_length > MAX_BODY_BYTES:
            raise _RequestRejected(
                413,
                f"body of {content_length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = b""
        if content_length > 0:
            try:
                body = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError as exc:
                raise _RequestRejected(
                    400,
                    f"body ended after {len(exc.partial)} of "
                    f"{content_length} bytes",
                )
        return method, path, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict, str],
        headers: Dict[str, str],
    ) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data
        )

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict, str]]:
        path, _, query = path.partition("?")
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "queue_depth": self.admission.depth,
                "max_queue": self.admission.max_queue,
            }
        if path == "/stats" and method == "GET":
            stats = self.admission.stats()
            stats["pipeline_source"] = self.pipeline_source
            stats["slo"] = self.slo.snapshot()
            tracer = get_tracer()
            telemetry: Dict[str, object] = {
                "tracing": tracer.enabled,
                "dropped_spans": getattr(tracer, "dropped_spans", 0),
            }
            if self._trace_sink is not None:
                telemetry["trace_sink"] = self._trace_sink.stats()
            stats["telemetry"] = telemetry
            return 200, stats
        if path == "/metrics" and method == "GET":
            metrics = get_metrics()
            if "format=prometheus" in query:
                if not metrics.enabled:
                    return 200, ""
                return 200, render_prometheus(metrics.snapshot())
            if not metrics.enabled:
                return 200, {"enabled": False}
            snapshot = metrics.snapshot()
            snapshot["enabled"] = True
            return 200, snapshot
        if path == "/disambiguate":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._handle_disambiguate(body)
        return 404, {"error": f"unknown path {path}"}

    async def _handle_disambiguate(self, body: bytes) -> Tuple[int, Dict]:
        # Minted before parsing so even a 400 carries a request_id the
        # client can quote back.
        context = self._mint_context()
        request_id = context.request_id
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, error_to_dict(exc, request_id=request_id)
        try:
            document = document_from_payload(payload, self.recognizer)
        except ProtocolError as exc:
            return 400, error_to_dict(exc, request_id=request_id)
        try:
            response = await self.submit(document, context=context)
        except AdmissionRejected as exc:
            return 429, error_to_dict(
                exc,
                queue_depth=exc.depth,
                max_queue=exc.max_queue,
                request_id=request_id,
            )
        except ServingFailure as exc:
            return 500, error_to_dict(
                exc,
                doc_id=exc.doc_id,
                kind=exc.kind,
                attempts=exc.attempts,
                request_id=exc.request_id or request_id,
            )
        return 200, response.to_dict()

    # ------------------------------------------------------------------
    # stdin-JSONL mode
    # ------------------------------------------------------------------
    async def run_jsonl(
        self, in_stream: TextIO, out_stream: TextIO
    ) -> int:
        """Pump JSONL requests from *in_stream* until EOF; write one JSON
        response line per request to *out_stream*, in input order.

        A closed-loop source should never be 429'd, so the pump holds a
        semaphore of ``max_queue`` line-slots — admission sheds by rung
        under load but the bound itself is enforced by backpressure on
        the reader.  Returns the number of documents served.
        """
        loop = asyncio.get_running_loop()
        semaphore = asyncio.Semaphore(self.config.max_queue)
        ordered: asyncio.Queue = asyncio.Queue()
        served = 0

        async def one(line: str) -> Dict:
            context = self._mint_context()
            try:
                payload = json.loads(line)
                document = document_from_payload(
                    payload, self.recognizer
                )
                response = await self.submit(document, context=context)
                return response.to_dict()
            except Exception as exc:
                return error_to_dict(
                    exc, request_id=context.request_id
                )
            finally:
                semaphore.release()

        async def write_responses() -> int:
            count = 0
            while True:
                task = await ordered.get()
                if task is None:
                    return count
                out_stream.write(
                    json.dumps(await task, sort_keys=True) + "\n"
                )
                out_stream.flush()
                count += 1

        writer = loop.create_task(write_responses())
        while True:
            line = await loop.run_in_executor(None, in_stream.readline)
            if not line:
                break
            if not line.strip():
                continue
            await semaphore.acquire()
            await ordered.put(loop.create_task(one(line)))
        await ordered.put(None)
        served = await writer
        return served

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """One status dict: config, admission counters, batcher state."""
        description: Dict[str, object] = {
            "host": self.config.host,
            "port": self.port,
            "slo_ms": self.config.slo_ms,
            "admission": self.admission.stats(),
            "slo": self.slo.snapshot(),
        }
        if self._batcher is not None:
            description["batcher"] = {
                "flush_counts": dict(self._batcher.flush_counts),
                "items_flushed": self._batcher.items_flushed,
                "pending": self._batcher.pending,
            }
        return description


def format_failure(exc: BaseException) -> str:
    """Uniform one-line rendering for server logs."""
    return describe_error(exc) if isinstance(exc, Exception) else repr(exc)
