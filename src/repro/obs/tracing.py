"""Hierarchical span tracing (corpus → document → stage → solver phase).

A :class:`Tracer` records *spans* — named, timed regions of execution —
with thread-local span stacks so concurrently traced documents (the
``BatchRunner`` thread executor) nest correctly per worker thread.  Spans
are created with a context manager or a decorator::

    tracer = Tracer()
    with tracer.span("graph_build", category="stage", doc_id="d1"):
        ...

    @tracer.traced("solve")
    def solve(...): ...

Finished spans are buffered in memory and exported either as JSON Lines
(one span object per line, for ad-hoc ``jq`` analysis) or as the Chrome
``trace_event`` format — a file loadable in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_ with matched ``B``/``E`` duration
events per thread.

The disabled path is near-free: :data:`NULL_TRACER` (a
:class:`NullTracer`) hands out one shared no-op span object, allocating
nothing per call.  The process-wide tracer defaults to it; enable tracing
with :func:`set_tracer`.  ``benchmarks/bench_obs_overhead.py`` gates the
disabled-path overhead at ≤2% of pipeline run-time.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.obs.context import current_context

#: Default span-retention cap: a long-running ``serve`` process keeps at
#: most this many finished spans in memory (oldest evicted first).
DEFAULT_MAX_SPANS = 65_536


class SpanRecord:
    """One finished span.

    ``start``/``duration`` are seconds on the tracer's monotonic clock
    (``start`` is relative to the tracer's construction); ``wall_start``
    is an absolute ``time.time()`` epoch for correlation with logs.

    A slotted class built from positional arguments: every enabled span
    allocates one, so it skips the dataclass keyword machinery.
    """

    __slots__ = (
        "name",
        "category",
        "start",
        "duration",
        "tid",
        "span_id",
        "parent_id",
        "depth",
        "enter_seq",
        "exit_seq",
        "wall_start",
        "args",
        "trace_id",
        "request_id",
    )

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        tid: int,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        enter_seq: int,
        exit_seq: int,
        wall_start: float,
        args: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.tid = tid
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.enter_seq = enter_seq
        self.exit_seq = exit_seq
        self.wall_start = wall_start
        self.args = args if args is not None else {}
        self.trace_id = trace_id
        self.request_id = request_id

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (the JSONL exporter's line payload)."""
        payload = {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "tid": self.tid,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "wall_start": self.wall_start,
            "args": dict(self.args),
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload


class _SpanStack(threading.local):
    """Per-thread stack of open spans; every thread starts with its own
    empty list, so reading it never fails an attribute lookup."""

    def __init__(self) -> None:
        self.stack: List[SpanRecord] = []


class _SpanContext:
    """Context manager for one span of an enabled tracer."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_record")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        args: Dict[str, Any],
    ):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._record: Optional[SpanRecord] = None

    def __enter__(self) -> "_SpanContext":
        self._record = self._tracer._open(
            self._name, self._category, self._args
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._record)

    def add_args(self, **args: Any) -> None:
        """Attach extra key/value payload to the open span."""
        if self._record is not None:
            self._record.args.update(args)


class Tracer:
    """Collects hierarchical spans with per-thread span stacks.

    Retention is bounded: once ``max_spans`` finished spans are held,
    the oldest is evicted per append (counted in :attr:`dropped_spans`
    and the ``obs.tracer.dropped_spans`` counter when metrics are on).

    ``span_id_base`` offsets the span-id sequence so tracers living in
    different worker *processes* mint ids in disjoint ranges — absorbed
    worker spans then never collide with parent-side ids and the
    parent/child links inside a request's tree stay unambiguous.
    """

    enabled = True

    def __init__(
        self,
        max_spans: int = DEFAULT_MAX_SPANS,
        span_id_base: int = 0,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._lock = threading.Lock()
        self._records: Deque[SpanRecord] = collections.deque()
        self._local = _SpanStack()
        self._ids = itertools.count(span_id_base + 1)
        self._seq = itertools.count(1)
        self._epoch = time.perf_counter()
        self._wall_epoch = time.time()
        self.max_spans = int(max_spans)
        self.span_id_base = int(span_id_base)
        self.dropped_spans = 0
        # Tail-sampling support: spans grouped per trace, plus the set
        # of record identities already handed out via take/discard (kept
        # lazily in the deque, compacted once they dominate it).
        self._trace_index: Dict[str, List[SpanRecord]] = {}
        self._detached: set = set()

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(
        self, name: str, category: str = "", **args: Any
    ) -> _SpanContext:
        """Context manager recording one span under the current parent."""
        return _SpanContext(self, name, category, args)

    def traced(
        self, name: Optional[str] = None, category: str = ""
    ) -> Callable:
        """Decorator tracing every call of the wrapped function."""

        def decorate(fn: Callable) -> Callable:
            span_name = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, category=category):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def current_span(self) -> Optional[SpanRecord]:
        """The innermost open span of the calling thread, if any."""
        stack = self._local.stack
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Internal open/close (called by _SpanContext)
    # ------------------------------------------------------------------
    def _open(
        self, name: str, category: str, args: Dict[str, Any]
    ) -> SpanRecord:
        stack = self._local.stack
        parent = stack[-1] if stack else None
        parent_id = parent.span_id if parent is not None else None
        context = current_context()
        trace_id = request_id = None
        if context is not None:
            trace_id = context.trace_id
            request_id = context.request_id
            # The trace's first span on this thread — no local parent,
            # or a local parent belonging to no/another trace (an
            # infrastructure span like ``batch.run``) — re-parents onto
            # the originating request span so the tree connects across
            # executor hops.
            if context.parent_span_id is not None and (
                parent is None or parent.trace_id != trace_id
            ):
                parent_id = context.parent_span_id
        start = time.perf_counter() - self._epoch
        record = SpanRecord(
            name,
            category,
            start,
            0.0,
            threading.get_ident(),
            next(self._ids),
            parent_id,
            len(stack),
            next(self._seq),
            0,
            self._wall_epoch + start,
            dict(args) if args else {},
            trace_id,
            request_id,
        )
        stack.append(record)
        return record

    def _close(self, record: Optional[SpanRecord]) -> None:
        if record is None:
            return
        now = time.perf_counter()
        # A minimum 1ns duration keeps B/E event pairs strictly ordered
        # even for spans below the clock resolution.
        record.duration = max(
            now - self._epoch - record.start, 1e-9
        )
        record.exit_seq = next(self._seq)
        stack = self._local.stack
        if stack and stack[-1] is record:
            stack.pop()
        elif stack and record in stack:  # unbalanced exit — be forgiving
            stack.remove(record)
        with self._lock:
            self._append_locked(record)

    def _append_locked(self, record: SpanRecord) -> None:
        if len(self._records) - len(self._detached) >= self.max_spans:
            self._evict_oldest_locked()
        self._records.append(record)
        if record.trace_id is not None:
            self._trace_index.setdefault(record.trace_id, []).append(
                record
            )

    def _evict_oldest_locked(self) -> None:
        while self._records:
            oldest = self._records.popleft()
            key = id(oldest)
            if key in self._detached:
                self._detached.discard(key)
                continue
            self.dropped_spans += 1
            if oldest.trace_id is not None:
                siblings = self._trace_index.get(oldest.trace_id)
                if siblings is not None:
                    try:
                        siblings.remove(oldest)
                    except ValueError:
                        pass
                    if not siblings:
                        del self._trace_index[oldest.trace_id]
            from repro.obs.metrics import get_metrics

            get_metrics().counter("obs.tracer.dropped_spans").inc()
            return

    # ------------------------------------------------------------------
    # Manual spans and cross-process fan-in
    # ------------------------------------------------------------------
    def allocate_span_id(self) -> int:
        """Reserve a span id without opening a span.

        The serving front door allocates the request root span's id
        eagerly so downstream executors can re-parent onto it *before*
        the root span itself is closed and recorded.
        """
        return next(self._ids)

    def record_span(
        self,
        name: str,
        category: str = "",
        *,
        wall_start: float,
        duration: float,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        trace_id: Optional[str] = None,
        request_id: Optional[str] = None,
        depth: int = 0,
        **args: Any,
    ) -> SpanRecord:
        """Record an already-timed span from wall-clock endpoints.

        Used for regions timed on clocks other than the tracer's
        ``perf_counter`` epoch — e.g. queue-wait measured on the asyncio
        loop — and for the eagerly-allocated request root span.
        """
        enter = next(self._seq)
        record = SpanRecord(
            name,
            category,
            wall_start - self._wall_epoch,
            max(duration, 1e-9),
            threading.get_ident(),
            span_id if span_id is not None else next(self._ids),
            parent_id,
            depth,
            enter,
            next(self._seq),
            wall_start,
            dict(args) if args else {},
            trace_id,
            request_id,
        )
        with self._lock:
            self._append_locked(record)
        return record

    def absorb(self, span_dicts: Iterable[Dict[str, Any]]) -> int:
        """Fold worker-process span dicts into this tracer.

        The worker exported ``as_dict()`` payloads (its own epoch is
        meaningless here, so ``start`` is recomputed from ``wall_start``
        against this tracer's epoch); span/parent ids are kept verbatim —
        the per-process ``span_id_base`` ranges keep them collision-free.
        Returns the number of spans absorbed.
        """
        rows = sorted(span_dicts, key=lambda row: row.get("wall_start", 0.0))
        absorbed = 0
        with self._lock:
            for row in rows:
                enter = next(self._seq)
                record = SpanRecord(
                    row["name"],
                    row.get("category", ""),
                    row["wall_start"] - self._wall_epoch,
                    row["duration"],
                    row.get("tid", 0),
                    row["span_id"],
                    row.get("parent_id"),
                    row.get("depth", 0),
                    enter,
                    next(self._seq),
                    row["wall_start"],
                    dict(row.get("args", {})),
                    row.get("trace_id"),
                    row.get("request_id"),
                )
                self._append_locked(record)
                absorbed += 1
        return absorbed

    # ------------------------------------------------------------------
    # Tail sampling: per-trace retrieval
    # ------------------------------------------------------------------
    def take_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Detach and return one trace's spans as export-ready dicts.

        The spans leave the retention buffer (the tail sampler either
        spools them or drops them — either way the tracer is done with
        them), so a serving process that takes or discards every
        finished request holds no per-request span memory long-term.
        """
        with self._lock:
            records = self._trace_index.pop(trace_id, [])
            for record in records:
                self._detached.add(id(record))
            self._maybe_compact_locked()
        records.sort(key=lambda r: (r.wall_start, r.enter_seq))
        return [record.as_dict() for record in records]

    def discard_trace(self, trace_id: str) -> int:
        """Drop one trace's spans; returns how many were dropped."""
        with self._lock:
            records = self._trace_index.pop(trace_id, [])
            for record in records:
                self._detached.add(id(record))
            self._maybe_compact_locked()
        return len(records)

    def _maybe_compact_locked(self) -> None:
        # Amortised: rebuild the deque only once detached spans dominate.
        if len(self._detached) < 256:
            return
        if len(self._detached) * 2 < len(self._records):
            return
        self._records = collections.deque(
            record
            for record in self._records
            if id(record) not in self._detached
        )
        self._detached.clear()

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def records(self) -> List[SpanRecord]:
        """A snapshot of every finished span still retained."""
        with self._lock:
            if not self._detached:
                return list(self._records)
            return [
                record
                for record in self._records
                if id(record) not in self._detached
            ]

    def clear(self) -> None:
        """Drop all finished spans."""
        with self._lock:
            self._records.clear()
            self._trace_index.clear()
            self._detached.clear()

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns span count."""
        records = sorted(self.records(), key=lambda r: r.enter_seq)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.as_dict()))
                handle.write("\n")
        return len(records)

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """Finished spans as Chrome ``trace_event`` ``B``/``E`` pairs.

        Events are sorted by timestamp with the original enter/exit
        sequence as tie-break, so nesting is preserved per thread and
        ``ts`` is globally non-decreasing.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for record in self.records():
            begin_ts = record.start * 1e6
            end_ts = (record.start + record.duration) * 1e6
            begin = {
                "name": record.name,
                "cat": record.category or "span",
                "ph": "B",
                "ts": begin_ts,
                "pid": pid,
                "tid": record.tid,
            }
            if record.args:
                begin["args"] = dict(record.args)
            end = {
                "name": record.name,
                "cat": record.category or "span",
                "ph": "E",
                "ts": end_ts,
                "pid": pid,
                "tid": record.tid,
            }
            events.append((begin_ts, record.enter_seq, begin))
            events.append((end_ts, record.exit_seq, end))
        events.sort(key=lambda item: (item[0], item[1]))
        return [event for _ts, _seq, event in events]

    def export_chrome(self, path: str) -> int:
        """Write a ``chrome://tracing``/Perfetto-loadable trace file.

        Returns the number of events written (two per span).
        """
        events = self.chrome_trace_events()
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"tracer": "repro.obs", "pid": os.getpid()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        return len(events)


class _NullSpan:
    """Shared no-op span: the whole disabled-tracing hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def add_args(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """API-compatible tracer that records nothing and allocates nothing."""

    enabled = False
    dropped_spans = 0
    max_spans = 0
    span_id_base = 0

    def span(
        self, name: str, category: str = "", **args: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def traced(
        self, name: Optional[str] = None, category: str = ""
    ) -> Callable:
        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate

    def current_span(self) -> None:
        return None

    def allocate_span_id(self) -> int:
        return 0

    def record_span(self, name: str, category: str = "", **kwargs: Any) -> None:
        return None

    def absorb(self, span_dicts: Iterable[Dict[str, Any]]) -> int:
        return 0

    def take_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        return []

    def discard_trace(self, trace_id: str) -> int:
        return 0

    def records(self) -> List[SpanRecord]:
        return []

    def clear(self) -> None:
        pass

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        return []


#: The process-wide disabled tracer (shared singleton).
NULL_TRACER = NullTracer()

_tracer: object = NULL_TRACER


def get_tracer():
    """The process-wide tracer (``NULL_TRACER`` unless enabled)."""
    return _tracer


def set_tracer(tracer) -> object:
    """Install *tracer* process-wide; returns the previous one.

    Pass ``None`` (or :data:`NULL_TRACER`) to disable tracing again.
    """
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous
