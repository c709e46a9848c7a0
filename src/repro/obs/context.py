"""Request-scoped trace context: ids that survive thread and process hops.

A :class:`TraceContext` is minted once per request at the serving front
door and rides with the document through every executor boundary — the
asyncio event loop, the micro-batcher, ``BatchRunner`` worker threads,
and (pickled) process-pool workers.  Spans opened while a context is
*active* (see :func:`use_context`) are stamped with its ``trace_id`` and
``request_id``, and a worker-side root span re-parents onto
``parent_span_id`` — the front door's request span — so one request
yields one connected span tree no matter how many processes touched it.

``baggage`` is a small string→string map carried verbatim across every
hop (the W3C Baggage idea): the serving layer uses it to ship the
admitted degradation rung to process workers, where object identity is
useless after the pickle wall.

:class:`TraceSink` is the bounded JSONL spool the tail sampler writes
kept traces to: one span object per line, the same schema as
``Tracer.export_jsonl``, loadable by ``repro obs report``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, Optional

__all__ = [
    "TraceContext",
    "TraceSink",
    "current_context",
    "new_trace_id",
    "new_request_id",
    "set_context",
    "use_context",
]


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (random, collision-free in practice)."""
    return uuid.uuid4().hex


def new_request_id() -> str:
    """A fresh request id (short form, prefixed for log greppability)."""
    return "req-" + uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The per-request identity every span and error record carries.

    Frozen and built from plain strings/ints, so it pickles across the
    process-pool wall and round-trips JSON for wire payloads.

    ``sampled`` is the *head*-sampling verdict made at admission: a
    sampled request's trace is exported even when healthy; an unsampled
    one is still recorded but only kept if the request breaches the SLO
    or errors (tail sampling keeps every interesting trace).
    """

    trace_id: str
    request_id: str
    parent_span_id: Optional[int] = None
    sampled: bool = True
    baggage: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def new(
        cls,
        sampled: bool = True,
        baggage: Optional[Dict[str, str]] = None,
    ) -> "TraceContext":
        """Mint a fresh context (front-door use)."""
        return cls(
            trace_id=new_trace_id(),
            request_id=new_request_id(),
            sampled=sampled,
            baggage=dict(baggage) if baggage else {},
        )

    def with_parent(self, span_id: Optional[int]) -> "TraceContext":
        """This context re-rooted under *span_id* (the request span)."""
        return replace(self, parent_span_id=span_id)

    def with_baggage(self, **items: str) -> "TraceContext":
        """This context with extra baggage entries (copy-on-write)."""
        merged = dict(self.baggage)
        merged.update({key: str(value) for key, value in items.items()})
        return replace(self, baggage=merged)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly wire form (response payloads, JSONL rows)."""
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "sampled": self.sampled,
        }
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        if self.baggage:
            payload["baggage"] = dict(self.baggage)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        """Inverse of :meth:`to_dict`."""
        return cls(
            trace_id=str(payload["trace_id"]),
            request_id=str(payload["request_id"]),
            parent_span_id=payload.get("parent_span_id"),
            sampled=bool(payload.get("sampled", True)),
            baggage=dict(payload.get("baggage", {})),
        )


class _ContextLocal(threading.local):
    """Per-thread active context; the class default makes a thread that
    never set one read ``None`` without a failed attribute lookup."""

    context: Optional[TraceContext] = None


_local = _ContextLocal()


def current_context() -> Optional[TraceContext]:
    """The calling thread's active context, or None outside a request."""
    return _local.context


def set_context(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install *context* on this thread; returns the previous one."""
    previous = _local.context
    _local.context = context
    return previous


@contextlib.contextmanager
def use_context(context: Optional[TraceContext]) -> Iterator[None]:
    """Activate *context* for the duration of the block (re-entrant)."""
    previous = set_context(context)
    try:
        yield
    finally:
        set_context(previous)


class TraceSink:
    """Bounded JSONL spool for sampled/kept span trees.

    One span dict per line, grouped per trace (a trace's spans are
    written contiguously).  The bound is a trace count, not bytes: once
    ``max_traces`` traces are spooled, further exports are counted as
    dropped instead of growing the file — a long-running server cannot
    fill the disk through its own telemetry.
    """

    def __init__(self, path: str, max_traces: int = 10_000):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.path = path
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._handle = None
        self.traces_written = 0
        self.traces_dropped = 0
        self.spans_written = 0

    def export(self, spans: Iterable[Dict[str, Any]]) -> bool:
        """Append one trace's spans; False when the bound dropped it."""
        rows = [json.dumps(span, sort_keys=True) for span in spans]
        if not rows:
            return False
        with self._lock:
            if self.traces_written >= self.max_traces:
                self.traces_dropped += 1
                return False
            if self._handle is None:
                directory = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "w", encoding="utf-8")
            self._handle.write("\n".join(rows) + "\n")
            self._handle.flush()
            self.traces_written += 1
            self.spans_written += len(rows)
        return True

    def stats(self) -> Dict[str, int]:
        """Spool accounting for ``/stats`` and tests."""
        with self._lock:
            return {
                "traces_written": self.traces_written,
                "traces_dropped": self.traces_dropped,
                "spans_written": self.spans_written,
            }

    def close(self) -> None:
        """Flush and close the spool file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
