"""Work-conserving micro-batching for the serving front-end.

Incoming requests are cheapest to disambiguate in small batches — the
batch layer amortizes pipeline fan-out and the shared relatedness cache
across documents — but a request must never wait on an idle executor.
:class:`MicroBatcher` therefore flushes as soon as the flusher is free:
it takes the first queued item plus everything already queued behind
it, up to ``max_batch``, and flushes at once with no timer.  Batches are
single-flight — the flusher awaits each flush before assembling the next
one — so items that arrive during a flush leave together as the next
batch, and batches grow with load on their own.

Flush reasons: *size* (the cap was hit and items are still queued),
*drain* (the flusher took every waiting item) and *close* (shutdown).
On shutdown every queued item is flushed — no document is ever dropped.

The batcher is a pure asyncio component: ``put`` is awaited from the
event loop, and the flush callback is an async callable that receives
the batch list.  The admission queue (not an internal buffer) is the
only place requests wait.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable, List

from repro.errors import ReproError
from repro.obs import get_metrics, log_event

_LOG = logging.getLogger("repro.serving")

#: Queue sentinel that wakes the flusher for shutdown; always the last
#: item, because ``put`` refuses once ``close`` has queued it.
_CLOSE = object()

#: Batch-size histogram buckets (documents per flush).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Flush reason labels.
FLUSH_REASONS = ("size", "drain", "close")

FlushFn = Callable[[List[object]], Awaitable[None]]


class BatcherClosed(ReproError):
    """``put`` after ``close`` — the caller outlived the server."""


class MicroBatcher:
    """Group queued items into batches whenever the flusher is free.

    ``flush`` is awaited once per batch with the items in arrival (FIFO)
    order; a failing flush is logged and must not kill the flusher, so
    callers that need per-item delivery guarantees (the server resolves
    per-request futures) must catch inside their own callback.
    """

    def __init__(self, flush: FlushFn, max_batch: int = 16):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush = flush
        self.max_batch = max_batch
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: "asyncio.Task[None]" = None  # type: ignore[assignment]
        self._closed = False
        #: Flushes per reason (size / drain / close).
        self.flush_counts = {reason: 0 for reason in FLUSH_REASONS}
        #: Total items flushed — equals items put once drained.
        self.items_flushed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "asyncio.Task[None]":
        """Spawn the flusher task on the running loop."""
        if self._task is not None:
            raise ReproError("MicroBatcher already started")
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="micro-batcher"
        )
        return self._task

    async def close(self) -> None:
        """Stop accepting items, flush everything queued, then return.

        Idempotent.  Every item accepted by :meth:`put` before the close
        is flushed — the lossless-shutdown guarantee the serving tests
        pin down.
        """
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(_CLOSE)
        if self._task is not None:
            await self._task

    async def put(self, item: object) -> None:
        """Enqueue one item for the next batch."""
        if self._closed:
            raise BatcherClosed("micro-batcher is closed")
        self._queue.put_nowait(item)

    @property
    def pending(self) -> int:
        """Items queued but not yet picked into a batch."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # The flusher
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        item = None
        while item is not _CLOSE:
            item = await self._queue.get()
            batch: List[object] = []
            # Take what is already queued, without yielding to the loop.
            while item is not _CLOSE:
                batch.append(item)
                if len(batch) == self.max_batch or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if batch:
                await self._safe_flush(batch, self._reason())

    def _reason(self) -> str:
        if self._closed:
            return "close"
        return "size" if not self._queue.empty() else "drain"

    async def _safe_flush(self, batch: List[object], reason: str) -> None:
        self.flush_counts[reason] += 1
        self.items_flushed += len(batch)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("serving.batches").inc()
            metrics.counter(f"serving.batch.flush.{reason}").inc()
            metrics.histogram(
                "serving.batch.size", buckets=BATCH_SIZE_BUCKETS
            ).observe(float(len(batch)))
        try:
            await self._flush(batch)
        except Exception as exc:  # flusher must survive a bad batch
            _LOG.error(
                "micro-batch flush failed: %s: %s",
                type(exc).__name__,
                exc,
            )
            log_event(
                _LOG,
                "serving.flush_error",
                _level=logging.ERROR,
                reason=reason,
                batch=len(batch),
                error=f"{type(exc).__name__}: {exc}",
            )
