"""Micro-batcher unit tests: work-conserving flushes, FIFO, lossless close.

The batcher is pure asyncio, so every test drives a real event loop with
a recording flush callback — no server, no pipeline.  No outcome here is
decided by a wall-clock sleep: a flush in flight is held open by an
``asyncio.Event``, and "soon" means a bounded number of loop iterations.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.serving.batcher import BatcherClosed, MicroBatcher


class RecordingFlush:
    """Captures every flushed batch; optionally gated or failing.

    With ``gated`` set, the first flush waits for :meth:`release` — the
    executor is busy, so later puts queue up behind it.
    """

    def __init__(self, fail_batches: int = 0, gated: bool = False):
        self.batches: List[List[object]] = []
        self.fail_batches = fail_batches
        self.in_flight = asyncio.Event()
        self._gate = asyncio.Event()
        if not gated:
            self._gate.set()

    def release(self) -> None:
        self._gate.set()

    async def __call__(self, batch):
        self.in_flight.set()
        await self._gate.wait()
        if self.fail_batches > 0:
            self.fail_batches -= 1
            raise RuntimeError("injected flush failure")
        self.batches.append(batch)

    @property
    def items(self) -> List[object]:
        return [item for batch in self.batches for item in batch]


def run(coro):
    return asyncio.run(coro)


async def _within(awaitable, seconds: float = 5.0):
    """Await with a timeout, so a lost wake-up fails instead of hanging."""
    return await asyncio.wait_for(awaitable, seconds)


async def _ticks(predicate, limit: int = 5) -> int:
    """Loop iterations until *predicate* holds; fails after *limit*."""
    for tick in range(limit + 1):
        if predicate():
            return tick
        await asyncio.sleep(0)
    raise AssertionError(f"not reached within {limit} loop iterations")


def test_lone_item_flushes_within_a_few_loop_iterations():
    """No timer: one item leaves as soon as the flusher runs."""

    async def main():
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=64)
        batcher.start()
        await batcher.put("only")
        await _ticks(lambda: flush.batches)
        assert flush.batches == [["only"]]
        assert batcher.flush_counts == {"size": 0, "drain": 1, "close": 0}
        await batcher.close()

    run(main())


def test_items_put_during_a_flush_leave_together_next():
    """Flushes are single-flight: what queues behind a busy flush is
    the next batch, whole."""

    async def main():
        flush = RecordingFlush(gated=True)
        batcher = MicroBatcher(flush, max_batch=8)
        batcher.start()
        await batcher.put("a")
        await _within(flush.in_flight.wait())
        for item in ("b", "c", "d"):
            await batcher.put(item)
        assert batcher.pending == 3
        flush.release()
        await _ticks(lambda: len(flush.batches) == 2)
        assert flush.batches == [["a"], ["b", "c", "d"]]
        assert batcher.flush_counts == {"size": 0, "drain": 2, "close": 0}
        await batcher.close()

    run(main())


def test_backlog_leaves_in_fifo_chunks_of_max_batch():
    """Eleven items queued in one tick leave as 4 + 4 + 3, in order."""

    async def main():
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=4)
        batcher.start()
        for item in range(11):
            await batcher.put(item)
        await _ticks(lambda: len(flush.batches) == 3)
        assert flush.batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]
        assert batcher.flush_counts == {"size": 2, "drain": 1, "close": 0}
        assert batcher.pending == 0
        await batcher.close()

    run(main())


def test_fifo_order_is_preserved_across_batches():
    """Concatenated flushes equal the put order (FIFO within and across
    batches — the admission queue's ordering guarantee), however puts
    and flushes interleave."""

    async def main():
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=3)
        batcher.start()
        for item in range(20):
            await batcher.put(item)
            for _ in range(item % 3):
                await asyncio.sleep(0)
        await batcher.close()
        assert flush.items == list(range(20))
        assert all(len(batch) <= 3 for batch in flush.batches)

    run(main())


def test_close_flushes_every_accepted_item():
    """Items still queued behind a busy flush at close() all leave, in
    max_batch chunks, as close flushes."""

    async def main():
        flush = RecordingFlush(gated=True)
        batcher = MicroBatcher(flush, max_batch=4)
        batcher.start()
        await batcher.put(0)
        await _within(flush.in_flight.wait())
        for item in range(1, 11):
            await batcher.put(item)
        closing = asyncio.ensure_future(batcher.close())
        await asyncio.sleep(0)
        with pytest.raises(BatcherClosed):
            await batcher.put("late")
        flush.release()
        await _within(closing)
        assert flush.items == list(range(11))
        assert batcher.items_flushed == 11
        assert [len(batch) for batch in flush.batches] == [1, 4, 4, 2]
        assert batcher.flush_counts == {"size": 0, "drain": 1, "close": 3}

    run(main())


def test_no_item_lost_on_immediate_close():
    """Everything put before close() is flushed — nothing is dropped."""

    async def main():
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=4)
        batcher.start()
        for item in range(11):
            await batcher.put(item)
        await batcher.close()
        assert flush.items == list(range(11))
        assert batcher.items_flushed == 11
        assert all(len(batch) <= 4 for batch in flush.batches)

    run(main())


def test_put_after_close_raises():
    async def main():
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=4)
        batcher.start()
        await batcher.close()
        with pytest.raises(BatcherClosed):
            await batcher.put("late")

    run(main())


def test_close_is_idempotent():
    async def main():
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=4)
        batcher.start()
        await batcher.put("x")
        await batcher.close()
        await batcher.close()
        assert flush.items == ["x"]

    run(main())


def test_failing_flush_does_not_kill_the_flusher():
    """A flush exception is logged and the next batch still flushes."""

    async def main():
        flush = RecordingFlush(fail_batches=1)
        batcher = MicroBatcher(flush, max_batch=2)
        batcher.start()
        await batcher.put("lost-a")
        await batcher.put("lost-b")
        await _ticks(lambda: flush.fail_batches == 0)
        await batcher.put("kept")
        await _ticks(lambda: flush.batches)
        await batcher.close()
        assert flush.items == ["kept"]
        assert batcher.items_flushed == 3

    run(main())


def test_invalid_geometry_rejected():
    async def flush(batch):
        pass

    with pytest.raises(ValueError):
        MicroBatcher(flush, max_batch=0)
