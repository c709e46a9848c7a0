"""Cooperative per-document soft deadlines.

A :class:`Budget` is armed for one pipeline attempt and *checked* —
never preempted — at natural yield points: every pipeline stage boundary
and every dense-subgraph solver iteration.  When the budget is exhausted
the next check raises :class:`repro.errors.DeadlineExceeded`, which the
robustness layer converts into a degradation step (retrying the same
configuration would time out again).

The active budget rides on a thread-local stack so the pipeline and the
solver need no plumbing: they call :func:`check_budget`, which is a
single thread-local read plus ``None`` check when no deadline is armed.
``Budget`` accepts an injectable ``clock`` (and a virtual
:meth:`Budget.charge_ms`) so tests can exhaust deadlines without real
waiting.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.errors import DeadlineExceeded
from repro.obs import get_metrics


class Budget:
    """A soft time budget for one pipeline attempt.

    ``deadline_ms = None`` never expires (checks are free no-ops apart
    from the clock read guard).  ``charge_ms`` adds virtual elapsed time
    on top of the wall clock — used by tests and by callers that account
    for known waits without sleeping.
    """

    __slots__ = ("deadline_ms", "_clock", "_start", "_charged_ms")

    def __init__(
        self,
        deadline_ms: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline_ms is not None and deadline_ms <= 0.0:
            raise ValueError("deadline_ms must be None or > 0")
        self.deadline_ms = deadline_ms
        self._clock = clock
        self._start = clock()
        self._charged_ms = 0.0

    @property
    def elapsed_ms(self) -> float:
        """Wall-clock milliseconds since arming, plus virtual charges."""
        return (
            (self._clock() - self._start) * 1000.0 + self._charged_ms
        )

    @property
    def remaining_ms(self) -> float:
        """Milliseconds left (``inf`` for an unbounded budget)."""
        if self.deadline_ms is None:
            return float("inf")
        return self.deadline_ms - self.elapsed_ms

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return (
            self.deadline_ms is not None
            and self.elapsed_ms > self.deadline_ms
        )

    def charge_ms(self, amount: float) -> None:
        """Add *amount* virtual milliseconds of consumption."""
        self._charged_ms += amount

    def check(self, where: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out."""
        if self.deadline_ms is None:
            return
        elapsed = self.elapsed_ms
        if elapsed > self.deadline_ms:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("robust.deadline_hits").inc()
            raise DeadlineExceeded(where, elapsed, self.deadline_ms)


# ----------------------------------------------------------------------
# The thread-local budget stack
# ----------------------------------------------------------------------
class _BudgetStack(threading.local):
    """Per-thread stack of armed budgets; every thread starts with its
    own empty list, so reading it never fails an attribute lookup."""

    def __init__(self) -> None:
        self.stack: List[Budget] = []


_active = _BudgetStack()


def _stack() -> List[Budget]:
    return _active.stack


def current_budget() -> Optional[Budget]:
    """The innermost armed budget of this thread, if any."""
    stack = _active.stack
    return stack[-1] if stack else None


def check_budget(where: str) -> None:
    """Check the innermost armed budget; no-op when none is armed.

    This is the single call instrumented code uses — one thread-local
    read on the fault-free path.
    """
    stack = _active.stack
    if stack:
        stack[-1].check(where)


@contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Arm *budget* for the dynamic extent of the block.

    ``None`` arms nothing (so callers can pass an optional budget
    straight through).  Scopes nest; the innermost wins.

    Exit removes *this* budget specifically, discarding anything a
    misbehaving callee pushed above it without popping.  The guarantee
    matters for long-lived processes: executor threads are reused across
    requests, so a leaked entry on the thread-local stack would charge a
    later request against an earlier request's spent budget.
    """
    if budget is None:
        yield None
        return
    stack = _stack()
    stack.append(budget)
    try:
        yield budget
    finally:
        while stack:
            if stack.pop() is budget:
                break
