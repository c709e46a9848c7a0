"""Regression: a spent budget must never leak onto a reused thread.

Long-lived serving keeps executor threads alive across requests.  The
budget stack is thread-local, so an entry left behind by one request
would charge the *next* request on that thread against an
already-exhausted deadline — every later request on the thread would
instantly hit ``DeadlineExceeded``.  These tests pin the non-leak
guarantee of :func:`repro.faults.deadline.budget_scope`, including the
hardened exit that discards entries a misbehaving callee pushed and
never popped.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import DeadlineExceeded
from repro.faults.deadline import (
    Budget,
    budget_scope,
    check_budget,
    current_budget,
)


def make_clock(start: float = 0.0):
    """A manual clock: ``clock.advance(seconds)`` moves time forward."""

    class Clock:
        def __init__(self):
            self.now = start

        def __call__(self) -> float:
            return self.now

        def advance(self, seconds: float) -> None:
            self.now += seconds

    return Clock()


def test_spent_budget_does_not_survive_scope_exit_on_reused_thread():
    """The serving hazard, distilled: request A exhausts its budget on an
    executor thread; request B runs on the same thread and must start
    with a clean stack."""
    executor = ThreadPoolExecutor(max_workers=1)  # one reusable thread

    def request_a():
        clock = make_clock()
        budget = Budget(10.0, clock=clock)
        with pytest.raises(DeadlineExceeded):
            with budget_scope(budget):
                clock.advance(1.0)  # 1000 ms > 10 ms: spent
                check_budget("request-a")
        return current_budget()

    def request_b():
        # Same thread as request A.  No budget may be armed, and a check
        # must be a free no-op rather than an inherited deadline hit.
        leaked = current_budget()
        check_budget("request-b")
        return leaked

    try:
        assert executor.submit(request_a).result() is None
        assert executor.submit(request_b).result() is None
    finally:
        executor.shutdown(wait=True)


def test_scope_exit_discards_entries_leaked_by_callee():
    """A callee that pushes onto the stack without popping cannot poison
    the thread: exiting the outer scope removes its own budget AND
    everything the callee abandoned above it."""
    from repro.faults.deadline import _stack

    outer = Budget(1000.0)
    with budget_scope(outer):
        # Misbehaving callee: arms a budget and "forgets" to exit.
        _stack().append(Budget(0.001))
        assert current_budget() is not outer
    assert current_budget() is None
    assert _stack() == []


def test_nested_scopes_restore_the_outer_budget():
    outer = Budget(1000.0)
    inner = Budget(50.0)
    with budget_scope(outer):
        assert current_budget() is outer
        with budget_scope(inner):
            assert current_budget() is inner
        assert current_budget() is outer
    assert current_budget() is None


def test_scope_exit_is_clean_even_when_the_body_raises():
    budget = Budget(1000.0)
    with pytest.raises(RuntimeError):
        with budget_scope(budget):
            raise RuntimeError("body failure")
    assert current_budget() is None


def test_none_budget_scope_arms_nothing():
    with budget_scope(None) as armed:
        assert armed is None
        assert current_budget() is None
        check_budget("unarmed")  # free no-op


def test_fresh_budget_per_attempt_not_inherited():
    """Two sequential scopes on one thread are independent: spending the
    first does not tax the second (the resilient layer arms a fresh
    Budget per attempt for exactly this reason)."""
    clock = make_clock()
    first = Budget(10.0, clock=clock)
    with pytest.raises(DeadlineExceeded):
        with budget_scope(first):
            clock.advance(1.0)
            check_budget("first")
    second = Budget(10.0, clock=clock)
    with budget_scope(second):
        check_budget("second")  # must not raise: its own 10 ms slice
        assert second.expired is False


def _on_fresh_thread(fn):
    """Run *fn* on a new thread and return its result (or raise its
    exception here)."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def test_fresh_thread_starts_with_an_empty_stack():
    """A thread that never armed a budget (every batch worker) already
    has its own empty stack, so a check reads it without an attribute
    miss."""
    from repro.faults import deadline

    def probe():
        stack = deadline._active.stack
        check_budget("fresh")
        return stack, current_budget()

    stack, budget = _on_fresh_thread(probe)
    assert stack == []
    assert budget is None


def test_budget_armed_on_one_thread_is_invisible_on_another():
    clock = make_clock()
    spent = Budget(10.0, clock=clock)
    clock.advance(1.0)  # 1000 ms > 10 ms: any check against it raises
    with budget_scope(spent):
        assert _on_fresh_thread(current_budget) is None
        _on_fresh_thread(lambda: check_budget("other-thread"))
        assert current_budget() is spent

    def arm_elsewhere():
        with budget_scope(Budget(10.0, clock=clock)) as armed:
            return current_budget() is armed

    assert _on_fresh_thread(arm_elsewhere) is True
    assert current_budget() is None
    check_budget("main")
