"""Thread-safety of the shared relatedness cache.

Hammers the same entity pairs from a thread pool, with more threads than
cores and a shortened switch interval, and checks the two guarantees
batch mode relies on: counter consistency (every lookup is accounted as
exactly one hit or miss — a lost tally update breaks it) and no
recomputation after warm-up.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest

from repro.graph.synthetic import (
    SyntheticLinkWorldSpec,
    synthetic_entity_ids,
    synthetic_link_world,
)
from repro.relatedness import CachingRelatedness, MilneWittenRelatedness
from repro.relatedness.base import EntityRelatedness

ENTITIES = 16
THREADS = 8
ROUNDS_PER_THREAD = 30
TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def fast_switching():
    """Switch threads often, so interleavings a lock would hide occur."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class SlowCountingMeasure(EntityRelatedness):
    """Deterministic measure with a compute counter and a thread gate.

    The gate widens the compute window so racy double-computation would
    actually be observed if the cache allowed it after warm-up.
    """

    name = "slow-counting"

    def __init__(self):
        super().__init__()
        self._count_lock = threading.Lock()
        self.computed = 0

    def _compute(self, a, b):
        with self._count_lock:
            self.computed += 1
        # Tiny deterministic "work" loop instead of sleeping: keeps the
        # test fast while still yielding the GIL between threads.
        total = sum(ord(ch) for ch in a + b)
        return (total % 97) / 96.0


def _hammer(cached, pairs, rounds):
    """Each call looks up every pair (both orders) ``rounds`` times."""
    checks = []
    for _ in range(rounds):
        for a, b in pairs:
            checks.append((a, b, cached.relatedness(a, b)))
            checks.append((b, a, cached.relatedness(b, a)))
    return checks


def test_no_recompute_after_warmup_unbounded():
    """A warmed cache never recomputes a pair."""
    inner = SlowCountingMeasure()
    cached = CachingRelatedness(inner)
    entities = [f"N{i}" for i in range(ENTITIES)]
    pairs = list(combinations(entities, 2))
    # Warm up serially: one computation per pair.
    expected = {pair: cached.relatedness(*pair) for pair in pairs}
    assert inner.computed == len(pairs)
    warm_stats = cached.cache_stats()
    assert warm_stats.misses == len(pairs)
    assert warm_stats.size == len(pairs)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [
            pool.submit(_hammer, cached, pairs, ROUNDS_PER_THREAD)
            for _ in range(THREADS)
        ]
        results = [future.result(timeout=TIMEOUT_S) for future in futures]

    # No pair was recomputed after warm-up …
    assert inner.computed == len(pairs)
    # … every thread saw the warmed values, in both argument orders …
    for checks in results:
        for a, b, value in checks:
            key = (a, b) if (a, b) in expected else (b, a)
            assert value == expected[key]
    # … and the counters are consistent: every post-warm-up lookup is a
    # hit and hits + misses == total lookups.
    lookups_per_thread = len(pairs) * 2 * ROUNDS_PER_THREAD
    stats = cached.cache_stats()
    assert stats.hits == THREADS * lookups_per_thread
    assert stats.misses == len(pairs)
    assert stats.lookups == stats.hits + stats.misses
    assert stats.size == len(pairs)


def test_cold_concurrent_hammer_counters_consistent():
    """Starting cold under contention, counters still add up and values
    agree with an independent plain measure."""
    spec = SyntheticLinkWorldSpec(entities=ENTITIES, seed=13)
    links = synthetic_link_world(spec)
    plain = MilneWittenRelatedness(links, ENTITIES)
    cached = CachingRelatedness(MilneWittenRelatedness(links, ENTITIES))
    entities = synthetic_entity_ids(ENTITIES)
    pairs = list(combinations(entities, 2))

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [
            pool.submit(_hammer, cached, pairs, 5) for _ in range(THREADS)
        ]
        results = [future.result(timeout=TIMEOUT_S) for future in futures]

    for checks in results:
        for a, b, value in checks:
            assert value == plain.relatedness(a, b)
    stats = cached.cache_stats()
    total_lookups = THREADS * len(pairs) * 2 * 5
    assert stats.hits + stats.misses == total_lookups
    # Every unique pair is cached exactly once; concurrent first requests
    # may each count a miss, but never more than one per thread.
    assert len(pairs) <= stats.misses <= len(pairs) * THREADS
    assert stats.size == len(pairs)
