"""The relatedness memo: exact pair values, one per pipeline.

Measures are pure (:mod:`repro.relatedness.base`): they compute and count
on every call.  :class:`CachingRelatedness` keeps their *exact* values, so
a pair computed for one document serves every later document, rung and
thread of the same pipeline; every
:class:`~repro.core.pipeline.AidaDisambiguator` owns exactly one.  A
document's coherence pass is :meth:`CachingRelatedness.coherence_edges`:
the measure's ``candidate_pairs`` filter (LSH stage two) picks the pairs
to look up, and a pair it removes never reaches the memo.

Thread-safety notes: the memo is a plain dict with no bound; its ``get``
and ``setdefault`` are atomic under the interpreter lock, so lookups take
no lock.  Concurrent first requests for a pair may compute it twice (the
same value — every measure is deterministic).  Hits and misses are
tallied per thread: :meth:`CachingRelatedness.cache_stats` sums them, and
a thread reads its own (:meth:`CachingRelatedness.thread_counts`) to
count one document's lookups.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.relatedness.base import EntityRelatedness, Pair
from repro.types import EntityId


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the memo counters.

    ``hits + misses`` equals the number of non-identical-pair lookups;
    ``computations`` is the wrapped measure's comparison counter (it can
    exceed ``misses`` only through benign concurrent double-computation of
    a pair's very first request).
    """

    hits: int
    misses: int
    size: int
    computations: int

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class _Tally:
    """One thread's hit and miss counts; only that thread writes them."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


class CachingRelatedness(EntityRelatedness):
    """Memo of exact values around a relatedness measure (*inner*, whose
    ``candidate_pairs`` filter is the memo's), shareable across documents
    and threads."""

    def __init__(self, inner: EntityRelatedness):
        # No base __init__: ``comparisons`` is the wrapped measure's.
        self._inner = inner
        self._memo: Dict[Pair, float] = {}
        # Per-thread tallies: a thread registers its own once, under the
        # lock; lookups then touch only that thread's tally.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies: List[_Tally] = []
        self.name = f"cached({inner.name})"

    @property
    def inner(self) -> EntityRelatedness:
        """The wrapped measure."""
        return self._inner

    @property
    def comparisons(self) -> int:
        """The wrapped measure's exact computations."""
        return self._inner.comparisons

    def candidate_pairs(
        self, entities: Iterable[EntityId]
    ) -> Optional[Set[Pair]]:
        return self._inner.candidate_pairs(entities)

    def _compute(self, a: EntityId, b: EntityId) -> float:
        # Unreachable: ``relatedness`` is overridden.  Kept for the
        # abstract contract.
        return self._inner.relatedness(a, b)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def relatedness(self, a: EntityId, b: EntityId) -> float:
        """The exact value of the pair, computed at most once."""
        if a == b:
            return 1.0
        key = self.canonical_pair(a, b)
        try:
            tally = self._local.tally
        except AttributeError:
            tally = self._register()
        value = self._memo.get(key)
        if value is not None:
            tally.hits += 1
            return value
        tally.misses += 1
        value = self._inner.relatedness(key[0], key[1])
        self._memo.setdefault(key, value)
        return value

    def coherence_edges(
        self,
        entities: Iterable[EntityId],
        sole_mention: Optional[Mapping[EntityId, object]] = None,
    ) -> Tuple[Dict[Pair, float], Optional[Set[Pair]]]:
        """One document's coherence pass: ``(edges, survivors)``.

        *survivors* is the measure's ``candidate_pairs`` of the entity
        set (None: every pair).  *edges* maps each surviving pair, in
        ascending order, to its exact value, except pairs of candidates
        of one and the same single mention (*sole_mention*: entity → its
        only mention; mutually exclusive, Section 4.6.4).
        """
        ordered = sorted(set(entities))
        survivors = self._inner.candidate_pairs(ordered)
        pairs = (
            combinations(ordered, 2)
            if survivors is None
            else sorted(survivors)
        )
        sole = sole_mention or {}
        lookup = self.relatedness
        edges: Dict[Pair, float] = {}
        for a, b in pairs:
            mention = sole.get(a)
            if mention is not None and mention == sole.get(b):
                continue
            edges[(a, b)] = lookup(a, b)
        return edges, survivors

    def _register(self) -> _Tally:
        """The calling thread's tally, created and listed on first use."""
        tally = _Tally()
        with self._lock:
            self._tallies.append(tally)
        self._local.tally = tally
        return tally

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def thread_counts(self) -> Tuple[int, int]:
        """The calling thread's ``(hits, misses)`` so far."""
        tally = getattr(self._local, "tally", None)
        if tally is None:
            return 0, 0
        return tally.hits, tally.misses

    def cache_stats(self) -> CacheStats:
        """A snapshot of the counters, summed over every thread's tally."""
        with self._lock:
            tallies = list(self._tallies)
        return CacheStats(
            hits=sum(tally.hits for tally in tallies),
            misses=sum(tally.misses for tally in tallies),
            size=self.size,
            computations=self.comparisons,
        )

    @property
    def size(self) -> int:
        """Pairs held in the memo."""
        return len(self._memo)

    def reset_stats(self) -> None:
        """Clear the memo, the counters, and the wrapped measure's stats.

        Meant for between runs: a lookup racing the reset may land in
        the discarded tallies.
        """
        self._memo.clear()
        with self._lock:
            self._tallies = []
            self._local = threading.local()
        self._inner.reset_stats()


def memoized(measure: EntityRelatedness) -> CachingRelatedness:
    """*measure* itself when it is a memo, else a new memo over it."""
    if isinstance(measure, CachingRelatedness):
        return measure
    return CachingRelatedness(measure)
