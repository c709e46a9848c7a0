"""Shared memoization of entity relatedness.

Every measure already memoizes within one instance (the base-class cache),
but a corpus run that builds one pipeline per document — or fans documents
out over a worker pool — recomputes the same Milne–Witten/KORE pairs from
scratch for every document.  :class:`CachingRelatedness` wraps any
:class:`~repro.relatedness.base.EntityRelatedness` in one symmetric-key
memo that several pipelines (and several threads) can share, with hit and
miss counters that the pipeline surfaces through
:class:`~repro.utils.timing.PipelineStats`.

The wrapper is observationally identical to the wrapped measure: values go
through the same :meth:`~repro.relatedness.base.EntityRelatedness
.compute_pair` canonicalization/pruning/clamping path, so a cached corpus
run is bit-identical to an uncached one.

Thread-safety notes: the memo is a plain dict with no bound and no
recency order; its ``get`` and ``setdefault`` are atomic under the
interpreter lock, so lookups take no lock.  The wrapped measure computes
unlocked, so concurrent first requests for a pair may compute it twice
(the same value — every measure is deterministic); after warm-up no pair
is recomputed.  Hits and misses are tallied per thread and summed by
:meth:`CachingRelatedness.cache_stats`, so the counts stay exact.
Measures with per-task ``prepare`` state (LSH pre-clustering) keep that
state thread-local and are shareable like the stateless ones (MW,
Jaccard, KORE, cosine).  Their task-dependent values (LSH-pruned zeros,
see :meth:`~repro.relatedness.base.EntityRelatedness.cacheable_pair`)
are answered but never stored, and a stored pair that the current task
prunes answers 0.0, so no value leaks from one document's candidate set
into another's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.obs import get_metrics
from repro.relatedness.base import EntityRelatedness
from repro.types import EntityId


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache counters.

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
        """Fraction of lookups served from the cache (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (pipeline counters, benchmark records)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "computations": self.computations,
            "hit_rate": self.hit_rate,
        }


class _Tally:
    """One thread's hit and miss counts; only that thread writes them."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


class CachingRelatedness(EntityRelatedness):
    """Memoizing wrapper around a relatedness measure, shareable across
    documents and threads.

    Parameters
    ----------
    inner:
        The measure to memoize.  Its ``prepare``/``should_compare``
        behaviour is delegated unchanged.
    """

    def __init__(self, inner: EntityRelatedness):
        super().__init__()
        self._inner = inner
        self._memo: Dict[Tuple[EntityId, EntityId], float] = {}
        # Per-thread tallies: a thread registers its own once, under the
        # lock; lookups then touch only that thread's tally.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies: List[_Tally] = []
        # Last values pushed to the global metrics registry (delta base),
        # guarded by its own lock so publishing never blocks lookups.
        self._publish_lock = threading.Lock()
        self._published: Dict[str, int] = {}
        self.name = f"cached({inner.name})"

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    @property
    def inner(self) -> EntityRelatedness:
        """The wrapped measure."""
        return self._inner

    def prepare(self, entities: Iterable[EntityId]) -> None:
        self._inner.prepare(entities)

    def should_compare(self, a: EntityId, b: EntityId) -> bool:
        return self._inner.should_compare(a, b)

    def cacheable_pair(self, a: EntityId, b: EntityId) -> bool:
        return self._inner.cacheable_pair(a, b)

    def _compute(self, a: EntityId, b: EntityId) -> float:
        # Only reachable through the inherited ``relatedness`` (which this
        # class overrides); kept for the abstract contract.
        return self._inner.compute_pair(a, b)

    # ------------------------------------------------------------------
    # The memoized lookup
    # ------------------------------------------------------------------
    def relatedness(self, a: EntityId, b: EntityId) -> float:
        """Relatedness of the pair, served from the shared memo."""
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
            # A pair the current task prunes (LSH) answers 0.0, as the
            # wrapped measure does, whatever an earlier task stored.
            if self._inner.should_compare(key[0], key[1]):
                return value
            return 0.0
        tally.misses += 1
        value = self._inner.compute_pair(key[0], key[1])
        # A task-dependent value (an LSH-pruned 0.0) is valid for this
        # lookup but not for a memo shared across documents.
        if self._inner.cacheable_pair(key[0], key[1]):
            self._memo.setdefault(key, value)
        return value

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
    def cache_stats(self) -> CacheStats:
        """A snapshot of the counters, summed over every thread's tally.

        Snapshot points double as the metrics publication points: the
        deltas since the previous snapshot are folded into the global
        :mod:`repro.obs` registry as ``relatedness.cache.*`` counters
        (no-ops while observability is disabled), keeping the lookup hot
        path free of any metrics work.
        """
        with self._lock:
            tallies = list(self._tallies)
        stats = CacheStats(
            hits=sum(tally.hits for tally in tallies),
            misses=sum(tally.misses for tally in tallies),
            size=len(self._memo),
            computations=self._inner.comparisons,
        )
        self._publish_metrics(stats)
        return stats

    def _publish_metrics(self, stats: CacheStats) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        totals = {
            "hits": stats.hits,
            "misses": stats.misses,
            "computations": stats.computations,
        }
        with self._publish_lock:
            for key, total in totals.items():
                delta = total - self._published.get(key, 0)
                if delta > 0:
                    metrics.counter(f"relatedness.cache.{key}").inc(delta)
                    self._published[key] = total
            metrics.gauge("relatedness.cache.size").set(stats.size)

    def reset_stats(self) -> None:
        """Clear the memo, the counters, and the wrapped measure's stats.

        Meant for between runs: a lookup racing the reset may land in
        the discarded tallies.
        """
        self._memo.clear()
        with self._lock:
            self._tallies = []
            self._local = threading.local()
        with self._publish_lock:
            self._published.clear()
        super().reset_stats()
        self._inner.reset_stats()
