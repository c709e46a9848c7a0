"""Common interface for entity relatedness measures.

All measures are symmetric functions of two entity ids into [0, 1].  The base
class provides result caching and counts the number of *actual* pairwise
computations — the quantity Table 4.4 reports — so subclasses only implement
``_compute``.  Measures with a pre-clustering stage (LSH) override
``prepare`` and ``should_compare``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Tuple

from repro.faults.injector import get_injector
from repro.types import EntityId


class EntityRelatedness(ABC):
    """Symmetric, cached entity-entity relatedness in [0, 1]."""

    #: Human-readable measure name (used in benchmark tables).
    name: str = "relatedness"

    def __init__(self) -> None:
        self._cache: Dict[Tuple[EntityId, EntityId], float] = {}
        self.comparisons = 0

    def prepare(self, entities: Iterable[EntityId]) -> None:
        """Hook run once per task over the candidate entity set.

        Pre-clustering measures (LSH) build their buckets here; the default
        does nothing.
        """

    def should_compare(self, a: EntityId, b: EntityId) -> bool:
        """Whether the exact measure should be computed for this pair.

        LSH-based measures return False for pairs sharing no hash bucket;
        such pairs are assumed unrelated (relatedness 0) without counting a
        comparison.
        """
        return True

    def cacheable_pair(self, a: EntityId, b: EntityId) -> bool:
        """Whether an *external* memoizer may retain this pair's value.

        Task-independent measures (MW, Jaccard, KORE, cosine) always
        return True.  Measures whose answer depends on per-task ``prepare``
        state return False for task-dependent values — an LSH-pruned 0.0
        holds only for the candidate set it was pruned against, so a
        cross-document memo (:class:`repro.relatedness.caching
        .CachingRelatedness`) must not carry it into the next document.
        The measure's *own* ``_cache`` is exempt: ``prepare`` clears it.
        """
        return True

    @staticmethod
    def canonical_pair(
        a: EntityId, b: EntityId
    ) -> Tuple[EntityId, EntityId]:
        """The unique ordered form of an unordered entity pair.

        All measures are symmetric, so every cache lookup, comparison
        count, and ``_compute`` call goes through this single
        canonicalization — subclasses never see a ``(b, a)`` variant of a
        pair they already answered as ``(a, b)``.
        """
        return (a, b) if a <= b else (b, a)

    def compute_pair(self, a: EntityId, b: EntityId) -> float:
        """Uncached relatedness of a pair, order-insensitive.

        Canonicalizes the pair, applies ``should_compare`` pruning, counts
        the comparison, and clamps the subclass value into [0, 1].  This is
        the single computation path shared by :meth:`relatedness` and by
        external memoizers such as
        :class:`repro.relatedness.caching.CachingRelatedness`, which must
        be observationally identical to the wrapped measure.
        """
        if a == b:
            return 1.0
        first, second = self.canonical_pair(a, b)
        if not self.should_compare(first, second):
            return 0.0
        injector = get_injector()
        if injector.enabled:
            # The ``relatedness`` chaos site: every *actual* pairwise
            # computation, cached wrappers included (their hits never
            # reach this path — a warm cache really is more reliable).
            injector.fire("relatedness")
        self.comparisons += 1
        value = float(self._compute(first, second))
        return min(max(value, 0.0), 1.0)

    def compute_uncounted(self, a: EntityId, b: EntityId) -> float:
        """The raw clamped measure value, bypassing the accounting.

        No pruning, no chaos-site firing, no comparison counting — the
        delegation path for wrappers (LSH) whose own ``compute_pair``
        already performed all three for the pair.  Calling this directly
        therefore never double-fires the ``relatedness`` fault site and
        never double-increments ``comparisons``.
        """
        if a == b:
            return 1.0
        first, second = self.canonical_pair(a, b)
        value = float(self._compute(first, second))
        return min(max(value, 0.0), 1.0)

    def relatedness(self, a: EntityId, b: EntityId) -> float:
        """Relatedness of the pair; identical ids are fully related."""
        if a == b:
            return 1.0
        key = self.canonical_pair(a, b)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self.compute_pair(key[0], key[1])
        self._cache[key] = value
        return value

    @abstractmethod
    def _compute(self, a: EntityId, b: EntityId) -> float:
        """Compute the raw measure for a canonical (a <= b) pair."""

    def reset_stats(self) -> None:
        """Clear the cache and the comparison counter."""
        self._cache.clear()
        self.comparisons = 0

    def rank_candidates(
        self, seed: EntityId, candidates: Iterable[EntityId]
    ) -> list:
        """Candidates sorted by descending relatedness to *seed* (ties by
        id) — the operation the relatedness gold standard evaluates."""
        pool = list(candidates)
        return sorted(
            pool, key=lambda eid: (-self.relatedness(seed, eid), eid)
        )
