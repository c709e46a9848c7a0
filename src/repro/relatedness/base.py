"""Common interface for entity relatedness measures.

All measures are symmetric functions of two entity ids into [0, 1].  A
measure is pure: :meth:`EntityRelatedness.relatedness` computes the exact
value on every call and counts it — the quantity Table 4.4 reports — so
subclasses only implement ``_compute``.  Memoizing is the caller's
business (:class:`~repro.relatedness.caching.CachingRelatedness`, one per
pipeline).  A measure with a pre-clustering stage (LSH) also overrides
:meth:`~EntityRelatedness.candidate_pairs`, which says which pairs of a
task's entity set deserve the exact measure at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional, Set, Tuple

from repro.types import EntityId

#: A canonical ``(a, b)`` pair with ``a <= b``.
Pair = Tuple[EntityId, EntityId]


class EntityRelatedness(ABC):
    """Symmetric entity-entity relatedness in [0, 1]."""

    #: Human-readable measure name (used in benchmark tables).
    name: str = "relatedness"

    def __init__(self) -> None:
        self.comparisons = 0

    @staticmethod
    def canonical_pair(a: EntityId, b: EntityId) -> Pair:
        """The unique ordered form of an unordered entity pair.

        All measures are symmetric, so every memo key, comparison count
        and ``_compute`` call goes through this single canonicalization —
        subclasses never see a ``(b, a)`` variant of a pair.
        """
        return (a, b) if a <= b else (b, a)

    def relatedness(self, a: EntityId, b: EntityId) -> float:
        """The exact relatedness of the pair; identical ids are fully
        related.

        Every call with two distinct ids is one counted computation; the
        subclass value is clamped into [0, 1].
        """
        if a == b:
            return 1.0
        first, second = self.canonical_pair(a, b)
        self.comparisons += 1
        value = float(self._compute(first, second))
        return min(max(value, 0.0), 1.0)

    def candidate_pairs(
        self, entities: Iterable[EntityId]
    ) -> Optional[Set[Pair]]:
        """The canonical pairs of *entities* worth the exact measure.

        None means every pair (the default).  Pre-clustering measures
        (LSH) return the pairs sharing a bucket; every other pair of the
        set is taken as unrelated (0.0) without a computation.
        """
        return None

    @abstractmethod
    def _compute(self, a: EntityId, b: EntityId) -> float:
        """Compute the raw measure for a canonical (a <= b) pair."""

    def reset_stats(self) -> None:
        """Clear the comparison counter."""
        self.comparisons = 0

    def rank_candidates(
        self, seed: EntityId, candidates: Iterable[EntityId]
    ) -> list:
        """Candidates sorted by descending relatedness to *seed* (ties by
        id) — the operation the relatedness gold standard evaluates.

        The task's entity set is ``[seed, *candidates]``: pairs the
        measure's filter removes rank as 0.0.
        """
        pool = list(candidates)
        survivors = self.candidate_pairs([seed, *pool])
        values = {
            eid: filtered_relatedness(self, survivors, seed, eid)
            for eid in dict.fromkeys(pool)
        }
        return sorted(pool, key=lambda eid: (-values[eid], eid))


def filtered_relatedness(
    measure: EntityRelatedness,
    survivors: Optional[Set[Pair]],
    a: EntityId,
    b: EntityId,
) -> float:
    """*measure*'s value of the pair under a ``candidate_pairs`` result.

    A pair the filter removed is 0.0 and costs nothing; identical ids are
    1.0 and every other pair is looked up through *measure* (a memo or a
    bare measure).
    """
    if (
        a != b
        and survivors is not None
        and EntityRelatedness.canonical_pair(a, b) not in survivors
    ):
        return 0.0
    return measure.relatedness(a, b)
