"""Entity-entity semantic relatedness measures (Chapters 3 and 4).

* :class:`MilneWittenRelatedness` — Wikipedia-inlink overlap (Eq. 3.7).
* :class:`InlinkJaccardRelatedness` — plain Jaccard on inlink sets.
* :class:`KeywordCosineRelatedness` (KWCS) and
  :class:`KeyphraseCosineRelatedness` (KPCS) — cosine baselines (Eq. 4.2).
* :class:`KoreRelatedness` — keyphrase overlap relatedness (Eq. 4.3–4.4).
* :class:`KoreLshRelatedness` — KORE accelerated by two-stage min-hash/LSH
  pre-clustering (Section 4.4.2), in recall-geared (G) and fast (F) settings.
* :class:`CachingRelatedness` — the lock-free memo of exact values that
  every pipeline owns, shared across its documents, rungs and threads.

A measure is a pure, counted ``relatedness(a, b)``; a pre-clustering
measure adds ``candidate_pairs(entities)``, the filter that picks which
pairs of a task's entity set are computed at all (None: every pair).
"""

from repro.relatedness.base import EntityRelatedness
from repro.relatedness.caching import CacheStats, CachingRelatedness
from repro.relatedness.milne_witten import MilneWittenRelatedness
from repro.relatedness.jaccard import InlinkJaccardRelatedness
from repro.relatedness.keyterm_cosine import (
    KeywordCosineRelatedness,
    KeyphraseCosineRelatedness,
)
from repro.relatedness.kore import KoreRelatedness
from repro.relatedness.lsh import KoreLshRelatedness, LshSettings

__all__ = [
    "EntityRelatedness",
    "CacheStats",
    "CachingRelatedness",
    "MilneWittenRelatedness",
    "InlinkJaccardRelatedness",
    "KeywordCosineRelatedness",
    "KeyphraseCosineRelatedness",
    "KoreRelatedness",
    "KoreLshRelatedness",
    "LshSettings",
]
