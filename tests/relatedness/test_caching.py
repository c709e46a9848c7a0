"""Differential and unit tests for the shared relatedness cache.

The cache must be *observationally identical* to the measure it wraps:
same values for every pair, both argument orders.  The differential
tests sweep 20 seeded synthetic link worlds
(:mod:`repro.graph.synthetic`) for Milne–Witten and the session KB for
KORE.
"""

from __future__ import annotations

import pytest

from repro.graph.synthetic import (
    SyntheticLinkWorldSpec,
    synthetic_entity_ids,
    synthetic_link_world,
)
from repro.relatedness import (
    CachingRelatedness,
    KoreRelatedness,
    MilneWittenRelatedness,
)
from repro.relatedness.base import EntityRelatedness
from repro.weights.model import WeightModel

SEEDS = range(20)
WORLD_ENTITIES = 30


def _mw_pair(seed):
    """(plain, cached) Milne–Witten over the same synthetic world."""
    spec = SyntheticLinkWorldSpec(entities=WORLD_ENTITIES, seed=seed)
    links = synthetic_link_world(spec)
    plain = MilneWittenRelatedness(links, WORLD_ENTITIES)
    cached = CachingRelatedness(
        MilneWittenRelatedness(links, WORLD_ENTITIES)
    )
    return plain, cached


class CountingMeasure(EntityRelatedness):
    """Deterministic toy measure that records every ``_compute`` call."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.compute_calls = []

    def _compute(self, a, b):
        self.compute_calls.append((a, b))
        return (len(a) * 7 % 11) / 10.0 if a != b else 1.0


class TestDifferentialAgainstWrapped:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mw_identical_on_synthetic_worlds(self, seed):
        """Cached MW equals plain MW on every pair, both orders."""
        plain, cached = _mw_pair(seed)
        entities = synthetic_entity_ids(WORLD_ENTITIES)
        for i, a in enumerate(entities):
            for b in entities[i:]:
                expected = plain.relatedness(a, b)
                assert cached.relatedness(a, b) == expected
                assert cached.relatedness(b, a) == expected

    def test_kore_identical_on_kb(self, kb):
        """Cached KORE equals plain KORE on real keyphrase entities."""
        weights = WeightModel(kb.keyphrases, kb.links)
        plain = KoreRelatedness(kb.keyphrases, weights)
        cached = CachingRelatedness(
            KoreRelatedness(kb.keyphrases, weights)
        )
        entities = sorted(kb.entity_ids())[:15]
        for i, a in enumerate(entities):
            for b in entities[i:]:
                assert cached.relatedness(a, b) == plain.relatedness(a, b)

    def test_rank_candidates_identical(self):
        """The inherited ranking API goes through the cache unchanged."""
        plain, cached = _mw_pair(seed=9)
        entities = synthetic_entity_ids(WORLD_ENTITIES)
        assert cached.rank_candidates(
            entities[0], entities[1:]
        ) == plain.rank_candidates(entities[0], entities[1:])


class TestCacheMechanics:
    def test_counters_and_memoization(self):
        inner = CountingMeasure()
        cached = CachingRelatedness(inner)
        assert cached.relatedness("A", "B") == cached.relatedness("B", "A")
        cached.relatedness("A", "B")
        stats = cached.cache_stats()
        assert stats.misses == 1
        assert stats.hits == 2
        assert stats.size == 1
        assert stats.computations == 1
        assert inner.compute_calls == [("A", "B")]
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_identity_pairs_bypass_the_cache(self):
        cached = CachingRelatedness(CountingMeasure())
        assert cached.relatedness("A", "A") == 1.0
        stats = cached.cache_stats()
        assert stats.hits == 0 and stats.misses == 0 and stats.size == 0

    def test_reset_stats_clears_everything(self):
        inner = CountingMeasure()
        cached = CachingRelatedness(inner)
        cached.relatedness("A", "B")
        cached.relatedness("A", "B")
        cached.reset_stats()
        stats = cached.cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert inner.comparisons == 0
        # Recompute after reset: the value is gone from the memo.
        cached.relatedness("A", "B")
        assert cached.cache_stats().misses == 1

    def test_invalid_maxsize_rejected(self):
        # The memo has no capacity: any bound is an unknown argument.
        for maxsize in (0, 64, None):
            with pytest.raises(TypeError):
                CachingRelatedness(CountingMeasure(), maxsize=maxsize)

    def test_name_reflects_inner_measure(self):
        assert CachingRelatedness(CountingMeasure()).name == (
            "cached(counting)"
        )
