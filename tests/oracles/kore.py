"""KORE over strings and dicts (test oracle).

Eq. 4.3 (:func:`phrase_overlap`) and Eq. 4.4 as the paper writes them,
with per-entity dict models cached on the measure.  The production
measure, :class:`repro.relatedness.kore.KoreRelatedness`, scores the same
pairs over compiled id arrays (:func:`repro.compiled.scoring.kore_score`);
the differential suites require the two to agree within 1e-9.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set

from repro.kb.keyphrases import KeyphraseStore, Phrase
from repro.relatedness.base import EntityRelatedness
from repro.types import EntityId
from repro.weights.model import WeightModel


def phrase_overlap(
    phrase_p: Sequence[str],
    phrase_q: Sequence[str],
    gamma_e: Mapping[str, float],
    gamma_f: Mapping[str, float],
) -> float:
    """Eq. 4.3 — weighted Jaccard overlap of two phrases' word sets."""
    words_p = set(phrase_p)
    words_q = set(phrase_q)
    numerator = sum(
        min(gamma_e.get(word, 0.0), gamma_f.get(word, 0.0))
        for word in words_p & words_q
    )
    if numerator == 0.0:
        return 0.0
    denominator = sum(
        max(gamma_e.get(word, 0.0), gamma_f.get(word, 0.0))
        for word in words_p | words_q
    )
    if denominator <= 0.0:
        return 0.0
    return numerator / denominator


class ReferenceKoreRelatedness(EntityRelatedness):
    """KORE with µ phrase / IDF word weights over dict models."""

    name = "KORE"

    def __init__(
        self,
        store: KeyphraseStore,
        weights: WeightModel,
        squared: bool = True,
    ):
        super().__init__()
        self._store = store
        self._weights = weights
        self.squared = squared
        self._phrase_weight_cache: Dict[EntityId, Dict[Phrase, float]] = {}
        self._phi_sum_cache: Dict[EntityId, float] = {}
        self._gamma_cache: Dict[EntityId, Dict[str, float]] = {}
        self._phrase_list_cache: Dict[EntityId, List[Phrase]] = {}
        self._word_index_cache: Dict[EntityId, Dict[str, List[int]]] = {}

    def _phi(self, entity_id: EntityId) -> Dict[Phrase, float]:
        cached = self._phrase_weight_cache.get(entity_id)
        if cached is None:
            cached = dict(self._weights.keyphrase_weights(entity_id))
            self._phrase_weight_cache[entity_id] = cached
        return cached

    def _phi_sum(self, entity_id: EntityId) -> float:
        """``sum(ϕ.values())`` — one half of the denominator."""
        cached = self._phi_sum_cache.get(entity_id)
        if cached is None:
            cached = sum(self._phi(entity_id).values())
            self._phi_sum_cache[entity_id] = cached
        return cached

    def _gamma(self, entity_id: EntityId) -> Dict[str, float]:
        cached = self._gamma_cache.get(entity_id)
        if cached is None:
            cached = self._weights.keyword_weights(entity_id, scheme="idf")
            self._gamma_cache[entity_id] = cached
        return cached

    def _phrases(self, entity_id: EntityId) -> List[Phrase]:
        cached = self._phrase_list_cache.get(entity_id)
        if cached is None:
            cached = self._store.keyphrases(entity_id)
            self._phrase_list_cache[entity_id] = cached
        return cached

    def _word_index(self, entity_id: EntityId) -> Dict[str, List[int]]:
        """word -> indices (into ``_phrases``) of phrases containing it."""
        cached = self._word_index_cache.get(entity_id)
        if cached is None:
            cached = {}
            for index, phrase in enumerate(self._phrases(entity_id)):
                for word in set(phrase):
                    cached.setdefault(word, []).append(index)
            self._word_index_cache[entity_id] = cached
        return cached

    def _compute(self, a: EntityId, b: EntityId) -> float:
        phi_a = self._phi(a)
        phi_b = self._phi(b)
        denominator = self._phi_sum(a) + self._phi_sum(b)
        if denominator <= 0.0:
            return 0.0
        gamma_a = self._gamma(a)
        gamma_b = self._gamma(b)
        # Only phrase pairs sharing a word can have PO > 0; a per-phrase
        # seen-set dedupes partners found through several shared words.
        phrases_b = self._phrases(b)
        index_b = self._word_index(b)
        numerator = 0.0
        for phrase_p in self._phrases(a):
            weight_p = phi_a.get(phrase_p, 0.0)
            seen: Set[int] = set()
            for word in set(phrase_p):
                for q in index_b.get(word, ()):
                    if q in seen:
                        continue
                    seen.add(q)
                    phrase_q = phrases_b[q]
                    po = phrase_overlap(
                        phrase_p, phrase_q, gamma_a, gamma_b
                    )
                    if po == 0.0:
                        continue
                    if self.squared:
                        po = po * po
                    numerator += po * min(
                        weight_p, phi_b.get(phrase_q, 0.0)
                    )
        return numerator / denominator
