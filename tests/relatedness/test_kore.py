"""Tests for KORE, the cosine baselines, and the LSH acceleration.

``TestPhraseOverlap`` pins Eq. 4.3 on the dict oracle
(``tests/oracles/kore.py``); the other KORE tests run the compiled
measure.
"""

import pytest

from repro.kb.keyphrases import KeyphraseStore
from repro.relatedness.base import filtered_relatedness
from repro.relatedness.caching import CachingRelatedness
from repro.relatedness.keyterm_cosine import (
    KeyphraseCosineRelatedness,
    KeywordCosineRelatedness,
    cosine,
)
from repro.relatedness.kore import KoreRelatedness
from repro.relatedness.lsh import KoreLshRelatedness, LshSettings
from repro.weights.model import WeightModel
from tests.oracles.kore import phrase_overlap


@pytest.fixture
def setup():
    store = KeyphraseStore()
    # Nick Cave and his song share phrases partially; the chorus shares
    # nothing with either.
    store.add_keyphrase("Nick_Cave", ("australian", "singer"))
    store.add_keyphrase("Nick_Cave", ("bad", "seeds"))
    store.add_keyphrase("Nick_Cave", ("eerie", "cello"))
    store.add_keyphrase("Hallelujah_Cave", ("australian", "male", "singer"))
    store.add_keyphrase("Hallelujah_Cave", ("bad", "seeds"))
    store.add_keyphrase("Hallelujah_Chorus", ("baroque", "oratorio"))
    store.add_keyphrase("Hallelujah_Chorus", ("choir", "music"))
    for filler in range(6):
        store.add_keyphrase(f"F{filler}", (f"filler{filler}", "thing"))
    weights = WeightModel(store, links=None)
    return store, weights


class TestPhraseOverlap:
    def test_identical_phrases(self):
        gamma = {"a": 1.0, "b": 1.0}
        assert phrase_overlap(("a", "b"), ("a", "b"), gamma, gamma) == 1.0

    def test_partial_overlap(self):
        gamma = {"english": 1.0, "rock": 1.0, "guitarist": 1.0}
        po = phrase_overlap(
            ("english", "rock", "guitarist"),
            ("english", "guitarist"),
            gamma,
            gamma,
        )
        assert po == pytest.approx(2 / 3)

    def test_partial_beats_unrelated(self):
        gamma = {
            "english": 1.0, "rock": 1.0, "guitarist": 1.0,
            "german": 1.0, "president": 1.0,
        }
        close = phrase_overlap(
            ("english", "rock", "guitarist"), ("english", "guitarist"),
            gamma, gamma,
        )
        far = phrase_overlap(
            ("english", "rock", "guitarist"), ("german", "president"),
            gamma, gamma,
        )
        assert close > far == 0.0

    def test_asymmetric_weights_use_min_max(self):
        gamma_e = {"a": 1.0}
        gamma_f = {"a": 0.5}
        po = phrase_overlap(("a",), ("a",), gamma_e, gamma_f)
        assert po == pytest.approx(0.5 / 1.0)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine({"a": 1.0}, {"a": 2.0}) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_vector(self):
        assert cosine({}, {"a": 1.0}) == 0.0


class TestKore:
    def test_related_entities_score_positive(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        assert kore.relatedness("Nick_Cave", "Hallelujah_Cave") > 0.0

    def test_unrelated_entities_near_zero(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        related = kore.relatedness("Nick_Cave", "Hallelujah_Cave")
        unrelated = kore.relatedness("Nick_Cave", "Hallelujah_Chorus")
        assert related > unrelated
        assert unrelated == pytest.approx(0.0)

    def test_symmetry(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        assert kore.relatedness(
            "Nick_Cave", "Hallelujah_Cave"
        ) == kore.relatedness("Hallelujah_Cave", "Nick_Cave")

    def test_bounded(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        for a in store.entity_ids():
            for b in store.entity_ids():
                assert 0.0 <= kore.relatedness(a, b) <= 1.0

    def test_unsquared_ablation_not_lower(self, setup):
        # PO <= 1, so removing the squaring can only raise the measure.
        store, weights = setup
        squared = KoreRelatedness(store, weights, squared=True)
        plain = KoreRelatedness(store, weights, squared=False)
        pair = ("Nick_Cave", "Hallelujah_Cave")
        assert plain.relatedness(*pair) >= squared.relatedness(*pair)

    def test_entity_without_phrases(self, setup):
        store, weights = setup
        store.ensure_entity("Empty")
        kore = KoreRelatedness(store, weights)
        assert kore.relatedness("Empty", "Nick_Cave") == 0.0


class TestKoreCosineBaselines:
    def test_kpcs_related(self, setup):
        store, weights = setup
        kpcs = KeyphraseCosineRelatedness(store, weights)
        # KPCS needs exact phrase matches: the shared ("bad", "seeds").
        assert kpcs.relatedness("Nick_Cave", "Hallelujah_Cave") > 0.0

    def test_kwcs_partial_words(self, setup):
        store, weights = setup
        kwcs = KeywordCosineRelatedness(store, weights)
        assert kwcs.relatedness("Nick_Cave", "Hallelujah_Cave") > 0.0

    def test_both_zero_for_unrelated(self, setup):
        store, weights = setup
        kpcs = KeyphraseCosineRelatedness(store, weights)
        kwcs = KeywordCosineRelatedness(store, weights)
        assert kpcs.relatedness("Nick_Cave", "Hallelujah_Chorus") == 0.0
        assert kwcs.relatedness("Nick_Cave", "Hallelujah_Chorus") == 0.0


class TestKoreLsh:
    def test_related_pair_survives_lsh(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(
            store, kore, LshSettings.recall_geared(), name="G"
        )
        entities = store.entity_ids()
        survivors = lsh.candidate_pairs(entities)
        assert ("Hallelujah_Cave", "Nick_Cave") in survivors
        assert lsh.relatedness("Nick_Cave", "Hallelujah_Cave") > 0.0

    def test_pruned_pair_scores_zero_without_computation(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.fast(), name="F")
        survivors = lsh.candidate_pairs(store.entity_ids())
        value = filtered_relatedness(lsh, survivors, "F0", "F3")
        # Disjoint filler entities should be pruned by stage two.
        if ("F0", "F3") not in survivors:
            assert value == 0.0
            assert lsh.comparisons == 0
            assert kore.comparisons == 0

    def test_without_prepare_behaves_exactly(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore)
        exact = KoreRelatedness(store, weights)
        pair = ("Nick_Cave", "Hallelujah_Cave")
        assert lsh.relatedness(*pair) == exact.relatedness(*pair)

    def test_fast_prunes_at_least_as_much_as_recall(self, setup):
        store, weights = setup
        kore_g = KoreRelatedness(store, weights)
        kore_f = KoreRelatedness(store, weights)
        g = KoreLshRelatedness(store, kore_g, LshSettings.recall_geared())
        f = KoreLshRelatedness(store, kore_f, LshSettings.fast())
        entities = store.entity_ids()
        assert len(f.candidate_pairs(entities)) <= len(
            g.candidate_pairs(entities)
        )

    def test_prepare_resets_pair_cache(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        memo = CachingRelatedness(lsh)
        pair = ("Nick_Cave", "Hallelujah_Cave")
        # The filter is a function of the task's entity set: outside the
        # set the pair is 0.0 and never reaches the memo ...
        survivors = lsh.candidate_pairs(["Nick_Cave", "Hallelujah_Chorus"])
        first = filtered_relatedness(memo, survivors, *pair)
        assert first == 0.0
        assert memo.size == 0
        # ... inside it, the exact value is used.
        survivors = lsh.candidate_pairs(list(pair))
        second = filtered_relatedness(memo, survivors, *pair)
        assert second == lsh.relatedness(*pair) > first
