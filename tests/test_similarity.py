"""Tests for document context, prior, and keyphrase cover matching.

``TestPhraseCover`` and ``TestScorePhrase`` pin the string/dict cover
oracle (``tests/oracles/cover.py``) to the paper's Eq. 3.4 examples; the
compiled scorer is held to that oracle by the differential suites.
"""

import pytest

from repro.kb.keyphrases import KeyphraseStore
from repro.similarity.context import DocumentContext
from repro.similarity.keyphrase_match import KeyphraseSimilarity
from repro.similarity.prior import PopularityPrior
from repro.kb.entity import Entity
from repro.kb.knowledge_base import KnowledgeBase
from repro.types import Document, Mention
from repro.weights.model import WeightModel
from tests.oracles.cover import phrase_cover, score_phrase


def _doc(tokens, mentions=()):
    return Document(doc_id="d", tokens=tuple(tokens), mentions=tuple(mentions))


class TestDocumentContext:
    def test_stopwords_excluded(self):
        ctx = DocumentContext(_doc(["the", "guitar", "of", "Page"]))
        assert "the" not in ctx
        assert "guitar" in ctx

    def test_mention_tokens_excluded(self):
        mention = Mention(surface="Page", start=3, end=4)
        ctx = DocumentContext(
            _doc(["the", "guitar", "of", "Page"]), exclude_mention=mention
        )
        assert "page" not in ctx
        assert "guitar" in ctx

    def test_positions(self):
        ctx = DocumentContext(_doc(["rock", "guitar", "rock"]))
        assert ctx.positions("rock") == [0, 2]

    def test_occurrences_sorted(self):
        ctx = DocumentContext(_doc(["beta", "alpha", "beta"]))
        occs = ctx.occurrences(["alpha", "beta"])
        assert occs == [(0, "beta"), (1, "alpha"), (2, "beta")]

    def test_term_counts(self):
        ctx = DocumentContext(_doc(["rock", "rock", "guitar"]))
        assert ctx.term_counts() == {"rock": 2, "guitar": 1}


class TestPhraseCover:
    def test_full_match_tight_window(self):
        ctx = DocumentContext(_doc(["grammy", "award", "winner"]))
        cover = phrase_cover(ctx, ("grammy", "award", "winner"))
        assert cover.length == 3
        assert cover.match_count == 3

    def test_partial_match(self):
        # "Grammy award winner" matching "winner of many prizes including
        # the Grammy" (Section 3.3.4's example): 2 of 3 words in a window.
        ctx = DocumentContext(
            _doc(
                "winner of many prizes including the grammy".split()
            )
        )
        cover = phrase_cover(ctx, ("grammy", "award", "winner"))
        assert cover.match_count == 2
        assert set(cover.matched_words) == {"grammy", "winner"}
        # winner@0 .. grammy@6, with stopwords removed the window spans
        # positions 0..6 of the original token offsets.
        assert cover.length == 7

    def test_no_match_returns_none(self):
        ctx = DocumentContext(_doc(["unrelated", "words"]))
        assert phrase_cover(ctx, ("grammy", "award")) is None

    def test_shortest_window_found(self):
        # Two possible windows; the tighter one must win.
        tokens = ["alpha", "x", "x", "x", "beta", "alpha", "beta"]
        ctx = DocumentContext(_doc(tokens))
        cover = phrase_cover(ctx, ("alpha", "beta"))
        # The minimal window has length 2 (beta@4..alpha@5 or
        # alpha@5..beta@6), not the spread alpha@0..beta@4 one.
        assert cover.length == 2

    def test_repeated_word_phrase(self):
        ctx = DocumentContext(_doc(["rock", "rock"]))
        cover = phrase_cover(ctx, ("rock", "rock"))
        assert cover.match_count == 1  # distinct words

    def test_repeated_word_does_not_widen_window(self):
        # ("rock", "rock", "guitar") needs one rock + one guitar, not two
        # rocks: the duplicate must not force a wider window.
        tokens = ["rock", "x", "x", "x", "rock", "guitar"]
        ctx = DocumentContext(_doc(tokens))
        cover = phrase_cover(ctx, ("rock", "rock", "guitar"))
        assert cover.match_count == 2
        assert (cover.start, cover.end) == (4, 5)

    def test_single_word_phrase_first_occurrence(self):
        ctx = DocumentContext(_doc(["x", "guitar", "x", "guitar"]))
        cover = phrase_cover(ctx, ("guitar",))
        assert (cover.start, cover.end) == (1, 1)
        assert cover.length == 1
        assert cover.match_count == 1

    def test_all_words_absent(self):
        # Words exist nowhere in the document: no cover at all, even
        # though the phrase has several words.
        ctx = DocumentContext(_doc(["something", "else", "entirely"]))
        assert phrase_cover(ctx, ("grammy", "award", "winner")) is None

    def test_words_only_at_document_boundaries(self):
        # Matches at the first and last token: the window must span the
        # whole document without off-by-one at either edge.
        tokens = ["grammy"] + ["x"] * 5 + ["winner"]
        ctx = DocumentContext(_doc(tokens))
        cover = phrase_cover(ctx, ("grammy", "winner"))
        assert (cover.start, cover.end) == (0, len(tokens) - 1)
        assert cover.length == len(tokens)


class TestScorePhrase:
    WEIGHTS = {"grammy": 2.0, "award": 1.0, "winner": 1.0}

    def test_exact_match_scores_one(self):
        ctx = DocumentContext(_doc(["grammy", "award", "winner"]))
        score = score_phrase(ctx, ("grammy", "award", "winner"), self.WEIGHTS)
        assert score == pytest.approx(1.0)

    def test_partial_match_penalized_superlinearly(self):
        ctx = DocumentContext(_doc(["grammy", "winner"]))
        score = score_phrase(ctx, ("grammy", "award", "winner"), self.WEIGHTS)
        # matched weight 3 of 4, z = 2/2 = 1 -> (3/4)^2
        assert score == pytest.approx((3 / 4) ** 2)

    def test_spread_match_penalized_by_cover_length(self):
        ctx = DocumentContext(_doc(["grammy", "x", "x", "winner"]))
        score = score_phrase(ctx, ("grammy", "winner"), {"grammy": 1.0, "winner": 1.0})
        assert score == pytest.approx(2 / 4)  # z = 2/4, full weight ratio

    def test_zero_weight_phrase(self):
        ctx = DocumentContext(_doc(["grammy"]))
        assert score_phrase(ctx, ("grammy",), {}) == 0.0

    def test_no_occurrence(self):
        ctx = DocumentContext(_doc(["nothing"]))
        assert score_phrase(ctx, ("grammy",), self.WEIGHTS) == 0.0


class TestKeyphraseSimilarity:
    @pytest.fixture
    def setup(self):
        store = KeyphraseStore()
        store.add_keyphrase("Jimmy_Page", ("gibson", "guitar"))
        store.add_keyphrase("Jimmy_Page", ("hard", "rock"))
        store.add_keyphrase("Larry_Page", ("search", "engine"))
        store.add_keyphrase("Larry_Page", ("internet", "company"))
        weights = WeightModel(store, links=None, collection_size=10)
        return store, weights

    def test_matching_context_scores_higher(self, setup):
        store, weights = setup
        sim = KeyphraseSimilarity(store, weights)
        ctx = DocumentContext(
            _doc(["he", "played", "gibson", "guitar", "hard", "rock"])
        )
        scores = sim.simscores(ctx, ["Jimmy_Page", "Larry_Page"])
        assert scores["Jimmy_Page"] > scores["Larry_Page"]

    def test_no_context_scores_zero(self, setup):
        store, weights = setup
        sim = KeyphraseSimilarity(store, weights)
        ctx = DocumentContext(_doc(["completely", "unrelated"]))
        assert sim.simscore(ctx, "Jimmy_Page") == 0.0

    def test_idf_scheme(self, setup):
        store, weights = setup
        sim = KeyphraseSimilarity(store, weights, weight_scheme="idf")
        ctx = DocumentContext(_doc(["gibson", "guitar"]))
        assert sim.simscore(ctx, "Jimmy_Page") > 0.0

    def test_invalid_scheme_rejected(self, setup):
        store, weights = setup
        with pytest.raises(ValueError):
            KeyphraseSimilarity(store, weights, weight_scheme="nope")

    def test_max_keyphrases_cap(self, setup):
        store, weights = setup
        sim = KeyphraseSimilarity(store, weights, max_keyphrases=1)
        assert len(sim.entity_phrases("Jimmy_Page")) == 1


class TestPopularityPrior:
    @pytest.fixture
    def kb(self):
        kb = KnowledgeBase()
        kb.add_entity(Entity(entity_id="A", canonical_name="Alpha One"))
        kb.add_entity(Entity(entity_id="B", canonical_name="Alpha Two"))
        kb.dictionary.add_name("Alpha", "A", source="anchor", anchor_count=3)
        kb.dictionary.add_name("Alpha", "B", source="anchor", anchor_count=1)
        return kb

    def test_best(self, kb):
        prior = PopularityPrior(kb)
        entity, p = prior.best("Alpha")
        assert entity == "A"
        assert p == pytest.approx(0.75)

    def test_best_of_unknown_name(self, kb):
        assert PopularityPrior(kb).best("Nothing") is None

    def test_ranked(self, kb):
        ranked = PopularityPrior(kb).ranked("Alpha")
        assert [eid for eid, _p in ranked] == ["A", "B"]


class TestDistanceDiscount:
    """The paper's reported negative result (Section 3.3.4): a distance
    discount on far-away context tokens is implemented but off by
    default."""

    @pytest.fixture
    def setup(self):
        store = KeyphraseStore()
        store.add_keyphrase("E1", ("gibson", "guitar"))
        store.add_keyphrase("E2", ("search", "engine"))
        weights = WeightModel(store, links=None, collection_size=10)
        return store, weights

    def test_discount_reduces_far_context(self, setup):
        store, weights = setup
        tokens = (
            ["Page", "spoke"]
            + ["filler"] * 30
            + ["gibson", "guitar"]
        )
        mention = Mention(surface="Page", start=0, end=1)
        doc = _doc(tokens, [mention])
        ctx = DocumentContext(doc, exclude_mention=mention)
        plain = KeyphraseSimilarity(store, weights)
        discounted = KeyphraseSimilarity(
            store, weights, distance_discount=4.0
        )
        assert discounted.simscore(ctx, "E1") < plain.simscore(ctx, "E1")

    def test_near_context_barely_affected(self, setup):
        store, weights = setup
        tokens = ["Page", "played", "gibson", "guitar", "."]
        mention = Mention(surface="Page", start=0, end=1)
        doc = _doc(tokens, [mention])
        ctx = DocumentContext(doc, exclude_mention=mention)
        plain = KeyphraseSimilarity(store, weights)
        discounted = KeyphraseSimilarity(
            store, weights, distance_discount=1.0
        )
        ratio = discounted.simscore(ctx, "E1") / plain.simscore(ctx, "E1")
        assert ratio > 0.6

    def test_no_mention_no_discount(self, setup):
        store, weights = setup
        ctx = DocumentContext(_doc(["gibson", "guitar"]))
        plain = KeyphraseSimilarity(store, weights)
        discounted = KeyphraseSimilarity(
            store, weights, distance_discount=5.0
        )
        assert discounted.simscore(ctx, "E1") == plain.simscore(
            ctx, "E1"
        )

    def test_negative_discount_rejected(self, setup):
        store, weights = setup
        with pytest.raises(ValueError):
            KeyphraseSimilarity(store, weights, distance_discount=-1.0)
