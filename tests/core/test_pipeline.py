"""Tests for the AIDA pipeline on a hand-built Page/Kashmir scenario.

The fixture reproduces the paper's running example: "Page" is dominated by
the executive in the prior but the guitarist fits rock contexts; "Kashmir"
is dominated by the region but coherence with the guitarist identifies the
song.
"""

import pytest

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.kb.entity import Entity
from repro.kb.knowledge_base import KnowledgeBase
from repro.types import Document, Mention, OUT_OF_KB


def _build_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    entities = [
        ("Jimmy_Page", "Jimmy Page", ("guitarist",)),
        ("Larry_Page", "Larry Page", ("executive",)),
        ("Kashmir_Song", "Kashmir (song)", ("song",)),
        ("Kashmir_Region", "Kashmir (region)", ("region",)),
        ("Led_Zeppelin", "Led Zeppelin", ("band",)),
        ("Search_Co", "Search Co", ("company",)),
    ]
    for entity_id, name, types in entities:
        kb.add_entity(
            Entity(entity_id=entity_id, canonical_name=name, types=types)
        )
    d = kb.dictionary
    d.add_name("Page", "Larry_Page", source="anchor", anchor_count=70)
    d.add_name("Page", "Jimmy_Page", source="anchor", anchor_count=30)
    d.add_name("Kashmir", "Kashmir_Region", source="anchor", anchor_count=91)
    d.add_name("Kashmir", "Kashmir_Song", source="anchor", anchor_count=9)
    d.add_name("Zeppelin", "Led_Zeppelin", source="anchor", anchor_count=10)
    kp = kb.keyphrases
    kp.add_keyphrase("Jimmy_Page", ("gibson", "guitar"), 3)
    kp.add_keyphrase("Jimmy_Page", ("hard", "rock"), 2)
    kp.add_keyphrase("Jimmy_Page", ("led", "zeppelin"), 2)
    kp.add_keyphrase("Larry_Page", ("search", "engine"), 3)
    kp.add_keyphrase("Larry_Page", ("internet", "company"), 2)
    kp.add_keyphrase("Kashmir_Song", ("led", "zeppelin"), 2)
    kp.add_keyphrase("Kashmir_Song", ("hard", "rock"), 1)
    kp.add_keyphrase("Kashmir_Song", ("unusual", "chords"), 1)
    kp.add_keyphrase("Kashmir_Region", ("himalaya", "mountains"), 3)
    kp.add_keyphrase("Kashmir_Region", ("border", "conflict"), 2)
    kp.add_keyphrase("Led_Zeppelin", ("hard", "rock"), 2)
    kp.add_keyphrase("Led_Zeppelin", ("english", "band"), 2)
    kp.add_keyphrase("Search_Co", ("search", "engine"), 2)
    kp.add_keyphrase("Search_Co", ("web", "index"), 1)
    # Link structure: rock entities share inlinkers; so do tech entities.
    for linker in ("Led_Zeppelin", "Search_Co"):
        pass
    kb.links.add_link("Led_Zeppelin", "Jimmy_Page")
    kb.links.add_link("Led_Zeppelin", "Kashmir_Song")
    kb.links.add_link("Kashmir_Song", "Jimmy_Page")
    kb.links.add_link("Jimmy_Page", "Kashmir_Song")
    kb.links.add_link("Jimmy_Page", "Led_Zeppelin")
    kb.links.add_link("Search_Co", "Larry_Page")
    kb.links.add_link("Larry_Page", "Search_Co")
    return kb


def _doc(tokens, surfaces):
    """Build a document whose mentions are the given (surface, position)
    pairs; positions are token offsets of single-token mentions."""
    mentions = tuple(
        Mention(surface=surface, start=pos, end=pos + 1)
        for surface, pos in surfaces
    )
    return Document(doc_id="t", tokens=tuple(tokens), mentions=mentions)


@pytest.fixture(scope="module")
def kb():
    return _build_kb()


class TestSimilarityOnly:
    def test_context_resolves_page(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.sim_only())
        doc = _doc(
            ["Page", "played", "unusual", "chords", "on", "his",
             "gibson", "guitar", "."],
            [("Page", 0)],
        )
        result = aida.disambiguate(doc)
        assert result.assignments[0].entity == "Jimmy_Page"

    def test_tech_context_resolves_other_page(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.sim_only())
        doc = _doc(
            ["Page", "built", "a", "search", "engine", "for", "the",
             "internet", "company", "."],
            [("Page", 0)],
        )
        result = aida.disambiguate(doc)
        assert result.assignments[0].entity == "Larry_Page"


class TestPriorModes:
    def test_prior_only_follows_popularity(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.prior_only())
        doc = _doc(
            ["Kashmir", "has", "hard", "rock", "chords", "."],
            [("Kashmir", 0)],
        )
        result = aida.disambiguate(doc)
        assert result.assignments[0].entity == "Kashmir_Region"

    def test_prior_test_blocks_misleading_prior(self, kb):
        # "Page" has a 70/30 prior (< rho = 0.9): the prior is disregarded
        # and context wins.
        aida = AidaDisambiguator(kb, config=AidaConfig.robust_prior_sim())
        doc = _doc(
            ["Page", "played", "hard", "rock", "on", "a", "gibson",
             "guitar", "."],
            [("Page", 0)],
        )
        result = aida.disambiguate(doc)
        assert result.assignments[0].entity == "Jimmy_Page"

    def test_prior_test_keeps_dominant_prior(self, kb):
        # "Kashmir" has a 91/9 prior (>= rho): with no context at all the
        # prior-backed region wins.
        aida = AidaDisambiguator(kb, config=AidaConfig.robust_prior_sim())
        doc = _doc(
            ["Kashmir", "was", "mentioned", "."],
            [("Kashmir", 0)],
        )
        result = aida.disambiguate(doc)
        assert result.assignments[0].entity == "Kashmir_Region"


class TestCoherence:
    def test_joint_disambiguation_example(self, kb):
        # The paper's example: "They performed Kashmir, written by Page."
        # Kashmir alone would go to the region; coherence with Jimmy Page
        # (identified by his guitar context) pulls it to the song.
        aida = AidaDisambiguator(kb, config=AidaConfig.full())
        doc = _doc(
            ["They", "performed", "Kashmir", "written", "by", "Page", ".",
             "Page", "played", "unusual", "chords", "on", "his", "gibson",
             "guitar", "and", "hard", "rock", "with", "led", "zeppelin",
             "."],
            [("Kashmir", 2), ("Page", 5)],
        )
        result = aida.disambiguate(doc)
        as_map = {a.mention.surface: a.entity for a in result.assignments}
        assert as_map["Page"] == "Jimmy_Page"
        assert as_map["Kashmir"] == "Kashmir_Song"

    def test_candidate_scores_populated(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.full())
        doc = _doc(
            ["Page", "played", "gibson", "guitar", "."], [("Page", 0)]
        )
        result = aida.disambiguate(doc)
        scores = result.assignments[0].candidate_scores
        assert set(scores) == {"Jimmy_Page", "Larry_Page"}


class TestHooks:
    def test_out_of_kb_for_unknown_name(self, kb):
        aida = AidaDisambiguator(kb)
        doc = _doc(["Snowden", "spoke", "."], [("Snowden", 0)])
        result = aida.disambiguate(doc)
        assert result.assignments[0].entity == OUT_OF_KB

    def test_restrict_to_subset(self, kb):
        aida = AidaDisambiguator(kb)
        doc = _doc(
            ["Kashmir", "and", "Page", "met", "."],
            [("Kashmir", 0), ("Page", 2)],
        )
        result = aida.disambiguate(doc, restrict_to=[1])
        assert len(result.assignments) == 1
        assert result.assignments[0].mention.surface == "Page"

    def test_fixed_pins_entity(self, kb):
        aida = AidaDisambiguator(kb)
        doc = _doc(["Page", "did", "things", "."], [("Page", 0)])
        result = aida.disambiguate(doc, fixed={0: "Larry_Page"})
        assert result.assignments[0].entity == "Larry_Page"

    def test_extra_candidates_join_pool(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.sim_only())
        doc = _doc(["Page", "spoke", "."], [("Page", 0)])
        result = aida.disambiguate(
            doc, extra_candidates={0: ["Custom_Entity"]}
        )
        assert "Custom_Entity" in result.assignments[0].candidate_scores

    def test_entity_edge_factor_dampens(self, kb):
        # Disable the coherence test so the mention is not pre-fixed
        # before the damping factor can act on the graph.
        aida = AidaDisambiguator(
            kb, config=AidaConfig.robust_prior_sim_coherence()
        )
        # Strong guitarist context plus a trace of executive context, so
        # both candidates carry weight and damping one flips the outcome.
        doc = _doc(
            ["Page", "played", "gibson", "guitar", "hard", "rock",
             "near", "a", "search", "engine", "."],
            [("Page", 0)],
        )
        baseline = aida.disambiguate(doc)
        dampened = aida.disambiguate(
            doc, entity_edge_factor={"Jimmy_Page": 0.0}
        )
        assert baseline.assignments[0].entity == "Jimmy_Page"
        assert dampened.assignments[0].entity == "Larry_Page"

    def test_deterministic(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.full())
        doc = _doc(
            ["Kashmir", "played", "by", "Page", "on", "gibson", "guitar",
             "."],
            [("Kashmir", 0), ("Page", 3)],
        )
        first = aida.disambiguate(doc).as_map()
        second = aida.disambiguate(doc).as_map()
        assert first == second


class TestPipelineStats:
    def test_stats_attached_with_coherence(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.full())
        doc = _doc(
            ["Kashmir", "played", "by", "Page", "on", "gibson", "guitar",
             "."],
            [("Kashmir", 0), ("Page", 3)],
        )
        result = aida.disambiguate(doc)
        stats = result.stats
        assert stats is not None
        for phase in (
            "candidate_retrieval",
            "feature_computation",
            "graph_build",
            "solve",
            "post_process",
        ):
            assert stats.phase_seconds[phase] >= 0.0
        assert stats.counters["mentions"] == 2
        assert stats.counters["candidates"] >= 2
        assert stats.counters["graph_entities"] >= 2
        assert stats.counters["solver_iterations"] >= 0
        assert stats.counters["solver_heap_pops"] >= 0
        assert stats.total_seconds == pytest.approx(
            sum(stats.phase_seconds.values())
        )
        assert set(stats.as_dict()) == {
            "phase_seconds",
            "total_seconds",
            "counters",
        }

    def test_stats_without_coherence(self, kb):
        aida = AidaDisambiguator(kb, config=AidaConfig.sim_only())
        doc = _doc(
            ["Page", "played", "gibson", "guitar", "."],
            [("Page", 0)],
        )
        result = aida.disambiguate(doc)
        stats = result.stats
        assert stats is not None
        assert "solve" in stats.phase_seconds
        assert "graph_build" not in stats.phase_seconds
        assert "solver_iterations" not in stats.counters
