"""Embedding similarity/relatedness: interface conformance and bounds."""

from __future__ import annotations

import pytest

from repro.embeddings import (
    EmbeddingConfig,
    EmbeddingRelatedness,
    EmbeddingSimilarity,
    shared_model,
)
from repro.relatedness.caching import CachingRelatedness
from repro.similarity.context import DocumentContext
from repro.types import Document


@pytest.fixture(scope="module")
def model(kb):
    return shared_model(kb, EmbeddingConfig(dim=16, epochs=1))


@pytest.fixture(scope="module")
def context(kb, sample_docs):
    return DocumentContext(sample_docs[0].document)


class TestSimilarity:
    def test_simscores_matches_simscore(self, kb, model, context):
        similarity = EmbeddingSimilarity(model)
        candidates = sorted(kb.entity_ids())[:8]
        batch = similarity.simscores(context, candidates)
        assert set(batch) == set(candidates)
        for entity_id in candidates:
            assert batch[entity_id] == pytest.approx(
                similarity.simscore(context, entity_id)
            )

    def test_scores_bounded(self, kb, model, context):
        similarity = EmbeddingSimilarity(model)
        scores = similarity.simscores(context, sorted(kb.entity_ids()))
        assert all(0.0 <= value <= 1.0 + 1e-6 for value in scores.values())

    def test_unknown_entity_scores_zero(self, model, context):
        similarity = EmbeddingSimilarity(model)
        assert similarity.simscore(context, "ZZ_not_in_kb") == 0.0
        assert similarity.simscores(context, ["ZZ_not_in_kb"]) == {
            "ZZ_not_in_kb": 0.0
        }

    def test_query_cached_per_context_identity(self, model, context):
        similarity = EmbeddingSimilarity(model)
        first = similarity._query(context)
        assert similarity._query(context) is first
        other = DocumentContext(
            Document(doc_id="other", tokens=("different", "words"))
        )
        assert similarity._query(other) is not first


class TestRelatedness:
    def test_bounds_and_symmetry(self, kb, model):
        measure = EmbeddingRelatedness(model)
        entities = sorted(kb.entity_ids())[:6]
        for i, a in enumerate(entities):
            for b in entities[i + 1 :]:
                value = measure.relatedness(a, b)
                assert 0.0 <= value <= 1.0
                assert measure.relatedness(b, a) == value

    def test_self_relatedness_is_one(self, kb, model):
        measure = EmbeddingRelatedness(model)
        entity = sorted(kb.entity_ids())[0]
        assert measure.relatedness(entity, entity) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_unknown_entity_is_unrelated(self, kb, model):
        measure = EmbeddingRelatedness(model)
        entity = sorted(kb.entity_ids())[0]
        assert measure.relatedness(entity, "ZZ_not_in_kb") == 0.0

    def test_cacheable_behind_lru(self, kb, model):
        measure = EmbeddingRelatedness(model)
        cached = CachingRelatedness(EmbeddingRelatedness(model))
        entities = sorted(kb.entity_ids())[:5]
        for i, a in enumerate(entities):
            for b in entities[i + 1 :]:
                assert cached.relatedness(a, b) == measure.relatedness(a, b)
        stats = cached.cache_stats()
        # Re-query: every pair must now come from the memo.
        for i, a in enumerate(entities):
            for b in entities[i + 1 :]:
                cached.relatedness(a, b)
        assert cached.cache_stats().hits > stats.hits

    def test_name_for_telemetry(self, model):
        assert EmbeddingRelatedness(model).name == "EMB"
