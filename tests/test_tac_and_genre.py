"""Tests for the TAC-KBP-style protocol."""

import pytest

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.eval.tac import evaluate_tac, queries_from_corpus
from repro.types import OUT_OF_KB


class TestQueriesFromCorpus:
    def test_one_query_per_gold_mention(self, sample_docs):
        queries = queries_from_corpus(sample_docs)
        expected = sum(len(doc.gold) for doc in sample_docs)
        assert len(queries) == expected

    def test_nil_queries_carry_clusters(self, sample_docs):
        queries = queries_from_corpus(sample_docs)
        for query in queries:
            if query.gold_entity == OUT_OF_KB:
                assert query.gold_nil_cluster is not None
            else:
                assert query.gold_nil_cluster is None

    def test_custom_nil_cluster_fn(self, sample_docs):
        queries = queries_from_corpus(
            sample_docs, nil_cluster_of=lambda doc, ann: "X"
        )
        nil_clusters = {
            q.gold_nil_cluster
            for q in queries
            if q.gold_entity == OUT_OF_KB
        }
        assert nil_clusters <= {"X"}


class TestEvaluateTac:
    @pytest.fixture(scope="class")
    def tac_run(self, kb, sample_docs):
        pipeline = AidaDisambiguator(
            kb, config=AidaConfig.robust_prior_sim()
        )
        queries = queries_from_corpus(sample_docs)
        return evaluate_tac(pipeline, queries), queries

    def test_totals_add_up(self, tac_run):
        result, queries = tac_run
        assert result.total == len(queries)
        assert result.in_kb_total + result.nil_total == result.total
        assert result.correct == (
            result.in_kb_correct + result.nil_correct
        )

    def test_accuracy_reasonable(self, tac_run):
        result, _queries = tac_run
        assert result.accuracy > 0.5
        assert 0.0 <= result.in_kb_accuracy <= 1.0
        assert 0.0 <= result.nil_accuracy <= 1.0

    def test_b3_bounds(self, tac_run):
        result, _queries = tac_run
        assert 0.0 <= result.b3_precision <= 1.0
        assert 0.0 <= result.b3_recall <= 1.0
        assert 0.0 <= result.b3_f1 <= 1.0

    def test_empty_run(self, kb):
        pipeline = AidaDisambiguator(kb)
        result = evaluate_tac(pipeline, [])
        assert result.total == 0
        assert result.accuracy == 0.0
