"""Pre-ranker wired into the pipeline: stages, counters, exactness."""

from __future__ import annotations

import pytest

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.embeddings import EmbeddingConfig, shared_model
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, set_metrics

HUGE_K = 10 ** 6


def _config(**kwargs) -> AidaConfig:
    config = AidaConfig.full()
    for key, value in kwargs.items():
        setattr(config, key, value)
    config.validate()
    return config


def _comparable(result):
    return [
        (a.mention, a.entity, a.score) for a in result.assignments
    ]


@pytest.fixture(scope="module")
def model(kb):
    return shared_model(kb, EmbeddingConfig(dim=16, epochs=1))


class TestConfig:
    def test_prerank_topk_validated(self):
        with pytest.raises(ConfigurationError):
            AidaConfig(prerank_topk=0)

    def test_needs_embeddings(self):
        assert not AidaConfig.full().needs_embeddings
        assert AidaConfig(prerank_topk=4).needs_embeddings
        assert AidaConfig(prerank_topk=1).needs_embeddings


class TestStageAndCounters:
    def test_prerank_stage_absent_when_off(self, kb, sample_docs):
        pipeline = AidaDisambiguator(kb, config=_config())
        result = pipeline.disambiguate(sample_docs[0].document)
        assert "prerank" not in result.stats.phase_seconds
        assert "prerank_pruned" not in result.stats.counters

    def test_prerank_stage_present_when_on(
        self, kb, sample_docs, model
    ):
        pipeline = AidaDisambiguator(
            kb, config=_config(prerank_topk=1), embedding_model=model
        )
        result = pipeline.disambiguate(sample_docs[0].document)
        assert "prerank" in result.stats.phase_seconds
        counters = result.stats.counters
        assert counters["prerank_pruned"] >= 0
        assert counters["prerank_survived"] >= 1

    def test_k1_prunes_on_ambiguous_docs(self, kb, sample_docs, model):
        pipeline = AidaDisambiguator(
            kb, config=_config(prerank_topk=1), embedding_model=model
        )
        pruned = sum(
            pipeline.disambiguate(doc.document).stats.counters[
                "prerank_pruned"
            ]
            for doc in sample_docs
        )
        assert pruned > 0

    def test_metrics_published_only_when_active(
        self, kb, sample_docs, model
    ):
        previous = set_metrics(MetricsRegistry())
        try:
            pipeline = AidaDisambiguator(
                kb, config=_config(prerank_topk=1), embedding_model=model
            )
            pipeline.disambiguate(sample_docs[0].document)
            snapshot = set_metrics(MetricsRegistry()).snapshot()
            assert "pipeline.prerank.pruned" in snapshot["counters"]
            assert "pipeline.prerank.survived" in snapshot["counters"]
            assert (
                "pipeline.stage.prerank.seconds" in snapshot["histograms"]
            )

            AidaDisambiguator(kb, config=_config()).disambiguate(
                sample_docs[0].document
            )
            snapshot = set_metrics(previous).snapshot()
            assert "pipeline.prerank.pruned" not in snapshot["counters"]
            assert (
                "pipeline.stage.prerank.seconds"
                not in snapshot["histograms"]
            )
        finally:
            set_metrics(previous)


class TestExactness:
    def test_huge_k_bit_identical(self, kb, sample_docs, model):
        baseline = AidaDisambiguator(kb, config=_config())
        pruned = AidaDisambiguator(
            kb,
            config=_config(prerank_topk=HUGE_K),
            embedding_model=model,
        )
        for doc in sample_docs:
            assert _comparable(
                pruned.disambiguate(doc.document)
            ) == _comparable(baseline.disambiguate(doc.document))

    def test_fixed_mentions_respected_under_pruning(
        self, kb, sample_docs, model
    ):
        pipeline = AidaDisambiguator(
            kb, config=_config(prerank_topk=1), embedding_model=model
        )
        document = sample_docs[0].document
        gold = sample_docs[0].gold
        fixed = {0: gold[0].entity}
        result = pipeline.disambiguate(document, fixed=fixed)
        by_mention = {a.mention: a.entity for a in result.assignments}
        assert by_mention[gold[0].mention] == gold[0].entity


class TestEmbeddingBackends:
    def test_explicit_model_used_verbatim(self, kb, model):
        pipeline = AidaDisambiguator(
            kb, config=_config(prerank_topk=4), embedding_model=model
        )
        assert pipeline.embeddings is model
        assert pipeline.preranker.model is model

    def test_shared_model_reused_across_pipelines(self, kb):
        first = AidaDisambiguator(kb, config=_config(prerank_topk=4))
        second = AidaDisambiguator(kb, config=_config(prerank_topk=2))
        assert first.embeddings is second.embeddings
