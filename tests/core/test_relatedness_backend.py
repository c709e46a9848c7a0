"""The selectable coherence backend (``AidaConfig.relatedness_backend``).

End-to-end wiring of the KORE_LSH production path: config validation, the
backend factory, KB-wide sketch precomputation at pipeline construction,
compiled-model attachment through the wrapper chain, and the
``relatedness.lsh.*`` observability counters.
"""

import pytest

from repro.core.config import RELATEDNESS_BACKENDS, AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, set_metrics
from repro.relatedness import (
    CachingRelatedness,
    KoreLshRelatedness,
    KoreRelatedness,
    MilneWittenRelatedness,
)


class TestConfigValidation:
    def test_default_is_milne_witten(self):
        assert AidaConfig().relatedness_backend == "mw"

    @pytest.mark.parametrize("backend", RELATEDNESS_BACKENDS)
    def test_known_backends_accepted(self, backend):
        config = AidaConfig(relatedness_backend=backend)
        assert config.relatedness_backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            AidaConfig(relatedness_backend="bogus")


class TestBackendFactory:
    def test_mw(self, kb):
        measure = AidaDisambiguator.build_relatedness(kb, AidaConfig())
        assert isinstance(measure, MilneWittenRelatedness)

    def test_kore(self, kb):
        measure = AidaDisambiguator.build_relatedness(
            kb, AidaConfig(relatedness_backend="kore")
        )
        assert isinstance(measure, KoreRelatedness)

    @pytest.mark.parametrize(
        "backend,name,rows",
        [("kore_lsh_g", "KORE_LSH-G", 1), ("kore_lsh_f", "KORE_LSH-F", 2)],
    )
    def test_lsh_parameterizations(self, kb, backend, name, rows):
        measure = AidaDisambiguator.build_relatedness(
            kb, AidaConfig(relatedness_backend=backend)
        )
        assert isinstance(measure, KoreLshRelatedness)
        assert measure.name == name
        assert measure.settings.entity_rows == rows

    def test_sketches_passed_through(self, kb):
        config = AidaConfig(relatedness_backend="kore_lsh_g")
        donor = AidaDisambiguator.build_relatedness(kb, config)
        donor.precompute()
        receiver = AidaDisambiguator.build_relatedness(
            kb, config, sketches=donor.export_sketches()
        )
        assert (
            receiver.export_sketches() == donor.export_sketches()
        )


class TestPipelineWiring:
    def test_sketches_precomputed_kb_wide(self, kb):
        pipeline = AidaDisambiguator(
            kb, config=AidaConfig(relatedness_backend="kore_lsh_g")
        )
        measure = pipeline.relatedness.inner
        assert isinstance(measure, KoreLshRelatedness)
        sketched = set(measure.export_sketches())
        assert sketched >= set(kb.keyphrases.entity_ids())

    def test_compiled_attached_through_chain(self, kb):
        pipeline = AidaDisambiguator(
            kb, config=AidaConfig(relatedness_backend="kore_lsh_g")
        )
        assert pipeline.compiled is not None
        # The pipeline's memo wraps the LSH measure, which wraps KORE.
        kore = pipeline.relatedness.inner.inner
        assert kore.compiled is pipeline.compiled

    def test_compiled_attached_through_cache_wrapper(self, kb):
        config = AidaConfig(relatedness_backend="kore_lsh_g")
        wrapped = CachingRelatedness(
            AidaDisambiguator.build_relatedness(kb, config)
        )
        pipeline = AidaDisambiguator(kb, relatedness=wrapped, config=config)
        assert wrapped.inner.inner.compiled is pipeline.compiled

    def test_lsh_disambiguation_runs(self, kb, sample_docs):
        pipeline = AidaDisambiguator(
            kb, config=AidaConfig(relatedness_backend="kore_lsh_g")
        )
        result = pipeline.disambiguate(sample_docs[0].document)
        assert result.assignments
        measure = pipeline.relatedness.inner
        assert measure.prepared_tasks == 1
        assert measure.pruned_pairs + measure.survived_pairs > 0

    def test_lsh_computes_no_more_than_exact_kore(self, kb, sample_docs):
        exact = AidaDisambiguator(
            kb, config=AidaConfig(relatedness_backend="kore")
        )
        pruned = AidaDisambiguator(
            kb, config=AidaConfig(relatedness_backend="kore_lsh_g")
        )
        for annotated in sample_docs[:3]:
            exact.disambiguate(annotated.document)
            pruned.disambiguate(annotated.document)
        assert (
            pruned.relatedness.comparisons <= exact.relatedness.comparisons
        )

    def test_lsh_counters_published(self, kb, sample_docs):
        previous = set_metrics(MetricsRegistry())
        try:
            pipeline = AidaDisambiguator(
                kb, config=AidaConfig(relatedness_backend="kore_lsh_f")
            )
            pipeline.disambiguate(sample_docs[0].document)
            snapshot = set_metrics(previous).snapshot()
        except BaseException:
            set_metrics(previous)
            raise
        counters = snapshot["counters"]
        assert "relatedness.lsh.pruned" in counters
        assert "relatedness.lsh.survived" in counters
        assert (
            counters["relatedness.lsh.pruned"]
            + counters["relatedness.lsh.survived"]
            > 0
        )
        histograms = snapshot["histograms"]
        assert histograms["relatedness.lsh.prepare_ms"]["count"] >= 1
