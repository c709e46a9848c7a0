"""Tests for domain adaptation (Section 7.2.3) and KB statistics."""

from collections import Counter

import pytest

from repro.core.adaptation import DomainAdaptiveDisambiguator
from repro.core.config import AidaConfig
from repro.datagen.documents import DocumentSpec
from repro.eval.runner import run_disambiguator


class TestDomainAdaptation:
    @pytest.fixture(scope="class")
    def adaptive(self, kb):
        return DomainAdaptiveDisambiguator(
            kb, config=AidaConfig.full(), boost=0.3
        )

    def test_profiles_cover_domains(self, world, adaptive):
        profiles = adaptive.domain_profiles()
        domains = {
            world.entity(eid).domain for eid in world.in_kb_ids()
        }
        assert set(profiles) == domains

    def test_profiles_normalized(self, adaptive):
        for profile in adaptive.domain_profiles().values():
            if profile:
                assert sum(profile.values()) == pytest.approx(1.0)

    def test_posterior_matches_document_domain(
        self, world, doc_generator, adaptive
    ):
        # A single-cluster document's inferred domain should usually be
        # the cluster's domain.
        hits = 0
        total = 0
        for cluster_id in sorted(world.clusters)[:8]:
            spec = DocumentSpec(
                doc_id=f"adapt-{cluster_id}",
                cluster_ids=[cluster_id],
                num_mentions=5,
                context_prob=0.9,
            )
            annotated = doc_generator.generate(spec)
            posterior = adaptive.domain_posterior(annotated.document)
            if not posterior:
                continue
            inferred = max(sorted(posterior), key=lambda d: posterior[d])
            total += 1
            if inferred == world.clusters[cluster_id].domain:
                hits += 1
        assert total > 0
        assert hits / total >= 0.6

    def test_accuracy_not_degraded(self, kb, world, doc_generator):
        docs = [
            doc_generator.generate(
                DocumentSpec(
                    doc_id=f"adapt-acc-{i}",
                    cluster_ids=[i % len(world.clusters)],
                    num_mentions=5,
                )
            )
            for i in range(10)
        ]
        from repro.core.pipeline import AidaDisambiguator

        plain = run_disambiguator(
            AidaDisambiguator(kb, config=AidaConfig.full()), docs, kb=kb
        )
        adaptive = run_disambiguator(
            DomainAdaptiveDisambiguator(
                kb, config=AidaConfig.full(), boost=0.3
            ),
            docs,
            kb=kb,
        )
        assert adaptive.micro >= plain.micro - 0.03

    def test_negative_boost_rejected(self, kb):
        with pytest.raises(ValueError):
            DomainAdaptiveDisambiguator(kb, boost=-1.0)

    def test_zero_boost_equals_plain(self, kb, sample_docs):
        from repro.core.pipeline import AidaDisambiguator

        plain = AidaDisambiguator(kb, config=AidaConfig.full())
        adaptive = DomainAdaptiveDisambiguator(
            kb, config=AidaConfig.full(), boost=0.0
        )
        document = sample_docs[0].document
        assert (
            plain.disambiguate(document).as_map()
            == adaptive.disambiguate(document).as_map()
        )


class TestStatistics:
    """Properties of the synthetic KB that the paper's experiments rely
    on, read straight off its dictionary and keyphrase store."""

    def test_ambiguity_histogram(self, kb):
        names = kb.dictionary.all_names()
        histogram = Counter(len(kb.candidates(name)) for name in names)
        assert sum(histogram.values()) == len(kb.dictionary)
        assert any(count >= 2 for count in histogram)  # ambiguity exists

    def test_keyphrase_length_near_paper(self, kb):
        # The paper reports an average keyphrase length of ~2.5 words;
        # the synthetic encyclopedia is built to the same ballpark.
        lengths = [
            len(phrase)
            for entity_id in kb.entity_ids()
            for phrase in kb.keyphrases.keyphrases(entity_id)
        ]
        assert lengths
        assert 1.0 <= sum(lengths) / len(lengths) <= 3.5
