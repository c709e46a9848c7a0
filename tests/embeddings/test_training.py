"""Embedding training: determinism, shapes, corpus, sharing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings import (
    EmbeddingConfig,
    build_corpus,
    shared_model,
    train_embeddings,
)
from repro.errors import ConfigurationError

#: Small-but-real training setup shared across the module; one epoch
#: keeps the session KB's training well under a second.
FAST = EmbeddingConfig(dim=16, epochs=1)


@pytest.fixture(scope="module")
def model(kb):
    return train_embeddings(kb, FAST)


class TestDeterminism:
    def test_same_seed_byte_identical(self, kb, model):
        again = train_embeddings(kb, FAST)
        assert (
            again.word_vectors.tobytes() == model.word_vectors.tobytes()
        )
        assert (
            again.entity_vectors.tobytes()
            == model.entity_vectors.tobytes()
        )
        assert again.fingerprint() == model.fingerprint()

    def test_different_seed_differs(self, kb, model):
        other = train_embeddings(
            kb, EmbeddingConfig(dim=16, epochs=1, seed=FAST.seed + 1)
        )
        assert other.fingerprint() != model.fingerprint()


class TestShapes:
    def test_row_alignment_and_order(self, kb, model):
        assert model.entity_ids == sorted(kb.entity_ids())
        assert model.words == sorted(set(model.words))
        assert model.word_vectors.shape == (len(model.words), 16)
        assert model.entity_vectors.shape == (len(model.entity_ids), 16)
        assert model.word_vectors.dtype == np.float32
        assert model.entity_vectors.dtype == np.float32

    def test_rows_unit_normalized(self, model):
        for matrix in (model.word_vectors, model.entity_vectors):
            norms = np.linalg.norm(matrix, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-5)

    def test_meta_carries_provenance(self, model):
        assert model.meta["config"]["dim"] == 16
        assert model.meta["sentences"] > 0
        assert model.meta["pairs"] > 0


class TestCorpus:
    def test_every_entity_sentenced(self, kb):
        sentences = build_corpus(kb, FAST)
        starts = {
            token[1]
            for sentence in sentences
            for token in sentence
            if token[0] == "e"
        }
        assert starts == set(kb.entity_ids())

    def test_mixed_namespace(self, kb):
        sentences = build_corpus(kb, FAST)
        kinds = {
            token[0] for sentence in sentences for token in sentence
        }
        assert kinds == {"w", "e"}

    def test_link_neighborhood_capped(self, kb):
        capped = EmbeddingConfig(dim=16, epochs=1, max_link_neighbors=2)
        sentences = build_corpus(kb, capped)
        for sentence in sentences:
            entity_tokens = [t for t in sentence if t[0] == "e"]
            # A link sentence is all-entity: the anchor plus neighbors.
            if len(entity_tokens) == len(sentence):
                assert len(sentence) <= 1 + 2

    def test_deterministic(self, kb):
        assert build_corpus(kb, FAST) == build_corpus(kb, FAST)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"negatives": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"max_phrase_repeats": 0},
            {"max_link_neighbors": -1},
        ],
    )
    def test_bad_knob_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EmbeddingConfig(**kwargs)


class TestSharedModel:
    def test_memoized_per_kb_and_config(self, kb):
        first = shared_model(kb, FAST)
        assert shared_model(kb, FAST) is first
        other = shared_model(
            kb, EmbeddingConfig(dim=16, epochs=1, seed=FAST.seed + 7)
        )
        assert other is not first
