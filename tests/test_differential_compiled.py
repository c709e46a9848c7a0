"""Differential: compiled scorers versus the oracles over seeded worlds.

Twenty seeded synthetic worlds (override the base seed with
``COMPILED_DIFF_BASE_SEED``): for each, every (mention context,
candidate) simscore and every candidate-pair KORE relatedness is
computed by both the string/dict oracles of ``tests/oracles/`` and the
compiled integer-array scorers, and the values must agree within 1e-9.
The golden fixture corpus gets the same treatment against the session
KB; ``tests/test_golden_regression.py`` pins the full pipeline's answers
on it.
"""

from __future__ import annotations

import os

import pytest

from repro.compiled import CompiledKeyphrases
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.io import load_corpus
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.relatedness.kore import KoreRelatedness
from repro.similarity.context import DocumentContext
from repro.similarity.keyphrase_match import KeyphraseSimilarity
from repro.weights.model import WeightModel
from tests.oracles.cover import ReferenceKeyphraseSimilarity
from tests.oracles.kore import ReferenceKoreRelatedness

BASE_SEED = int(os.environ.get("COMPILED_DIFF_BASE_SEED", "2203"))
WORLD_SEEDS = [BASE_SEED + i for i in range(20)]

DOCS_PER_WORLD = 2
MENTIONS_PER_DOC = 4

TOLERANCE = 1e-9

GOLDEN_CORPUS = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden", "corpus.jsonl"
)


def _mention_contexts(kb, documents):
    """Yield (context, candidate ids) for every mention of the corpus."""
    for document in documents:
        for mention in document.mentions:
            candidates = sorted(kb.candidates(mention.surface))
            if not candidates:
                continue
            yield (
                DocumentContext(document, exclude_mention=mention),
                candidates,
            )


def _assert_scorers_agree(kb, documents):
    """Oracle and compiled simscore + KORE agree within 1e-9."""
    store = kb.keyphrases
    weights = WeightModel(store, kb.links)
    compiled = CompiledKeyphrases(store, weights)
    reference_sim = ReferenceKeyphraseSimilarity(store, weights)
    compiled_sim = KeyphraseSimilarity(store, weights, compiled=compiled)
    reference_kore = ReferenceKoreRelatedness(store, weights)
    compiled_kore = KoreRelatedness(store, weights, compiled=compiled)
    entities = set()
    checked = 0
    for context, candidates in _mention_contexts(kb, documents):
        entities.update(candidates)
        reference = reference_sim.simscores(context, candidates)
        fast = compiled_sim.simscores(context, candidates)
        for entity_id in candidates:
            assert fast[entity_id] == pytest.approx(
                reference[entity_id], abs=TOLERANCE
            ), f"simscore diverged for {entity_id}"
            checked += 1
    assert checked > 0, "corpus produced no scoreable mention"
    ordered = sorted(entities)
    pairs = [
        (a, b)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1 :]
    ][:60]
    assert pairs, "corpus produced no candidate pair"
    for a, b in pairs:
        assert compiled_kore.relatedness(a, b) == pytest.approx(
            reference_kore.relatedness(a, b), abs=TOLERANCE
        ), f"KORE diverged for ({a}, {b})"


@pytest.fixture(scope="module", params=WORLD_SEEDS)
def seeded_world(request):
    seed = request.param
    world = World.generate(WorldConfig(seed=seed, clusters_per_domain=2))
    kb, _wiki = build_world_kb(world, seed=seed + 94)
    generator = DocumentGenerator(world, seed=seed + 55)
    cluster_ids = sorted(world.clusters)
    documents = [
        generator.generate(
            DocumentSpec(
                doc_id=f"w{seed}-d{index}",
                cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                num_mentions=MENTIONS_PER_DOC,
            )
        ).document
        for index in range(DOCS_PER_WORLD)
    ]
    return kb, documents


def test_world_scorers_agree(seeded_world):
    kb, documents = seeded_world
    _assert_scorers_agree(kb, documents)


def test_golden_scorers_agree(kb):
    documents = [item.document for item in load_corpus(GOLDEN_CORPUS)]
    _assert_scorers_agree(kb, documents)
