"""Metamorphic: the order of a document's mention list does not matter.

The paper's algorithm has no mention order.  The pipeline builds its
graph over the active mentions sorted by span and maps the solver's
assignment back, so the enumeration's first maximum and the local
search's draws see one order whatever the list says.  A shuffled mention
list must therefore give every span the same entity, the same score and
the same candidate scores (to 1e-9), for ``mw``, ``kore`` and
``kore_lsh_g``, through both post-processing paths (exhaustive
enumeration, and the randomized local search forced by an enumeration
limit of 1), on the golden corpus and on seeded worlds.

Each corpus includes documents with two mentions of one surface: their
contexts leave out only their own tokens, so their edges can be equal and
the objective then ties exactly between swapping their two entities.
The golden world's tie documents below made the answer follow the list
order before the graph was built in span order (``kore`` and
``kore_lsh_g`` on the first, ``mw`` on the second).
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.io import load_corpus
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.graph.dense_subgraph import DenseSubgraphConfig
from repro.types import Document, Mention

GOLDEN_CORPUS = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden", "corpus.jsonl"
)
BACKENDS = ("mw", "kore", "kore_lsh_g")
POSTPROCESS = {
    "enumerate": DenseSubgraphConfig(),
    "local_search": DenseSubgraphConfig(enumeration_limit=1),
}
TOLERANCE = 1e-9
WORLD_SEED = 2293
#: The golden world's ties: (document id, cluster position, mention to
#: repeat) of documents its generator draws with seed 55 (a document's
#: draw is seeded by its id).
GOLDEN_TIES = (("x1", 1, 0), ("x15", 15, 3))


def _with_repeated_surface(
    document: Document, index: int, doc_id: str
) -> Document:
    """*document* plus a second mention of mention *index*'s surface,
    appended after the last token."""
    mention = document.mentions[index]
    tokens = document.tokens[mention.start : mention.end]
    start = len(document.tokens)
    return Document(
        doc_id=doc_id,
        tokens=document.tokens + tokens,
        mentions=document.mentions
        + (Mention(mention.surface, start, start + len(tokens)),),
    )


def _answers(result):
    return {
        (a.mention.start, a.mention.end, a.mention.surface): a
        for a in result.assignments
    }


def _assert_same_answers(expected, got, where):
    assert expected.keys() == got.keys(), where
    for span, want in expected.items():
        have = got[span]
        assert have.entity == want.entity, (where, span)
        assert have.score == pytest.approx(want.score, abs=TOLERANCE), (
            where,
            span,
        )
        assert have.candidate_scores.keys() == want.candidate_scores.keys()
        for entity_id, score in want.candidate_scores.items():
            assert have.candidate_scores[entity_id] == pytest.approx(
                score, abs=TOLERANCE
            ), (where, span, entity_id)


class Corpus:
    """Documents, a pipeline per (backend, post-processing path), and the
    answers for each document's mention list as given."""

    def __init__(self, kb, documents, ties):
        self.documents = documents
        #: Indices of the documents with a repeated surface.
        self.ties = ties
        self.pipelines = {}
        self.expected = {}
        for backend in BACKENDS:
            for path, graph in POSTPROCESS.items():
                config = dataclasses.replace(
                    AidaConfig.full(), relatedness_backend=backend, graph=graph
                )
                pipeline = AidaDisambiguator(kb, config=config)
                self.pipelines[backend, path] = pipeline
                self.expected[backend, path] = [
                    _answers(pipeline.disambiguate(document))
                    for document in documents
                ]

    def check(self, key, index, permutation):
        document = self.documents[index]
        shuffled = document.with_mentions(
            [document.mentions[i] for i in permutation]
        )
        got = _answers(self.pipelines[key].disambiguate(shuffled))
        _assert_same_answers(
            self.expected[key][index], got, (key, document.doc_id)
        )


@pytest.fixture(scope="module")
def golden(kb, world):
    documents = [
        annotated.document for annotated in load_corpus(GOLDEN_CORPUS)
    ]
    generator = DocumentGenerator(world, seed=55)
    cluster_ids = sorted(world.clusters)
    ties = []
    for doc_id, cluster, mention in GOLDEN_TIES:
        drawn = generator.generate(
            DocumentSpec(
                doc_id=doc_id,
                cluster_ids=[cluster_ids[cluster % len(cluster_ids)]],
                num_mentions=6,
            )
        ).document
        ties.append(len(documents))
        documents.append(
            _with_repeated_surface(drawn, mention, f"{doc_id}-tie")
        )
    return Corpus(kb, documents, ties)


@pytest.fixture(scope="module")
def seeded():
    world = World.generate(WorldConfig(seed=WORLD_SEED, clusters_per_domain=2))
    kb, _wiki = build_world_kb(world, seed=WORLD_SEED + 94)
    generator = DocumentGenerator(world, seed=WORLD_SEED + 55)
    cluster_ids = sorted(world.clusters)
    documents = [
        generator.generate(
            DocumentSpec(
                doc_id=f"seeded-{index}",
                cluster_ids=cluster_ids[index : index + 2],
                num_mentions=7,
            )
        ).document
        for index in range(6)
    ]
    documents.append(
        _with_repeated_surface(documents[0], 0, "seeded-repeat")
    )
    return Corpus(kb, documents, [len(documents) - 1])


def _cases(corpus_size: int):
    """(pipeline key, document index, mention permutation)."""
    keys = st.sampled_from(
        [(backend, path) for backend in BACKENDS for path in POSTPROCESS]
    )
    return st.tuples(keys, st.integers(0, corpus_size - 1), st.randoms())


COMMON = settings(max_examples=30, deadline=None)


@COMMON
@given(case=_cases(13))
def test_golden_answers_ignore_mention_order(golden, case):
    key, index, rng = case
    count = len(golden.documents[index].mentions)
    golden.check(key, index, rng.sample(range(count), count))


@COMMON
@given(case=_cases(7))
def test_seeded_answers_ignore_mention_order(seeded, case):
    key, index, rng = case
    count = len(seeded.documents[index].mentions)
    seeded.check(key, index, rng.sample(range(count), count))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("path", sorted(POSTPROCESS))
def test_repeated_surface_ignores_reversal(golden, seeded, backend, path):
    """The tie cases, every pipeline: the mention list reversed."""
    for corpus in (golden, seeded):
        for index in corpus.ties:
            count = len(corpus.documents[index].mentions)
            corpus.check(
                (backend, path), index, list(reversed(range(count)))
            )
