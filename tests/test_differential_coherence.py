"""Differential: one coherence pass and one index per document.

* :meth:`CachingRelatedness.coherence_edges` against the per-pair oracle
  (:mod:`tests.oracles.coherence`) for ``mw``, ``kore``, ``kore_lsh_g``
  and ``kore_lsh_f`` on three seeded worlds: the same pair set in the
  same ascending order, exactly the same values, and LSH's
  ``candidate_pairs`` equal to the reference filter's surviving pairs.
* The weighted-degree scores read from that pass against the per-pair
  values, including the pairs the pass does not visit: a candidate the
  coherence test removed, and two candidates of one mention.
* Every mention's :meth:`IndexedContext.masked` view of its document's
  one index against an index built over that mention's own
  ``DocumentContext(document, exclude_mention=mention)``: equal postings,
  center and length, so equal similarity scores.
"""

from __future__ import annotations

import pytest

from repro.compiled.context import IndexedContext
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.relatedness.caching import CachingRelatedness
from repro.relatedness.lsh import lsh_geometry
from repro.similarity.context import DocumentContext
from repro.types import Mention
from tests.oracles.coherence import (
    ReferenceLshFilter,
    reference_candidate_coherence,
    reference_coherence_edges,
)

WORLD_SEEDS = (1307, 2293, 4421)
DOCS_PER_WORLD = 12
BACKENDS = ("mw", "kore", "kore_lsh_g", "kore_lsh_f")


class SeededWorld:
    """One seeded world, its KB and a few generated documents."""

    def __init__(self, seed: int):
        world = World.generate(WorldConfig(seed=seed, clusters_per_domain=2))
        self.kb, _wiki = build_world_kb(world, seed=seed + 94)
        generator = DocumentGenerator(world, seed=seed + 55)
        cluster_ids = sorted(world.clusters)
        self.documents = [
            generator.generate(
                DocumentSpec(
                    doc_id=f"w{seed}-d{index}",
                    cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                    num_mentions=6,
                )
            ).document
            for index in range(DOCS_PER_WORLD)
        ]
        # A second mention of the first surface, appended at the end:
        # its tokens occur twice, so masking one occurrence keeps the
        # other.
        first = self.documents[0]
        mention = first.mentions[0]
        start = len(first.tokens)
        repeat = first.tokens[mention.start : mention.end]
        self.documents.append(
            type(first)(
                doc_id=f"w{seed}-repeat",
                tokens=first.tokens + repeat,
                mentions=first.mentions
                + (Mention(mention.surface, start, start + len(repeat)),),
            )
        )


@pytest.fixture(scope="module", params=WORLD_SEEDS)
def seeded(request) -> SeededWorld:
    return SeededWorld(request.param)


def _entity_set(kb, document):
    """The document's candidate entities and their sole mentions."""
    mentions_of = {}
    for index, mention in enumerate(document.mentions):
        for entity_id in kb.candidates(mention.surface):
            mentions_of.setdefault(entity_id, set()).add(index)
    sole = {
        entity_id: next(iter(indices))
        for entity_id, indices in mentions_of.items()
        if len(indices) == 1
    }
    return sorted(mentions_of), sole


@pytest.mark.parametrize("backend", BACKENDS)
def test_coherence_edges_match_the_per_pair_oracle(seeded, backend):
    config = AidaConfig(relatedness_backend=backend)
    memo = CachingRelatedness(
        AidaDisambiguator.build_relatedness(seeded.kb, config)
    )
    oracle_measure = AidaDisambiguator.build_relatedness(seeded.kb, config)
    geometry = lsh_geometry(backend)
    lsh = (
        ReferenceLshFilter(seeded.kb.keyphrases, geometry[0])
        if geometry is not None
        else None
    )
    visited = pruned_total = 0
    for document in seeded.documents:
        entities, sole = _entity_set(seeded.kb, document)
        edges, survivors = memo.coherence_edges(entities, sole)
        values, pruned = reference_coherence_edges(
            oracle_measure, entities, lsh, sole
        )
        assert list(edges) == [pair for pair in values if pair not in pruned]
        for pair, value in edges.items():
            assert value == values[pair], (document.doc_id, pair)
        assert all(values[pair] == 0.0 for pair in pruned)
        if lsh is None:
            assert survivors is None
        else:
            assert survivors == lsh.surviving_pairs(entities)
        visited += len(edges)
        pruned_total += len(pruned)
    assert visited > 0
    # The F geometry prunes on these worlds; the pass never visits those.
    if backend == "kore_lsh_f":
        assert pruned_total > 0
    # Each distinct pair was computed once, however often it repeated.
    assert memo.inner.comparisons == memo.size


@pytest.mark.parametrize("backend", BACKENDS)
def test_candidate_scores_match_per_pair_values(seeded, backend):
    """Overlapping three-entity candidate lists; even mentions keep one
    candidate (a coherence-test fix), odd ones drop their first, so some
    candidates are left out of the graph and some pairs are two
    candidates of one mention."""
    config = AidaConfig(relatedness_backend=backend)
    pipeline = AidaDisambiguator(seeded.kb, config=config)
    oracle_measure = AidaDisambiguator.build_relatedness(seeded.kb, config)
    geometry = lsh_geometry(backend)
    lsh = (
        ReferenceLshFilter(seeded.kb.keyphrases, geometry[0])
        if geometry is not None
        else None
    )
    unvisited_survivors = 0
    for document in seeded.documents:
        entities, _sole = _entity_set(seeded.kb, document)
        if len(entities) < 4:
            continue
        mentions = list(document.mentions)
        active = list(range(len(mentions)))
        candidates = {
            i: sorted(
                {entities[(2 * i + k) % len(entities)] for k in range(3)}
            )
            for i in active
        }
        pool = {
            i: candidates[i][:1] if i % 2 == 0 else candidates[i][1:]
            for i in active
        }
        weights = {i: dict.fromkeys(candidates[i], 0.0) for i in active}
        _order, _graph, coherence = pipeline._build_graph(
            mentions, active, pool, weights, None
        )
        edges, survivors = coherence
        skipped = (survivors or set()) - set(edges)
        assignment = {i: pool[i][-1] for i in active}
        universe = {e for entities_of in pool.values() for e in entities_of}
        for i in active:
            scores = pipeline._candidate_scores(
                i, candidates[i], weights, assignment, coherence
            )
            others = sorted({e for j, e in assignment.items() if j != i})
            for entity_id in candidates[i]:
                expected = 0.0 + config.gamma * reference_candidate_coherence(
                    oracle_measure, universe, lsh, entity_id, others
                )
                assert scores[entity_id] == expected, (document.doc_id, i)
                unvisited_survivors += sum(
                    (min(entity_id, o), max(entity_id, o)) in skipped
                    for o in others
                )
    # The construction reaches the pairs the pass skips but the filter
    # keeps: they must carry their exact value, not 0.0.
    if lsh is not None:
        assert unvisited_survivors > 0


@pytest.mark.parametrize("backend", ("kore_lsh_g", "kore_lsh_f"))
def test_candidate_pairs_match_the_reference_filter(seeded, backend):
    settings = lsh_geometry(backend)[0]
    measure = AidaDisambiguator.build_relatedness(
        seeded.kb, AidaConfig(relatedness_backend=backend)
    )
    reference = ReferenceLshFilter(seeded.kb.keyphrases, settings)
    everything = seeded.kb.keyphrases.entity_ids()
    assert measure.candidate_pairs(everything) == reference.surviving_pairs(
        everything
    )
    for document in seeded.documents:
        entities, _sole = _entity_set(seeded.kb, document)
        assert measure.candidate_pairs(entities) == (
            reference.surviving_pairs(entities)
        )


@pytest.mark.parametrize("backend", ("mw", "kore"))
def test_exact_measures_compare_every_pair(seeded, backend):
    measure = AidaDisambiguator.build_relatedness(
        seeded.kb, AidaConfig(relatedness_backend=backend)
    )
    assert measure.candidate_pairs(seeded.kb.entity_ids()) is None


def test_masked_views_equal_per_mention_indexes(seeded):
    pipeline = AidaDisambiguator(seeded.kb, config=AidaConfig.full())
    similarity = pipeline.similarity
    vocabulary = pipeline.compiled.vocabulary
    dropped = thinned = 0
    for document in seeded.documents:
        indexed = similarity.index(DocumentContext(document))
        for mention in document.mentions:
            context = DocumentContext(document, exclude_mention=mention)
            view = indexed.masked(mention)
            rebuilt = IndexedContext(context, vocabulary)
            assert view.postings == rebuilt.postings
            assert view.mention_center == rebuilt.mention_center
            assert view.document_length == rebuilt.document_length
            pool = seeded.kb.candidates(mention.surface)
            assert similarity.simscores(view, pool) == similarity.simscores(
                context, pool
            )
            dropped += len(indexed.postings) - len(view.postings)
            thinned += sum(
                len(indexed.postings[wid]) != len(positions)
                for wid, positions in view.postings.items()
            )
        # The document's own index is left as it was.
        assert indexed.postings == IndexedContext(
            DocumentContext(document), vocabulary
        ).postings
    # Both masking outcomes occur: a word only inside a mention leaves
    # the view, a word also outside it keeps its other positions.
    assert dropped > 0
    assert thinned > 0
