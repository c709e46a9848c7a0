"""Compiled scorers against the string/dict oracles, and model sharing.

The compiled layer is the only scoring path under ``src/``: every test
here pins its scores to the oracles of ``tests/oracles/`` (simscore and
KORE within 1e-9; the numpy cover kernel window-identical to the sweep).
Without a shared model a measure compiles its own; with one, it must
score through it, and a model that cannot be built fails construction.
"""

import pickle

import pytest

from repro.compiled import CompiledKeyphrases
from repro.compiled.scoring import _po_merge, cover_sweep
from repro.kb.keyphrases import KeyphraseStore
from repro.obs import MetricsRegistry, set_metrics
from repro.relatedness.kore import KoreRelatedness
from repro.similarity.context import DocumentContext
from repro.similarity.keyphrase_match import KeyphraseSimilarity
from repro.types import Document, Mention
from repro.weights.model import WeightModel
from tests.oracles.cover import ReferenceKeyphraseSimilarity, phrase_cover
from tests.oracles.kore import ReferenceKoreRelatedness, phrase_overlap

TOLERANCE = 1e-9


def _doc(tokens, mentions=()):
    return Document(
        doc_id="d", tokens=tuple(tokens), mentions=tuple(mentions)
    )


@pytest.fixture
def store_and_weights():
    store = KeyphraseStore()
    store.add_keyphrase("Jimmy_Page", ("gibson", "guitar"), count=3)
    store.add_keyphrase("Jimmy_Page", ("hard", "rock", "band"), count=2)
    store.add_keyphrase("Jimmy_Page", ("grammy", "award", "winner"))
    store.add_keyphrase("Larry_Page", ("search", "engine"), count=4)
    store.add_keyphrase("Larry_Page", ("internet", "company"))
    store.add_keyphrase("Larry_Page", ("award", "winner"))
    store.add_keyphrase("Lonely", ("quasar",))
    weights = WeightModel(store, links=None, collection_size=50)
    return store, weights


DOCUMENTS = [
    ["he", "played", "gibson", "guitar", "in", "a", "hard", "rock", "band"],
    ["the", "search", "engine", "company", "won", "an", "award"],
    ["winner", "of", "many", "prizes", "including", "the", "grammy"],
    ["completely", "unrelated", "text"],
    ["guitar"] * 3 + ["x"] * 5 + ["gibson", "award", "winner", "guitar"],
]

ENTITIES = ["Jimmy_Page", "Larry_Page", "Lonely"]


def _pairs(reference, compiled, context):
    ref = reference.simscores(context, ENTITIES)
    com = compiled.simscores(context, ENTITIES)
    return [(ref[eid], com[eid]) for eid in ENTITIES]


class TestSimscoreEquivalence:
    @pytest.mark.parametrize("scheme", ["npmi", "idf"])
    def test_matches_reference_per_scheme(self, store_and_weights, scheme):
        store, weights = store_and_weights
        reference = ReferenceKeyphraseSimilarity(
            store, weights, weight_scheme=scheme
        )
        compiled = KeyphraseSimilarity(
            store,
            weights,
            weight_scheme=scheme,
            compiled=CompiledKeyphrases(store, weights, scheme=scheme),
        )
        for tokens in DOCUMENTS:
            context = DocumentContext(_doc(tokens))
            for ref, com in _pairs(reference, compiled, context):
                assert com == pytest.approx(ref, abs=TOLERANCE)

    def test_matches_reference_with_distance_discount(
        self, store_and_weights
    ):
        store, weights = store_and_weights
        mention = Mention(surface="Page", start=0, end=1)
        tokens = ["Page", "spoke"] + ["x"] * 20 + ["gibson", "guitar"]
        context = DocumentContext(
            _doc(tokens, [mention]), exclude_mention=mention
        )
        reference = ReferenceKeyphraseSimilarity(
            store, weights, distance_discount=3.0
        )
        compiled = KeyphraseSimilarity(
            store,
            weights,
            distance_discount=3.0,
            compiled=CompiledKeyphrases(store, weights),
        )
        for ref, com in _pairs(reference, compiled, context):
            assert com == pytest.approx(ref, abs=TOLERANCE)

    def test_matches_reference_with_keyphrase_cap(self, store_and_weights):
        store, weights = store_and_weights
        reference = ReferenceKeyphraseSimilarity(
            store, weights, max_keyphrases=2
        )
        compiled = KeyphraseSimilarity(
            store,
            weights,
            max_keyphrases=2,
            compiled=CompiledKeyphrases(store, weights, max_keyphrases=2),
        )
        for tokens in DOCUMENTS:
            context = DocumentContext(_doc(tokens))
            for ref, com in _pairs(reference, compiled, context):
                assert com == pytest.approx(ref, abs=TOLERANCE)

    def test_matches_reference_above_numpy_threshold(
        self, store_and_weights
    ):
        # Enough hits to clear NUMPY_MIN_HITS, so the numpy cover kernel
        # runs inside the scorer.
        store, weights = store_and_weights
        tokens = (["gibson", "guitar"] * 20) + ["x"] * 3 + ["gibson"]
        context = DocumentContext(_doc(tokens))
        reference = ReferenceKeyphraseSimilarity(store, weights)
        compiled = KeyphraseSimilarity(store, weights)
        for ref, com in _pairs(reference, compiled, context):
            assert com == pytest.approx(ref, abs=TOLERANCE)

    def test_indexed_context_reused_across_candidates(
        self, store_and_weights
    ):
        store, weights = store_and_weights
        compiled = CompiledKeyphrases(store, weights)
        sim = KeyphraseSimilarity(store, weights, compiled=compiled)
        context = DocumentContext(_doc(DOCUMENTS[0]))
        indexed = sim.index(context)
        # An index passed in is scored as is, never rebuilt, and every
        # candidate reads the same one.
        assert sim._indexed(indexed) is indexed
        assert sim.simscores(indexed, ENTITIES) == sim.simscores(
            context, ENTITIES
        )


class TestCoverEquivalence:
    """The array sweeps return the oracle's cover, tie-breaks included."""

    CASES = [
        ["alpha", "x", "x", "x", "beta", "alpha", "beta"],
        ["alpha", "beta"] * 30,
        ["alpha"] + ["x"] * 10 + ["beta"] + ["alpha", "beta"] * 25,
        ["beta", "alpha"] * 16 + ["x", "alpha"],
    ]

    @pytest.mark.parametrize("tokens", CASES)
    def test_sweep_matches_reference(self, tokens):
        context = DocumentContext(_doc(tokens))
        cover = phrase_cover(context, ("alpha", "beta"))
        lists = [context.positions("alpha"), context.positions("beta")]
        length, start, end = cover_sweep(lists)
        assert (length, start, end) == (
            cover.length,
            cover.start,
            cover.end,
        )

    @pytest.mark.parametrize("tokens", CASES)
    def test_numpy_cover_matches_sweep(self, tokens):
        import numpy as np

        from repro.compiled.scoring import cover_numpy

        context = DocumentContext(_doc(tokens))
        lists = [context.positions("alpha"), context.positions("beta")]
        arrays = [np.asarray(p, dtype=np.int64) for p in lists]
        assert cover_numpy(arrays) == cover_sweep(lists)


class TestKoreEquivalence:
    def test_matches_reference(self, store_and_weights):
        store, weights = store_and_weights
        reference = ReferenceKoreRelatedness(store, weights)
        compiled = KoreRelatedness(
            store,
            weights,
            compiled=CompiledKeyphrases(store, weights),
        )
        entities = ["Jimmy_Page", "Larry_Page", "Lonely"]
        for i, a in enumerate(entities):
            for b in entities[i + 1 :]:
                assert compiled.relatedness(a, b) == pytest.approx(
                    reference.relatedness(a, b), abs=TOLERANCE
                )

    @pytest.mark.parametrize(
        "gamma_a,gamma_b",
        [
            # Plain positive weights, entity dicts differing per side.
            (
                {"alpha": 0.4, "beta": 0.7, "gamma": 0.2},
                {"beta": 0.9, "gamma": 0.1, "delta": 1.1},
            ),
            # Negative weights (degenerate IDF): the reference keeps the
            # raw value when the *other entity* knows the word and falls
            # back to 0.0 only otherwise — the merge must mirror that.
            (
                {"alpha": -0.5, "beta": 0.7, "gamma": -0.2, "delta": 1.1},
                {"alpha": -0.5, "beta": 0.7, "gamma": -0.2, "delta": 1.1},
            ),
            # One-sided word known to the other entity with a *larger*
            # weight (entity-level lookup, not a clamp).
            (
                {"alpha": 0.1, "beta": 0.5},
                {"alpha": 0.8, "beta": 0.5, "delta": 0.3},
            ),
        ],
    )
    def test_po_merge_matches_phrase_overlap(self, gamma_a, gamma_b):
        from array import array

        phrase_p = tuple(w for w in ("alpha", "beta", "gamma") if w in gamma_a)
        phrase_q = tuple(w for w in ("beta", "gamma", "delta") if w in gamma_b)
        expected = phrase_overlap(phrase_p, phrase_q, gamma_a, gamma_b)
        words = sorted(set(gamma_a) | set(gamma_b))
        ids = {word: i for i, word in enumerate(words)}
        a_pairs = sorted((ids[w], gamma_a.get(w, 0.0)) for w in phrase_p)
        b_pairs = sorted((ids[w], gamma_b.get(w, 0.0)) for w in phrase_q)
        a_ids = array("i", (wid for wid, _ in a_pairs))
        a_g = array("d", (g for _, g in a_pairs))
        b_ids = array("i", (wid for wid, _ in b_pairs))
        b_g = array("d", (g for _, g in b_pairs))
        a_word_gammas = {ids[w]: g for w, g in gamma_a.items()}
        b_word_gammas = {ids[w]: g for w, g in gamma_b.items()}
        got = _po_merge(
            a_ids,
            a_g,
            0,
            len(a_ids),
            b_ids,
            b_g,
            0,
            len(b_ids),
            a_word_gammas,
            b_word_gammas,
        )
        assert got == pytest.approx(expected, abs=1e-12)


class TestFallbacks:
    """Without a usable shared model there is no second path: a bare
    measure compiles its own, a mismatched one is rejected, and a build
    failure fails construction."""

    def test_bare_measures_compile_their_own_model(self, store_and_weights):
        store, weights = store_and_weights
        sim = KeyphraseSimilarity(
            store, weights, weight_scheme="idf", max_keyphrases=2
        )
        assert isinstance(sim.compiled, CompiledKeyphrases)
        assert sim.compiled.scheme == "idf"
        assert sim.compiled.max_keyphrases == 2
        kore = KoreRelatedness(store, weights)
        # Compiled on the first pair, so a pipeline can attach its shared
        # model to a freshly built measure without a second vocabulary.
        assert kore.compiled is None
        kore.relatedness("Jimmy_Page", "Larry_Page")
        assert isinstance(kore.compiled, CompiledKeyphrases)

    def test_mismatched_compiled_model_rejected(self, store_and_weights):
        store, weights = store_and_weights
        compiled = CompiledKeyphrases(store, weights, scheme="idf")
        with pytest.raises(ValueError):
            KeyphraseSimilarity(store, weights, compiled=compiled)
        capped = CompiledKeyphrases(store, weights, max_keyphrases=5)
        with pytest.raises(ValueError):
            KeyphraseSimilarity(store, weights, compiled=capped)

    def test_pipeline_construction_failure_raises(self, kb, monkeypatch):
        import repro.core.pipeline as pipeline_module

        class Boom:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("no compiled layer today")

        monkeypatch.setattr(pipeline_module, "CompiledKeyphrases", Boom)
        with pytest.raises(RuntimeError, match="no compiled layer"):
            pipeline_module.AidaDisambiguator(kb)

    def test_removed_switches_raise_type_error(self, store_and_weights):
        from repro.core.config import AidaConfig
        from repro.graph.dense_subgraph import DenseSubgraphConfig

        store, weights = store_and_weights
        with pytest.raises(TypeError):
            AidaConfig(use_compiled=False)
        with pytest.raises(TypeError):
            DenseSubgraphConfig(exact_reference=True)
        with pytest.raises(TypeError):
            CompiledKeyphrases(store, weights, backend="python")


class TestSharing:
    def test_pickle_roundtrip_scores_identically(self, store_and_weights):
        store, weights = store_and_weights
        compiled = CompiledKeyphrases(store, weights)
        compiled.precompile(kore=True)
        clone = pickle.loads(pickle.dumps(compiled))
        sim = KeyphraseSimilarity(store, weights, compiled=compiled)
        sim_clone = KeyphraseSimilarity(store, weights, compiled=clone)
        for tokens in DOCUMENTS:
            context = DocumentContext(_doc(tokens))
            for eid in ENTITIES:
                assert sim.simscore(context, eid) == sim_clone.simscore(
                    context, eid
                )
        kore = KoreRelatedness(store, weights, compiled=compiled)
        kore_clone = KoreRelatedness(store, weights, compiled=clone)
        assert kore.relatedness(
            "Jimmy_Page", "Larry_Page"
        ) == kore_clone.relatedness("Jimmy_Page", "Larry_Page")

    def test_snapshot_measures_use_the_image_model(
        self, kb, sample_docs, tmp_path, monkeypatch
    ):
        from repro.compiled.vocabulary import Vocabulary
        from repro.core.config import AidaConfig
        from repro.kb.snapshot import build_snapshot, load_snapshot

        path = str(tmp_path / "kb.snap")
        build_snapshot(kb, path, gearings=("g",))
        snapshot = load_snapshot(path)

        def second_vocabulary(cls, store):
            raise AssertionError("attaching a snapshot scanned the store")

        monkeypatch.setattr(
            Vocabulary, "from_store", classmethod(second_vocabulary)
        )
        try:
            config = AidaConfig.full()
            config.relatedness_backend = "kore_lsh_g"
            pipeline = snapshot.pipeline(config)
            assert pipeline.similarity.compiled is snapshot.compiled
            # The memo wraps the LSH measure, which wraps KORE.
            kore = pipeline.relatedness.inner.inner
            assert kore.compiled is snapshot.compiled
            result = pipeline.disambiguate(sample_docs[0].document)
            assert result.assignments
        finally:
            snapshot.close()

    def test_precompile_counts_entities(self, store_and_weights):
        store, weights = store_and_weights
        compiled = CompiledKeyphrases(store, weights)
        count = compiled.precompile(kore=True)
        assert count == len(store.entity_ids())
        assert set(compiled._sim_models) == set(store.entity_ids())
        assert set(compiled._kore_models) == set(store.entity_ids())


class TestObservability:
    def test_phrase_counters_published_on_both_paths(
        self, store_and_weights
    ):
        # A bare scorer (own model) and one over a shared model.
        store, weights = store_and_weights
        context = DocumentContext(_doc(DOCUMENTS[0]))
        for compiled in (None, CompiledKeyphrases(store, weights)):
            sim = KeyphraseSimilarity(store, weights, compiled=compiled)
            previous = set_metrics(MetricsRegistry())
            try:
                sim.simscore(context, "Jimmy_Page")
                sim.simscore(context, "Larry_Page")
                from repro.obs import get_metrics

                counters = get_metrics().snapshot()["counters"]
            finally:
                set_metrics(previous)
            # Jimmy: gibson-guitar and hard-rock-band match, the grammy
            # phrase does not; Larry: nothing matches.
            assert counters["similarity.phrases_scored"] == 2
            assert counters["similarity.phrases_skipped"] == 4
