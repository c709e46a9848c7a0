"""Differential and regression tests for the LSH pruning path.

Covers the correctness properties the two-stage min-hash/LSH acceleration
must preserve:

* one surviving pair = one call of the measure = one comparison count
  (the zero-fault chaos differential — a ``rate=0.0`` chaos trigger
  counts calls without injecting);
* a pruned pair never reaches the memo, so no document's pruning leaks
  into another's answers through a memo shared across documents;
* inconsistent stage-one geometry fails at construction instead of
  silently bucketing everything together;
* keyphrase-less entities are never indexed (their relatedness is 0 by
  definition) and cannot inflate the surviving-pair set;
* candidate pairs are canonical and filtered LSH values are
  exact-KORE-equal or exactly 0.0;
* stage two keeps no per-task state, so one measure serves concurrent
  documents;
* on the golden corpus, KORE_LSH-G computes at most a third of exact
  KORE's comparisons and KORE_LSH-F no more than G, both within one
  accuracy point of exact, at the counts ``docs/performance.md`` prints.
"""

import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.datagen.io import load_corpus
from repro.eval.runner import run_disambiguator
from repro.hashing.lsh import LshIndex
from repro.hashing.minhash import MinHasher
from repro.kb.keyphrases import KeyphraseStore
from repro.relatedness.base import filtered_relatedness
from repro.relatedness.caching import CachingRelatedness
from repro.relatedness.kore import KoreRelatedness
from repro.relatedness.lsh import KoreLshRelatedness, LshSettings
from repro.weights.model import WeightModel

from tests.faults.chaos import Fault, Trigger


def _music_store() -> KeyphraseStore:
    store = KeyphraseStore()
    store.add_keyphrase("Nick_Cave", ("australian", "singer"))
    store.add_keyphrase("Nick_Cave", ("bad", "seeds"))
    store.add_keyphrase("Nick_Cave", ("eerie", "cello"))
    store.add_keyphrase("Hallelujah_Cave", ("australian", "male", "singer"))
    store.add_keyphrase("Hallelujah_Cave", ("bad", "seeds"))
    store.add_keyphrase("Hallelujah_Chorus", ("baroque", "oratorio"))
    store.add_keyphrase("Hallelujah_Chorus", ("choir", "music"))
    for filler in range(6):
        store.add_keyphrase(f"F{filler}", (f"filler{filler}", "thing"))
    return store


@pytest.fixture
def setup():
    store = _music_store()
    return store, WeightModel(store, links=None)


def _count_calls(monkeypatch, measure) -> Trigger:
    """A ``rate=0.0`` chaos trigger on *measure*'s ``relatedness``: it
    counts the calls the memo makes and never injects."""
    trigger = Trigger(Fault("relatedness", rate=0.0))
    monkeypatch.setattr(
        measure, "relatedness", trigger.wrap(measure.relatedness)
    )
    return trigger


class TestSingleFireSingleCount:
    """The zero-fault chaos differential of the acceptance criteria."""

    def test_one_fire_one_count_per_surviving_pair(self, setup, monkeypatch):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(
            store, kore, LshSettings.recall_geared(), name="G"
        )
        entities = store.entity_ids()
        calls = _count_calls(monkeypatch, lsh)
        edges, survivors = CachingRelatedness(lsh).coherence_edges(entities)
        surviving = len(survivors)
        assert surviving > 0
        assert set(edges) == survivors
        assert calls.fired == 0
        # One call and one count per surviving pair — not two — and the
        # inner measure's counter stays untouched (the wrapper's counter
        # is the Table 4.4 quantity).
        assert calls.calls == surviving
        assert lsh.comparisons == surviving
        assert kore.comparisons == 0

    def test_cached_lookup_does_not_refire(self, setup, monkeypatch):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        memo = CachingRelatedness(lsh)
        calls = _count_calls(monkeypatch, lsh)
        memo.relatedness("Nick_Cave", "Hallelujah_Cave")
        calls_after_first = calls.calls
        memo.relatedness("Hallelujah_Cave", "Nick_Cave")
        assert calls_after_first == 1
        assert calls.calls == calls_after_first

    def test_pruned_pairs_never_reach_the_fault_site(self, setup, monkeypatch):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.fast())
        survivors = lsh.candidate_pairs(store.entity_ids())
        pruned = [
            (a, b)
            for i, a in enumerate(store.entity_ids())
            for b in store.entity_ids()[i + 1 :]
            if (a, b) not in survivors
        ]
        assert pruned  # disjoint fillers must prune under F
        calls = _count_calls(monkeypatch, lsh)
        for a, b in pruned:
            assert filtered_relatedness(lsh, survivors, a, b) == 0.0
        assert calls.calls == 0
        assert lsh.comparisons == 0


class TestStalePrunedZeros:
    """Two-document differential: one document's pruning must not leak
    into another's answers through the memo they share."""

    def test_pruned_zero_not_retained_by_outer_cache(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        exact = KoreRelatedness(store, weights).relatedness(
            "Nick_Cave", "Hallelujah_Cave"
        )
        assert exact > 0.0
        cached = CachingRelatedness(
            KoreLshRelatedness(
                store, kore, LshSettings.recall_geared(), name="G"
            )
        )
        # Document A: Hallelujah_Cave is not a candidate, so the pair
        # is outside the surviving set and answers 0.0.
        _edges, survivors = cached.coherence_edges(
            ["Nick_Cave", "Hallelujah_Chorus"]
        )
        assert filtered_relatedness(
            cached, survivors, "Nick_Cave", "Hallelujah_Cave"
        ) == 0.0
        # Document B: the pair is present and collides — the exact value
        # must surface, not document A's 0.0.
        edges, _survivors = cached.coherence_edges(
            ["Nick_Cave", "Hallelujah_Cave"]
        )
        assert edges[("Hallelujah_Cave", "Nick_Cave")] == exact

    def test_stored_value_not_served_where_the_pair_is_pruned(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        cached = CachingRelatedness(
            KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        )
        # Document B stores the exact value of a colliding pair.
        edges, _survivors = cached.coherence_edges(
            ["Nick_Cave", "Hallelujah_Cave"]
        )
        assert edges[("Hallelujah_Cave", "Nick_Cave")] > 0.0
        # Document A prunes the pair: it answers 0.0, not document B's
        # stored value.
        _edges, survivors = cached.coherence_edges(
            ["Nick_Cave", "Hallelujah_Chorus"]
        )
        assert filtered_relatedness(
            cached, survivors, "Nick_Cave", "Hallelujah_Cave"
        ) == 0.0

    def test_surviving_values_stay_memoizable(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        cached = CachingRelatedness(
            KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        )
        cached.coherence_edges(["Nick_Cave", "Hallelujah_Cave"])
        before = cached.cache_stats()
        cached.relatedness("Nick_Cave", "Hallelujah_Cave")
        after = cached.cache_stats()
        # Task-independent exact values are cached and served as hits.
        assert after.hits == before.hits + 1

    def test_pruned_lookups_are_answered_but_not_stored(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        cached = CachingRelatedness(
            KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        )
        _edges, survivors = cached.coherence_edges(
            ["Nick_Cave", "Hallelujah_Chorus"]
        )
        filtered_relatedness(
            cached, survivors, "Nick_Cave", "Hallelujah_Cave"
        )
        # Only the document's surviving pairs were looked up and stored.
        assert cached.cache_stats().size == len(survivors)
        assert cached.cache_stats().lookups == len(survivors)


class TestSettingsValidation:
    def test_inconsistent_phrase_geometry_rejected(self):
        with pytest.raises(ValueError):
            LshSettings(
                phrase_sketch_len=5, phrase_bands=2, phrase_rows=2
            )

    @pytest.mark.parametrize(
        "field",
        [
            "phrase_sketch_len",
            "phrase_bands",
            "phrase_rows",
            "entity_bands",
            "entity_rows",
        ],
    )
    def test_nonpositive_fields_rejected(self, field):
        with pytest.raises(ValueError):
            LshSettings(**{field: 0})

    def test_consistent_geometry_accepted(self):
        settings_obj = LshSettings(
            phrase_sketch_len=6, phrase_bands=3, phrase_rows=2
        )
        assert settings_obj.entity_sketch_len == (
            settings_obj.entity_bands * settings_obj.entity_rows
        )

    def test_phrase_buckets_use_full_sketch(self, setup):
        # One bucket id per phrase band, none of them the empty-band
        # ``sum([]) == 0`` artifact of the pre-validation implementation.
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore)
        ids = lsh._phrase_bucket_ids(("australian", "singer"))
        assert len(ids) == lsh.settings.phrase_bands
        assert len(set(ids)) == len(ids)


class TestEmptyEntities:
    def _store_with_empties(self, count=5):
        store = _music_store()
        for index in range(count):
            store.ensure_entity(f"Empty{index}")
        return store

    def test_empty_entities_never_collide(self):
        store = self._store_with_empties()
        weights = WeightModel(store, links=None)
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        survivors = lsh.candidate_pairs(store.entity_ids())
        empties = [e for e in store.entity_ids() if e.startswith("Empty")]
        assert len(empties) == 5
        for i, a in enumerate(empties):
            for b in empties[i + 1 :]:
                assert (a, b) not in survivors
                assert filtered_relatedness(lsh, survivors, a, b) == 0.0
        assert lsh.comparisons == 0
        assert kore.comparisons == 0

    def test_empty_entities_do_not_inflate_allowed_pairs(self):
        store = self._store_with_empties()
        weights = WeightModel(store, links=None)
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        populated = [
            e for e in store.entity_ids() if not e.startswith("Empty")
        ]
        without_empties = lsh.candidate_pairs(populated)
        assert lsh.candidate_pairs(store.entity_ids()) == without_empties

    def test_agrees_with_exact_kore_for_empty_entities(self):
        store = self._store_with_empties(count=2)
        weights = WeightModel(store, links=None)
        exact = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(
            store,
            KoreRelatedness(store, weights),
            LshSettings.recall_geared(),
        )
        survivors = lsh.candidate_pairs(store.entity_ids())
        assert exact.relatedness("Empty0", "Empty1") == 0.0
        assert lsh.relatedness("Empty0", "Empty1") == 0.0
        assert filtered_relatedness(lsh, survivors, "Empty0", "Empty1") == 0.0


class TestCanonicalPairs:
    def test_candidate_pairs_are_canonical(self):
        hasher = MinHasher(num_hashes=8, seed=3)
        index = LshIndex(bands=8, rows=1)
        base = {f"w{i}" for i in range(10)}
        # Insertion order deliberately reversed relative to sort order.
        for name in ("Zeta", "Mid", "Alpha"):
            index.add(name, hasher.sketch(base))
        pairs = index.candidate_pairs()
        assert pairs
        for a, b in pairs:
            assert a <= b

    def test_pairs_match_should_compare_lookup(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        entities = store.entity_ids()
        survivors = lsh.candidate_pairs(entities)
        universe = {
            (a, b) for i, a in enumerate(entities) for b in entities[i + 1 :]
        }
        # The surviving set holds canonical pairs of the entity set only,
        # and depends on the set, not on the order it is listed in.
        assert survivors <= universe
        assert lsh.candidate_pairs(list(reversed(entities))) == survivors
        for a, b in survivors:
            assert a <= b


@st.composite
def _keyphrase_stores(draw):
    """Small random stores over a colliding word pool (some empties)."""
    words = [f"word{i}" for i in range(8)]
    num_entities = draw(st.integers(min_value=2, max_value=6))
    store = KeyphraseStore()
    for index in range(num_entities):
        entity = f"E{index}"
        num_phrases = draw(st.integers(min_value=0, max_value=3))
        if num_phrases == 0:
            store.ensure_entity(entity)
            continue
        for _ in range(num_phrases):
            phrase = tuple(
                draw(
                    st.lists(
                        st.sampled_from(words),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    )
                )
            )
            store.add_keyphrase(entity, phrase)
    return store


class TestPrunedValuesExactOrZero:
    @settings(max_examples=25, deadline=None)
    @given(store=_keyphrase_stores())
    def test_lsh_value_is_exact_or_zero(self, store):
        weights = WeightModel(store, links=None)
        exact = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(
            store,
            KoreRelatedness(store, weights),
            LshSettings.recall_geared(),
        )
        entities = store.entity_ids()
        survivors = lsh.candidate_pairs(entities)
        for i, a in enumerate(entities):
            for b in entities[i + 1 :]:
                value = filtered_relatedness(lsh, survivors, a, b)
                if (a, b) in survivors:
                    assert value == exact.relatedness(a, b)
                else:
                    assert value == 0.0


class TestThreadLocalTaskState:
    def test_concurrent_prepares_do_not_interfere(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.recall_geared())
        lsh.precompute()
        barrier = threading.Barrier(2)
        outcomes = {}

        def run(label, universe, pair):
            barrier.wait()  # both tasks band their sets at once
            survivors = lsh.candidate_pairs(universe)
            outcomes[label] = (len(survivors), pair in survivors)

        pair = ("Hallelujah_Cave", "Nick_Cave")
        t1 = threading.Thread(
            target=run,
            args=("with_pair", ["Nick_Cave", "Hallelujah_Cave"], pair),
        )
        t2 = threading.Thread(
            target=run,
            args=("without_pair", ["Nick_Cave", "Hallelujah_Chorus"], pair),
        )
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert outcomes["with_pair"][1] is True
        assert outcomes["without_pair"][1] is False
        # Nothing of either task stays behind on the measure.
        assert lsh.candidate_pairs(list(pair)) == {pair}
        assert lsh.candidate_pairs(["Nick_Cave", "Hallelujah_Chorus"]) == (
            set()
        )

    def test_stats_accumulate_across_tasks(self, setup):
        store, weights = setup
        kore = KoreRelatedness(store, weights)
        lsh = KoreLshRelatedness(store, kore, LshSettings.fast())
        lsh.candidate_pairs(store.entity_ids())
        lsh.candidate_pairs(store.entity_ids())
        assert lsh.prepared_tasks == 2
        total = len(store.entity_ids())
        expected_universe = total * (total - 1) // 2
        assert (
            lsh.pruned_pairs + lsh.survived_pairs == 2 * expected_universe
        )


GOLDEN_CORPUS = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "golden", "corpus.jsonl"
)

#: Pair comparisons over the golden corpus with the memo reset per
#: document (the quantity Table 4.4 counts), as docs/performance.md
#: prints them; every backend reaches micro 95.65% and macro 97.21%.
GOLDEN_COMPARISONS = {"kore": 693, "kore_lsh_g": 221, "kore_lsh_f": 139}


class _PerDocumentComparisons:
    """Pipeline shim that empties the memo before each document and
    sums the comparisons each document computed."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.comparisons = 0

    def _flush(self):
        memo = self.pipeline.relatedness
        self.comparisons += memo.comparisons
        memo.reset_stats()

    def disambiguate(self, document, **kwargs):
        self._flush()
        return self.pipeline.disambiguate(document, **kwargs)

    def total(self):
        self._flush()
        return self.comparisons


@pytest.fixture(scope="module")
def golden_corpus():
    return load_corpus(GOLDEN_CORPUS)


@pytest.fixture(scope="module")
def frontier(kb, golden_corpus):
    """backend -> (comparisons, micro, macro) over the golden corpus.

    The session KB is the golden fixture's KB (same world and KB seeds).
    """
    rows = {}
    for backend in GOLDEN_COMPARISONS:
        config = AidaConfig.full()
        config.relatedness_backend = backend
        shim = _PerDocumentComparisons(AidaDisambiguator(kb, config=config))
        run = run_disambiguator(shim, golden_corpus, kb=kb)
        rows[backend] = (shim.total(), run.micro, run.macro)
    return rows


class TestGoldenCorpusFrontier:
    def test_g_computes_at_most_a_third_of_exact(self, frontier):
        assert frontier["kore_lsh_g"][0] <= frontier["kore"][0] / 3

    def test_f_prunes_at_least_as_hard_as_g(self, frontier):
        assert frontier["kore_lsh_f"][0] <= frontier["kore_lsh_g"][0]

    @pytest.mark.parametrize("backend", ["kore_lsh_g", "kore_lsh_f"])
    def test_accuracy_within_one_point_of_exact(self, frontier, backend):
        assert abs(frontier[backend][1] - frontier["kore"][1]) <= 0.01

    @pytest.mark.parametrize("backend", sorted(GOLDEN_COMPARISONS))
    def test_published_counts_and_accuracy(self, frontier, backend):
        comparisons, micro, macro = frontier[backend]
        assert comparisons == GOLDEN_COMPARISONS[backend]
        assert round(100 * micro, 2) == 95.65
        assert round(100 * macro, 2) == 97.21

    def test_single_count_on_a_golden_document(self, kb, golden_corpus):
        """Each surviving pair is one wrapper comparison; the inner
        exact measure is reached only through the wrapper and counts
        nothing itself."""
        config = AidaConfig.full()
        config.relatedness_backend = "kore_lsh_g"
        measure = AidaDisambiguator.build_relatedness(kb, config)
        entities = sorted(
            {
                entity
                for mention in golden_corpus[0].document.mentions
                for entity in kb.candidates(mention.surface)
            }
        )
        _edges, survivors = CachingRelatedness(measure).coherence_edges(
            entities
        )
        assert len(survivors) > 0
        assert measure.comparisons == len(survivors)
        assert measure.inner.comparisons == 0
