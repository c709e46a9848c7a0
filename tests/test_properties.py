"""Property-based tests (hypothesis) on core data structures and
invariants: triple store, link graph, min-hash, relatedness bounds,
weights, cover matching and phrase overlap (the oracles of
``tests/oracles/``), and evaluation measures."""

import math

from hypothesis import given, settings, strategies as st

from repro.eval.measures import DocumentOutcome, micro_average_accuracy
from repro.eval.ranking import spearman
from repro.hashing.minhash import MinHasher, jaccard_estimate
from repro.kb.keyphrases import KeyphraseStore
from repro.kb.links import LinkGraph
from repro.kb.triples import TripleStore
from repro.similarity.context import DocumentContext
from repro.types import Document
from repro.weights.model import WeightModel, binary_entropy, joint_entropy
from tests.oracles.cover import phrase_cover, score_phrase
from tests.oracles.kore import phrase_overlap

_ids = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)
_words = st.text(alphabet="qrstuv", min_size=2, max_size=5)


class TestTripleStoreProperties:
    @given(
        st.lists(
            st.tuples(_ids, _ids, _ids), min_size=0, max_size=30
        )
    )
    def test_match_all_returns_distinct_inserted(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
        matched = {(t.subject, t.predicate, t.obj) for t in store.match()}
        assert matched == set(triples)

    @given(st.lists(st.tuples(_ids, _ids, _ids), min_size=1, max_size=20))
    def test_remove_inverts_add(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
        for s, p, o in triples:
            store.remove(s, p, o)
        assert len(store) == 0


class TestLinkGraphProperties:
    @given(
        st.lists(st.tuples(_ids, _ids), min_size=0, max_size=40)
    )
    def test_inlink_outlink_duality(self, edges):
        graph = LinkGraph()
        graph.add_links(edges)
        for node in graph.nodes():
            for target in graph.outlinks(node):
                assert node in graph.inlinks(target)

    @given(st.lists(st.tuples(_ids, _ids), min_size=0, max_size=40))
    def test_edge_count_matches_distinct_edges(self, edges):
        graph = LinkGraph()
        graph.add_links(edges)
        distinct = {(s, t) for s, t in edges if s != t}
        assert graph.edge_count == len(distinct)


class TestMinHashProperties:
    @given(st.sets(_words, min_size=1, max_size=15))
    def test_identical_sets_estimate_one(self, items):
        hasher = MinHasher(num_hashes=16, seed=3)
        assert jaccard_estimate(
            hasher.sketch(items), hasher.sketch(set(items))
        ) == 1.0

    @given(
        st.sets(_words, min_size=1, max_size=15),
        st.sets(_words, min_size=1, max_size=15),
    )
    def test_estimate_in_unit_interval(self, a, b):
        hasher = MinHasher(num_hashes=16, seed=3)
        estimate = jaccard_estimate(hasher.sketch(a), hasher.sketch(b))
        assert 0.0 <= estimate <= 1.0


class TestEntropyProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_binary_entropy_bounds(self, p):
        value = binary_entropy(p)
        assert 0.0 <= value <= math.log(2) + 1e-12

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_joint_entropy_nonnegative(self, n11, n10, n01, n00):
        assert joint_entropy(n11, n10, n01, n00) >= 0.0


class TestPhraseOverlapProperties:
    @given(
        st.lists(_words, min_size=1, max_size=5),
        st.lists(_words, min_size=1, max_size=5),
    )
    def test_overlap_bounded_and_symmetric(self, p, q):
        gamma = {w: 1.0 for w in set(p) | set(q)}
        po_pq = phrase_overlap(p, q, gamma, gamma)
        po_qp = phrase_overlap(q, p, gamma, gamma)
        assert 0.0 <= po_pq <= 1.0
        assert po_pq == po_qp

    @given(st.lists(_words, min_size=1, max_size=5))
    def test_self_overlap_is_one(self, p):
        gamma = {w: 1.0 for w in p}
        assert phrase_overlap(p, p, gamma, gamma) == 1.0


class TestCoverProperties:
    @given(
        st.lists(_words, min_size=1, max_size=25),
        st.lists(_words, min_size=1, max_size=4),
    )
    def test_cover_invariants(self, tokens, phrase):
        doc = Document(doc_id="p", tokens=tuple(tokens))
        context = DocumentContext(doc)
        cover = phrase_cover(context, tuple(phrase))
        present = {w for w in set(phrase) if context.positions(w)}
        if not present:
            assert cover is None
            return
        assert cover is not None
        assert set(cover.matched_words) == present
        assert 0 <= cover.start <= cover.end < len(tokens)
        # Every matched word occurs inside the cover window.
        for word in cover.matched_words:
            assert any(
                cover.start <= pos <= cover.end
                for pos in context.positions(word)
            )

    @given(
        st.lists(_words, min_size=1, max_size=25),
        st.lists(_words, min_size=1, max_size=4),
    )
    def test_score_bounded(self, tokens, phrase):
        doc = Document(doc_id="p", tokens=tuple(tokens))
        context = DocumentContext(doc)
        weights = {w: 1.0 for w in phrase}
        score = score_phrase(context, tuple(phrase), weights)
        assert 0.0 <= score <= 1.0


class TestWeightProperties:
    @given(
        st.lists(
            st.tuples(_ids, st.lists(_words, min_size=1, max_size=3)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=30)
    def test_weight_bounds(self, entity_phrases):
        store = KeyphraseStore()
        for entity_id, phrase in entity_phrases:
            store.add_keyphrase(f"E_{entity_id}", tuple(phrase))
        model = WeightModel(store, links=None)
        for entity_id in store.entity_ids():
            for phrase in store.keyphrases(entity_id):
                assert 0.0 <= model.mi_phrase(entity_id, phrase) <= 1.0
            for word in store.keywords(entity_id):
                assert -1.0 <= model.npmi_word(entity_id, word) <= 1.0
            assert model.idf_word("nonexistent") == 0.0


class TestEvalProperties:
    @given(
        st.lists(
            st.tuples(_ids, _ids),
            min_size=1,
            max_size=30,
        )
    )
    def test_micro_accuracy_bounds(self, pairs):
        outcome = DocumentOutcome(
            doc_id="d",
            pairs=[(gold, pred, None) for gold, pred in pairs],
        )
        assert 0.0 <= micro_average_accuracy([outcome]) <= 1.0

    @given(st.permutations(list("abcdef")))
    def test_spearman_bounds(self, order):
        value = spearman(list("abcdef"), list(order))
        assert -1.0 <= value <= 1.0 + 1e-12
