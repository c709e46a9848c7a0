"""Regression: pair canonicalization happens once, at the base class.

Every relatedness measure is a symmetric function, and the base class is
the single place where ``(b, a)`` is folded onto ``(a, b)`` — for the
memo key, the comparison counter, the ``candidate_pairs`` filter, and
the ``_compute`` call.  Milne–Witten and KORE must never see a
non-canonical pair, and a memo never stores a pair twice.
"""

from __future__ import annotations

import pytest

from repro.graph.synthetic import (
    SyntheticLinkWorldSpec,
    synthetic_entity_ids,
    synthetic_link_world,
)
from repro.relatedness import (
    InlinkJaccardRelatedness,
    KoreRelatedness,
    MilneWittenRelatedness,
)
from repro.relatedness.base import EntityRelatedness
from repro.relatedness.caching import CachingRelatedness
from repro.weights.model import WeightModel

N = 20


class OrderSpy(EntityRelatedness):
    """Records the argument order of every ``_compute`` call."""

    name = "spy"

    def __init__(self):
        super().__init__()
        self.seen = []

    def _compute(self, a, b):
        self.seen.append((a, b))
        return 0.5


def test_canonical_pair_is_order_insensitive():
    assert EntityRelatedness.canonical_pair("A", "B") == ("A", "B")
    assert EntityRelatedness.canonical_pair("B", "A") == ("A", "B")
    assert EntityRelatedness.canonical_pair("X", "X") == ("X", "X")


def test_compute_only_ever_sees_canonical_pairs():
    spy = OrderSpy()
    spy.relatedness("Z", "A")
    spy.relatedness("A", "Z")
    CachingRelatedness(spy).relatedness("Z", "A")
    assert spy.seen == [("A", "Z"), ("A", "Z"), ("A", "Z")]
    # A measure is pure: every call is one counted comparison.
    assert spy.comparisons == 3


def test_reversed_lookup_hits_the_same_cache_entry():
    spy = OrderSpy()
    memo = CachingRelatedness(spy)
    first = memo.relatedness("M", "K")
    second = memo.relatedness("K", "M")
    assert first == second
    assert spy.comparisons == 1
    assert memo.size == 1


@pytest.fixture(scope="module")
def links():
    return synthetic_link_world(
        SyntheticLinkWorldSpec(entities=N, seed=21)
    )


def test_milne_witten_symmetry_regression(links):
    measure = MilneWittenRelatedness(links, N)
    memo = CachingRelatedness(measure)
    entities = synthetic_entity_ids(N)
    for i, a in enumerate(entities):
        for b in entities[i + 1 :]:
            forward = memo.relatedness(a, b)
            backward = memo.relatedness(b, a)
            assert forward == backward
            assert measure.relatedness(b, a) == forward
    # Through the memo, each unordered pair is computed once despite
    # both orders; the bare measure counted one more per pair.
    assert measure.comparisons == 2 * memo.size
    assert memo.size <= N * (N - 1) // 2


def test_jaccard_symmetry_regression(links):
    measure = InlinkJaccardRelatedness(links)
    entities = synthetic_entity_ids(N)
    for a in entities[:10]:
        for b in entities[:10]:
            assert measure.relatedness(a, b) == measure.relatedness(b, a)


def test_kore_symmetry_regression(kb):
    weights = WeightModel(kb.keyphrases, kb.links)
    measure = KoreRelatedness(kb.keyphrases, weights)
    memo = CachingRelatedness(measure)
    entities = sorted(kb.entity_ids())[:10]
    for i, a in enumerate(entities):
        for b in entities[i + 1 :]:
            assert memo.relatedness(a, b) == memo.relatedness(b, a)
            assert measure.relatedness(b, a) == memo.relatedness(a, b)
    pairs = len(entities) * (len(entities) - 1) // 2
    assert measure.comparisons == 2 * pairs


def test_compute_pair_matches_relatedness_and_identity():
    spy = OrderSpy()
    memo = CachingRelatedness(spy)
    assert memo.relatedness("Q", "Q") == 1.0
    assert spy.relatedness("Q", "Q") == 1.0
    assert spy.comparisons == 0  # identity is never computed
    assert memo.relatedness("A", "B") == spy.relatedness("B", "A")
