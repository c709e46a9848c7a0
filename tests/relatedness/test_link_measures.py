"""Tests for the link-based relatedness measures (MW, Jaccard)."""

import pytest

from repro.kb.links import LinkGraph
from repro.relatedness.caching import CachingRelatedness
from repro.relatedness.jaccard import InlinkJaccardRelatedness
from repro.relatedness.milne_witten import MilneWittenRelatedness


@pytest.fixture
def links():
    g = LinkGraph()
    # A and B share two inlinks; C shares nothing; D is link-poor.
    for source in ("X", "Y"):
        g.add_link(source, "A")
        g.add_link(source, "B")
    g.add_link("Z", "A")
    g.add_link("W", "C")
    return g


class TestMilneWitten:
    def test_overlapping_entities_related(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        assert mw.relatedness("A", "B") > 0.0

    def test_disjoint_inlinks_zero(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        assert mw.relatedness("A", "C") == 0.0

    def test_no_inlinks_zero(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        assert mw.relatedness("A", "D") == 0.0

    def test_identity_is_one(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        assert mw.relatedness("A", "A") == 1.0

    def test_symmetry(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        assert mw.relatedness("A", "B") == mw.relatedness("B", "A")

    def test_identical_inlink_sets_high(self):
        g = LinkGraph()
        for source in ("X", "Y", "Z"):
            g.add_link(source, "A")
            g.add_link(source, "B")
        mw = MilneWittenRelatedness(g, collection_size=100)
        assert mw.relatedness("A", "B") == pytest.approx(1.0)

    def test_comparison_counter(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        memo = CachingRelatedness(mw)
        memo.relatedness("A", "B")
        memo.relatedness("B", "A")  # memoized, symmetric
        memo.relatedness("A", "C")
        assert mw.comparisons == 2
        mw.relatedness("A", "B")  # the bare measure counts every call
        assert mw.comparisons == 3

    def test_reset_stats(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        mw.relatedness("A", "B")
        mw.reset_stats()
        assert mw.comparisons == 0

    def test_invalid_collection_size(self, links):
        with pytest.raises(ValueError):
            MilneWittenRelatedness(links, collection_size=1)

    def test_values_in_unit_interval(self, links):
        mw = MilneWittenRelatedness(links, collection_size=100)
        for a in "ABCD":
            for b in "ABCD":
                assert 0.0 <= mw.relatedness(a, b) <= 1.0


class TestInlinkJaccard:
    def test_value(self, links):
        jac = InlinkJaccardRelatedness(links)
        # A: {X, Y, Z}; B: {X, Y} -> 2/3.
        assert jac.relatedness("A", "B") == pytest.approx(2 / 3)

    def test_disjoint_zero(self, links):
        jac = InlinkJaccardRelatedness(links)
        assert jac.relatedness("A", "C") == 0.0

    def test_rank_candidates(self, links):
        jac = InlinkJaccardRelatedness(links)
        ranked = jac.rank_candidates("A", ["C", "B", "D"])
        assert ranked[0] == "B"
