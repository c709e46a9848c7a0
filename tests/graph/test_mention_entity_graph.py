"""Tests for the mention-entity graph."""

import pytest

from repro.errors import GraphError
from repro.graph.mention_entity_graph import MentionEntityGraph
from repro.types import Mention
from tests.oracles.solver import minimum_weighted_degree, restore, snapshot


def _mentions(n):
    return [
        Mention(surface=f"m{i}", start=i * 2, end=i * 2 + 1)
        for i in range(n)
    ]


@pytest.fixture
def graph():
    g = MentionEntityGraph(_mentions(2))
    g.add_mention_entity_edge(0, "A", 0.8)
    g.add_mention_entity_edge(0, "B", 0.2)
    g.add_mention_entity_edge(1, "C", 0.5)
    g.add_mention_entity_edge(1, "D", 0.5)
    g.add_entity_entity_edge("A", "C", 0.9)
    g.add_entity_entity_edge("B", "D", 0.1)
    return g


class TestConstruction:
    def test_candidates(self, graph):
        assert graph.candidates_of(0) == ["A", "B"]

    def test_weighted_degree(self, graph):
        assert graph.weighted_degree("A") == pytest.approx(0.8 + 0.9)

    def test_coherence_edge_requires_candidates(self):
        g = MentionEntityGraph(_mentions(1))
        g.add_mention_entity_edge(0, "A", 1.0)
        with pytest.raises(GraphError):
            g.add_entity_entity_edge("A", "Z", 0.5)

    def test_self_coherence_edge_ignored(self, graph):
        graph.add_entity_entity_edge("A", "A", 1.0)
        assert graph.ee_weight("A", "A") == 0.0

    def test_unknown_mention_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.add_mention_entity_edge(9, "A", 1.0)

    def test_edge_update_replaces_weight(self, graph):
        graph.add_mention_entity_edge(0, "A", 0.5)
        assert graph.me_weight(0, "A") == 0.5
        assert graph.weighted_degree("A") == pytest.approx(0.5 + 0.9)


class TestRemoval:
    def test_remove_updates_neighbors(self, graph):
        graph.remove_entity("B")
        assert graph.candidates_of(0) == ["A"]
        assert graph.weighted_degree("D") == pytest.approx(0.5)

    def test_taboo_protection(self, graph):
        graph.remove_entity("B")
        with pytest.raises(GraphError):
            graph.remove_entity("A")  # last candidate of mention 0

    def test_is_taboo(self, graph):
        assert not graph.is_taboo("A")
        graph.remove_entity("B")
        assert graph.is_taboo("A")

    def test_minimum_weighted_degree(self, graph):
        assert minimum_weighted_degree(graph) == pytest.approx(0.2 + 0.1)

    def test_snapshot_restore(self, graph):
        mark = snapshot(graph)
        graph.remove_entity("B")
        restore(graph, mark)
        assert graph.candidates_of(0) == ["A", "B"]
        assert graph.weighted_degree("D") == pytest.approx(0.5 + 0.1)

    def test_restrict_to_entities(self, graph):
        graph.restrict_to_entities(["A", "C"])
        assert graph.active_entities() == ["A", "C"]

    def test_restrict_keeps_taboo(self, graph):
        graph.remove_entity("B")
        # A is now taboo; restricting to others must keep it.
        graph.restrict_to_entities(["C", "D"])
        assert "A" in graph.active_entities()


class TestRescaling:
    def test_rescale_families_to_unit(self, graph):
        graph.rescale_and_balance(gamma=0.4)
        for index in (0, 1):
            for entity in graph.candidates_of(index):
                assert 0.0 <= graph.me_weight(index, entity) <= 0.6 + 1e-9

    def test_gamma_balances_coherence(self, graph):
        graph.rescale_and_balance(gamma=0.0)
        assert graph.ee_weight("A", "C") == 0.0

    def test_invalid_gamma(self, graph):
        with pytest.raises(GraphError):
            graph.rescale_and_balance(gamma=1.5)

    def test_degrees_consistent_after_rescale(self, graph):
        graph.rescale_and_balance(gamma=0.4)
        expected = graph.me_weight(0, "A") + graph.ee_weight("A", "C")
        assert graph.weighted_degree("A") == pytest.approx(expected)
