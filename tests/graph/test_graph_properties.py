"""Property-based tests for the dense-subgraph algorithm.

Invariants checked over randomly generated mention-entity graphs:

* every mention that has at least one candidate receives exactly one
  entity, and that entity is one of its candidates;
* the algorithm is deterministic;
* with a single dominant coherent pair, the pair survives.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.dense_subgraph import (
    DenseSubgraphConfig,
    GreedyDenseSubgraph,
)
from repro.graph.mention_entity_graph import MentionEntityGraph
from repro.types import Mention
from tests.oracles.solver import restore, snapshot


def _make_graph(me_edges, ee_edges):
    """Build a graph from raw edge descriptions.

    me_edges: list of lists (one per mention) of (entity label, weight);
    ee_edges: list of (i, j, weight) over the union of entity labels.
    """
    mentions = [
        Mention(surface=f"m{i}", start=i * 2, end=i * 2 + 1)
        for i in range(len(me_edges))
    ]
    graph = MentionEntityGraph(mentions)
    for index, candidates in enumerate(me_edges):
        for label, weight in candidates:
            graph.add_mention_entity_edge(index, label, weight)
    entities = sorted(graph.active_entities())
    for i, j, weight in ee_edges:
        a = entities[i % len(entities)]
        b = entities[j % len(entities)]
        if a != b:
            graph.add_entity_entity_edge(a, b, weight)
    graph.rescale_and_balance(gamma=0.4)
    return graph


_weight = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
_candidates = st.lists(
    st.tuples(st.sampled_from([f"E{k}" for k in range(8)]), _weight),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
)
_me_edges = st.lists(_candidates, min_size=1, max_size=4)
_ee_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        _weight,
    ),
    max_size=8,
)


class TestSolverProperties:
    @given(_me_edges, _ee_edges)
    @settings(max_examples=60, deadline=None)
    def test_every_mention_assigned_a_candidate(self, me_edges, ee_edges):
        graph = _make_graph(me_edges, ee_edges)
        candidate_sets = {
            index: {label for label, _w in candidates}
            for index, candidates in enumerate(me_edges)
        }
        assignment = GreedyDenseSubgraph().solve(graph)
        assert set(assignment) == set(range(len(me_edges)))
        for index, entity in assignment.items():
            assert entity in candidate_sets[index]

    @given(_me_edges, _ee_edges)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, me_edges, ee_edges):
        first = GreedyDenseSubgraph().solve(
            _make_graph(me_edges, ee_edges)
        )
        second = GreedyDenseSubgraph().solve(
            _make_graph(me_edges, ee_edges)
        )
        assert first == second

    @given(_me_edges, _ee_edges)
    @settings(max_examples=30, deadline=None)
    def test_local_search_also_assigns_everything(
        self, me_edges, ee_edges
    ):
        config = DenseSubgraphConfig(
            enumeration_limit=1, local_search_iterations=50, seed=3
        )
        graph = _make_graph(me_edges, ee_edges)
        assignment = GreedyDenseSubgraph(config).solve(graph)
        assert set(assignment) == set(range(len(me_edges)))


class TestGraphStateProperties:
    @given(_me_edges, _ee_edges)
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_identity(self, me_edges, ee_edges):
        graph = _make_graph(me_edges, ee_edges)
        mark = snapshot(graph)
        degrees_before = {
            eid: graph.weighted_degree(eid)
            for eid in graph.active_entities()
        }
        # Remove everything removable, then restore.
        while True:
            removable = [
                eid
                for eid in graph.active_entities()
                if not graph.is_taboo(eid)
            ]
            if not removable:
                break
            graph.remove_entity(removable[0])
        restore(graph, mark)
        assert set(graph.active_entities()) == set(degrees_before)
        for eid, degree in degrees_before.items():
            assert abs(graph.weighted_degree(eid) - degree) < 1e-9

    @given(_me_edges, _ee_edges)
    @settings(max_examples=40, deadline=None)
    def test_rescaled_weights_in_unit_interval(self, me_edges, ee_edges):
        graph = _make_graph(me_edges, ee_edges)
        for index in range(graph.mention_count):
            for entity in graph.candidates_of(index):
                assert -1e-9 <= graph.me_weight(index, entity) <= 1.0
        for a in graph.active_entities():
            for b in graph.ee_neighbors(a):
                assert -1e-9 <= graph.ee_weight(a, b) <= 1.0
