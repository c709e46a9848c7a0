"""Property tests for the graph's incremental bookkeeping and the
equivalence of the heap solver with the full-rescan oracle.

* after any sequence of ``remove_entity`` + ``rollback``/``restore``,
  every active entity's weighted degree equals a from-scratch
  recomputation over the public API;
* the O(1) taboo counters agree with the definition "last remaining
  candidate of some mention";
* the incremental heap main loop and the full-rescan loop of
  ``tests/oracles/solver.py`` produce identical assignments on seeded
  random graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.dense_subgraph import (
    DenseSubgraphConfig,
    GreedyDenseSubgraph,
    SolverStats,
)
from repro.graph.synthetic import SyntheticGraphSpec, synthetic_graph
from tests.oracles.solver import ReferenceDenseSubgraph, restore, snapshot


def _recomputed_degree(graph, entity_id):
    """Weighted degree recomputed from scratch via the public API."""
    degree = sum(
        graph.me_weight(index, entity_id)
        for index in graph.mentions_of(entity_id)
    )
    degree += sum(
        graph.ee_weight(entity_id, other)
        for other in graph.ee_neighbors(entity_id)
    )
    return degree


def _taboo_by_definition(graph, entity_id):
    """Taboo per Section 3.4.2: sole remaining candidate of a mention."""
    return any(
        len(graph.candidates_of(index)) <= 1
        for index in graph.mentions_of(entity_id)
    )


def _check_state(graph):
    for entity_id in graph.active_entities():
        assert graph.weighted_degree(entity_id) == pytest.approx(
            _recomputed_degree(graph, entity_id), abs=1e-9
        )
        assert graph.is_taboo(entity_id) == _taboo_by_definition(
            graph, entity_id
        )
    for index in range(graph.mention_count):
        assert graph.live_candidate_count(index) == len(
            graph.candidates_of(index)
        )


_spec = st.builds(
    SyntheticGraphSpec,
    mentions=st.integers(min_value=1, max_value=6),
    candidates_per_mention=st.integers(min_value=1, max_value=5),
    ee_neighbors=st.integers(min_value=0, max_value=6),
    shared_fraction=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestIncrementalState:
    @given(_spec, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_degrees_and_taboo_after_removals_and_rollbacks(
        self, spec, op_seed
    ):
        graph = synthetic_graph(spec)
        rng = random.Random(op_seed)
        checkpoints = [graph.checkpoint()]
        for _step in range(30):
            action = rng.random()
            removable = [
                eid
                for eid in graph.active_entities()
                if not graph.is_taboo(eid)
            ]
            if action < 0.6 and removable:
                graph.remove_entity(rng.choice(removable))
            elif action < 0.8:
                checkpoints.append(graph.checkpoint())
            else:
                target = rng.choice(checkpoints)
                graph.rollback(target)
                checkpoints = [
                    mark for mark in checkpoints if mark <= target
                ] or [target]
            _check_state(graph)

    @given(_spec)
    @settings(max_examples=30, deadline=None)
    def test_restore_resets_counters(self, spec):
        graph = synthetic_graph(spec)
        active = set(graph.active_entities())
        mark = snapshot(graph)
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
        assert set(graph.active_entities()) == active
        assert graph.checkpoint() == 0
        _check_state(graph)

    @given(_spec, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_rollback_to_base_is_identity(self, spec, op_seed):
        graph = synthetic_graph(spec)
        base = graph.checkpoint()
        before = {
            eid: graph.weighted_degree(eid)
            for eid in graph.active_entities()
        }
        rng = random.Random(op_seed)
        for _step in range(15):
            removable = [
                eid
                for eid in graph.active_entities()
                if not graph.is_taboo(eid)
            ]
            if not removable:
                break
            graph.remove_entity(rng.choice(removable))
        graph.rollback(base)
        assert set(graph.active_entities()) == set(before)
        for eid, degree in before.items():
            assert graph.weighted_degree(eid) == degree


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_heap_loop_matches_reference_scan(self, seed):
        spec = SyntheticGraphSpec(
            mentions=4 + seed % 5,
            candidates_per_mention=2 + seed % 4,
            ee_neighbors=1 + seed % 5,
            shared_fraction=0.15,
            seed=seed,
        )
        fast = GreedyDenseSubgraph().solve(synthetic_graph(spec))
        reference = ReferenceDenseSubgraph().solve(synthetic_graph(spec))
        assert fast == reference

    @pytest.mark.parametrize("seed", range(5))
    def test_equivalence_with_pruning_and_local_search(self, seed):
        spec = SyntheticGraphSpec(
            mentions=5,
            candidates_per_mention=6,
            ee_neighbors=4,
            shared_fraction=0.2,
            seed=100 + seed,
        )
        config = DenseSubgraphConfig(
            prune_factor=2, enumeration_limit=8, local_search_iterations=80
        )
        fast = GreedyDenseSubgraph(config).solve(synthetic_graph(spec))
        reference = ReferenceDenseSubgraph(config).solve(
            synthetic_graph(spec)
        )
        assert fast == reference

    def test_stats_populated(self):
        spec = SyntheticGraphSpec(mentions=5, candidates_per_mention=4)
        stats = SolverStats()
        GreedyDenseSubgraph().solve(synthetic_graph(spec), stats)
        assert stats.initial_entities > 0
        assert stats.best_entities > 0
        assert stats.iterations > 0
        assert stats.heap_pops >= stats.iterations
        assert stats.postprocess in {"enumerate", "local_search"}
