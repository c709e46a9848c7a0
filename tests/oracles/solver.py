"""Algorithm 1's main loop as a full rescan (test oracle).

Every iteration scans all active entities for the non-taboo one with the
lowest ``(weighted degree, entity id)`` and recomputes the density
objective from scratch: O(V²) per document, the way Section 3.4.2 states
the algorithm.  :class:`ReferenceDenseSubgraph` runs it in place of the
production heap loop, so the differential suite can require
bit-identical assignments.

The best state is recorded as a graph checkpoint (the removal loop only
ever removes, so every state it visits is a prefix of the removal log);
:func:`restore` rolls back to it and recomputes degrees canonically.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.graph.dense_subgraph import GreedyDenseSubgraph, SolverStats
from repro.graph.mention_entity_graph import MentionEntityGraph
from repro.types import EntityId


def snapshot(graph: MentionEntityGraph) -> int:
    """A marker for the current state (valid until :func:`restore`)."""
    return graph.checkpoint()


def restore(graph: MentionEntityGraph, mark: int) -> None:
    """Return to the state *mark* recorded, with canonical degrees and a
    cleared removal log."""
    graph.rollback(mark)
    graph.canonicalize_degrees()


def minimum_weighted_degree(graph: MentionEntityGraph) -> float:
    """Minimum weighted degree over the active entities (0 when none)."""
    active = graph.active_entities()
    if not active:
        return 0.0
    return min(graph.weighted_degree(eid) for eid in active)


def objective(graph: MentionEntityGraph) -> float:
    """``min weighted degree / entity count``, recomputed in full."""
    count = graph.entity_count()
    if count == 0:
        return 0.0
    return minimum_weighted_degree(graph) / count


def lowest_degree_non_taboo(
    graph: MentionEntityGraph,
) -> Optional[EntityId]:
    """Argmin of ``(degree, entity id)`` over active non-taboo entities."""
    best_key: Optional[Tuple[float, EntityId]] = None
    for entity_id in graph.active_entities():
        if graph.is_taboo(entity_id):
            continue
        key = (graph.weighted_degree(entity_id), entity_id)
        if best_key is None or key < best_key:
            best_key = key
    return best_key[1] if best_key is not None else None


def main_loop_reference(
    graph: MentionEntityGraph, stats: SolverStats
) -> int:
    """The full-rescan loop; returns the best state's checkpoint."""
    best = snapshot(graph)
    stats.checkpoints += 1
    best_objective = objective(graph)
    while True:
        victim = lowest_degree_non_taboo(graph)
        if victim is None:
            break
        stats.iterations += 1
        graph.remove_entity(victim)
        value = objective(graph)
        if value > best_objective:
            best_objective = value
            best = snapshot(graph)
            stats.checkpoints += 1
    stats.best_objective = best_objective
    return best


class ReferenceDenseSubgraph(GreedyDenseSubgraph):
    """Algorithm 1 with the full-rescan main loop in place of the heaps.

    Pre- and post-processing are the production phases; ``solve`` rolls
    back to the returned checkpoint and canonicalizes degrees, which is
    :func:`restore`.
    """

    def _main_loop(
        self, graph: MentionEntityGraph, stats: SolverStats
    ) -> int:
        return main_loop_reference(graph, stats)
