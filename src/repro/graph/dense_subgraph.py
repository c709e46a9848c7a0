"""Greedy dense-subgraph disambiguation (Algorithm 1, Section 3.4.2).

Three phases:

1. **Pre-processing** — restrict the graph to the ``prune_factor × #mentions``
   entities with the smallest sum of squared shortest-path distances to the
   mention nodes (taboo entities are always kept).
2. **Main loop** — iteratively remove the non-taboo entity with the lowest
   weighted degree; track the iteration maximizing
   ``min weighted degree of entities / #entities`` and keep that subgraph.
3. **Post-processing** — the best subgraph may still contain several
   candidates per mention.  If the number of full mention→entity
   combinations is feasible, enumerate them exhaustively and pick the
   assignment with the largest total edge weight (mention-entity edges of
   the chosen pairs plus coherence edges among chosen entities); otherwise
   run a degree-proportional randomized local search.

The main loop runs in O(E log V) using two lazy-deletion min-heaps keyed by
``(weighted degree, entity id)``:

* a **victim heap** over non-taboo entities — degree changes push fresh
  entries, and entries whose recorded degree no longer matches the live
  degree (or whose entity was removed / became taboo) are discarded on pop;
* a **minimum heap** over all active entities, peeked to evaluate the
  density objective incrementally.

Best iterations are recorded as O(1) graph checkpoints (removal-prefix
indices) instead of frozenset snapshots.  Victims are the exact argmin of
``(degree, entity id)``, so the result does not depend on heap order; the
differential suite checks it bit-for-bit against a full-rescan loop kept
as a test oracle.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.faults.deadline import check_budget
from repro.graph.mention_entity_graph import MentionEntityGraph
from repro.graph.shortest_paths import entity_mention_distances
from repro.obs import get_metrics, get_tracer, log_event
from repro.types import EntityId
from repro.utils.rng import SeededRng

_LOG = logging.getLogger("repro.solver")


@dataclass(frozen=True)
class DenseSubgraphConfig:
    """Knobs of Algorithm 1.

    ``prune_factor`` — keep this many entities per mention in pre-processing
    (the paper's experimentally determined choice is 5).
    ``enumeration_limit`` — maximum number of full assignments to enumerate
    exhaustively in post-processing.
    ``local_search_iterations`` — iterations of the randomized local search
    used when enumeration is infeasible.
    ``seed`` — seed for the local search.
    """

    prune_factor: int = 5
    enumeration_limit: int = 20000
    local_search_iterations: int = 500
    seed: int = 42

    def __post_init__(self) -> None:
        if self.prune_factor < 1:
            raise GraphError("prune_factor must be >= 1")
        if self.enumeration_limit < 1:
            raise GraphError("enumeration_limit must be >= 1")


@dataclass
class SolverStats:
    """Counters of one :meth:`GreedyDenseSubgraph.solve` run."""

    #: Entities alive when the main loop started (after pre-pruning).
    initial_entities: int = 0
    #: Entities in the best (densest) subgraph.
    best_entities: int = 0
    #: Main-loop iterations (= entity removals).
    iterations: int = 0
    #: Heap pops, including discarded stale entries.
    heap_pops: int = 0
    #: Best-subgraph checkpoints taken (times the density objective
    #: improved, including the initial state).
    checkpoints: int = 0
    #: Best value of the min-weighted-degree density objective.
    best_objective: float = 0.0
    #: Post-processing strategy used: "enumerate", "local_search" or "".
    postprocess: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (for PipelineStats counters and benchmarks)."""
        return {
            "initial_entities": self.initial_entities,
            "best_entities": self.best_entities,
            "iterations": self.iterations,
            "heap_pops": self.heap_pops,
            "checkpoints": self.checkpoints,
            "best_objective": self.best_objective,
            "postprocess": self.postprocess,
        }


class GreedyDenseSubgraph:
    """Runs Algorithm 1 on a prepared mention-entity graph."""

    def __init__(self, config: Optional[DenseSubgraphConfig] = None):
        self.config = config if config is not None else DenseSubgraphConfig()

    def solve(
        self,
        graph: MentionEntityGraph,
        stats: Optional[SolverStats] = None,
    ) -> Dict[int, EntityId]:
        """Disambiguate: one entity per mention (mentions without any
        candidate are absent from the result).

        The run's counters are filled into *stats* when the caller passes
        one.  The solver keeps no per-call state, so threads may share it.
        """
        if stats is None:
            stats = SolverStats()
        if graph.mention_count == 0:
            return {}
        tracer = get_tracer()
        with tracer.span("solver.preprocess", category="solver"):
            self._preprocess(graph)
        stats.initial_entities = graph.entity_count()
        with tracer.span("solver.main_loop", category="solver"):
            best_checkpoint = self._main_loop(graph, stats)
            graph.rollback(best_checkpoint)
            # The local search samples by weighted degree; recompute the
            # degrees in canonical summation order so it sees the same
            # values however the best subgraph was reached.
            graph.canonicalize_degrees()
        stats.best_entities = graph.entity_count()
        with tracer.span("solver.postprocess", category="solver"):
            assignment = self._postprocess(graph, stats)
        self._publish_observations(stats)
        return assignment

    @staticmethod
    def _publish_observations(stats: SolverStats) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("solver.solves").inc()
            metrics.counter("solver.iterations").inc(stats.iterations)
            metrics.counter("solver.heap_pops").inc(stats.heap_pops)
            metrics.counter("solver.checkpoints").inc(stats.checkpoints)
            if stats.postprocess:
                metrics.counter(
                    f"solver.postprocess.{stats.postprocess}"
                ).inc()
        if _LOG.isEnabledFor(logging.DEBUG):
            log_event(
                _LOG,
                "solver.solve",
                initial_entities=stats.initial_entities,
                best_entities=stats.best_entities,
                iterations=stats.iterations,
                heap_pops=stats.heap_pops,
                checkpoints=stats.checkpoints,
                postprocess=stats.postprocess,
            )

    # ------------------------------------------------------------------
    # Phase 1: distance-based pruning
    # ------------------------------------------------------------------
    def _preprocess(self, graph: MentionEntityGraph) -> None:
        limit = self.config.prune_factor * graph.mention_count
        entities = graph.active_entities()
        if len(entities) <= limit:
            return
        distances = entity_mention_distances(graph)
        ranked = sorted(entities, key=lambda eid: (distances[eid], eid))
        graph.restrict_to_entities(ranked[:limit])

    # ------------------------------------------------------------------
    # Phase 2: greedy removal maximizing min-weighted-degree density
    # ------------------------------------------------------------------
    def _main_loop(
        self, graph: MentionEntityGraph, stats: SolverStats
    ) -> int:
        """Incremental heap loop; returns the best graph checkpoint."""
        best_checkpoint = graph.checkpoint()
        stats.checkpoints += 1
        victim_heap: List[Tuple[float, EntityId]] = []
        min_heap: List[Tuple[float, EntityId]] = []
        for entity_id in graph.active_entities():
            degree = graph.weighted_degree(entity_id)
            min_heap.append((degree, entity_id))
            if not graph.is_taboo(entity_id):
                victim_heap.append((degree, entity_id))
        heapq.heapify(victim_heap)
        heapq.heapify(min_heap)
        best_objective = self._peek_objective(graph, min_heap, stats)
        stats.best_objective = best_objective
        while True:
            check_budget("solver.iteration")
            victim = self._pop_victim(graph, victim_heap, stats)
            if victim is None:
                break
            stats.iterations += 1
            for entity_id, degree in graph.remove_entity(victim):
                heapq.heappush(min_heap, (degree, entity_id))
                if not graph.is_taboo(entity_id):
                    heapq.heappush(victim_heap, (degree, entity_id))
            objective = self._peek_objective(graph, min_heap, stats)
            if objective > best_objective:
                best_objective = objective
                best_checkpoint = graph.checkpoint()
                stats.checkpoints += 1
        stats.best_objective = best_objective
        return best_checkpoint

    @staticmethod
    def _pop_victim(
        graph: MentionEntityGraph,
        victim_heap: List[Tuple[float, EntityId]],
        stats: SolverStats,
    ) -> Optional[EntityId]:
        """Lowest (degree, entity id) among active non-taboo entities.

        Lazy deletion: entries whose degree is stale are discarded (a
        fresh entry was pushed when the degree changed); taboo status is
        monotone during removal, so taboo entries are discarded too.
        """
        while victim_heap:
            degree, entity_id = heapq.heappop(victim_heap)
            stats.heap_pops += 1
            if not graph.is_active(entity_id):
                continue
            if graph.weighted_degree(entity_id) != degree:
                continue
            if graph.is_taboo(entity_id):
                continue
            return entity_id
        return None

    @staticmethod
    def _peek_objective(
        graph: MentionEntityGraph,
        min_heap: List[Tuple[float, EntityId]],
        stats: SolverStats,
    ) -> float:
        """``min weighted degree / entity count`` without a full rescan."""
        count = graph.entity_count()
        if count == 0:
            return 0.0
        while min_heap:
            degree, entity_id = min_heap[0]
            if (
                graph.is_active(entity_id)
                and graph.weighted_degree(entity_id) == degree
            ):
                return degree / count
            heapq.heappop(min_heap)
            stats.heap_pops += 1
        return 0.0

    # ------------------------------------------------------------------
    # Phase 3: final one-entity-per-mention selection
    # ------------------------------------------------------------------
    def _postprocess(
        self, graph: MentionEntityGraph, stats: SolverStats
    ) -> Dict[int, EntityId]:
        per_mention: List[Tuple[int, List[EntityId]]] = []
        for index in range(graph.mention_count):
            candidates = graph.candidates_of(index)
            if candidates:
                per_mention.append((index, candidates))
        if not per_mention:
            return {}
        combinations = 1
        feasible = True
        for _index, candidates in per_mention:
            combinations *= len(candidates)
            if combinations > self.config.enumeration_limit:
                feasible = False
                break
        if feasible:
            stats.postprocess = "enumerate"
            assignment = self._enumerate(graph, per_mention)
        else:
            stats.postprocess = "local_search"
            assignment = self._local_search(graph, per_mention)
        return assignment

    def _enumerate(
        self,
        graph: MentionEntityGraph,
        per_mention: Sequence[Tuple[int, List[EntityId]]],
    ) -> Dict[int, EntityId]:
        best_assignment: Dict[int, EntityId] = {}
        best_score = float("-inf")
        indices = [index for index, _c in per_mention]
        pools = [candidates for _i, candidates in per_mention]
        choice = [0] * len(pools)
        while True:
            assignment = {
                indices[slot]: pools[slot][choice[slot]]
                for slot in range(len(pools))
            }
            score = self._assignment_score(graph, assignment)
            if score > best_score:
                best_score = score
                best_assignment = assignment
            # Odometer increment.
            slot = len(pools) - 1
            while slot >= 0:
                choice[slot] += 1
                if choice[slot] < len(pools[slot]):
                    break
                choice[slot] = 0
                slot -= 1
            if slot < 0:
                break
        return best_assignment

    def _local_search(
        self,
        graph: MentionEntityGraph,
        per_mention: Sequence[Tuple[int, List[EntityId]]],
    ) -> Dict[int, EntityId]:
        rng = SeededRng(self.config.seed)
        # Start greedily: best mention-entity edge per mention.
        current = {
            index: max(
                candidates,
                key=lambda eid: (graph.me_weight(index, eid), eid),
            )
            for index, candidates in per_mention
        }
        current_score = self._assignment_score(graph, current)
        best = dict(current)
        best_score = current_score
        pools = dict(per_mention)
        indices = [index for index, _c in per_mention]
        for _step in range(self.config.local_search_iterations):
            index = rng.choice(indices)
            candidates = pools[index]
            if len(candidates) < 2:
                continue
            # Candidates are sampled proportionally to weighted degree.
            weights = [
                graph.weighted_degree(eid) + 1e-9 for eid in candidates
            ]
            proposal = rng.weighted_choice(candidates, weights)
            if proposal == current[index]:
                continue
            previous = current[index]
            current[index] = proposal
            score = self._assignment_score(graph, current)
            if score >= current_score:
                current_score = score
                if score > best_score:
                    best_score = score
                    best = dict(current)
            else:
                current[index] = previous
        return best

    @staticmethod
    def _assignment_score(
        graph: MentionEntityGraph, assignment: Dict[int, EntityId]
    ) -> float:
        """Total edge weight of an assignment: chosen mention-entity edges
        plus coherence among the distinct chosen entities."""
        score = 0.0
        for index, entity_id in assignment.items():
            score += graph.me_weight(index, entity_id)
        chosen = sorted(set(assignment.values()))
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                score += graph.ee_weight(a, b)
        return score
