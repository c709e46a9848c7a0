"""The weighted mention-entity graph (Section 3.4.1).

Nodes are the mentions of the input text plus their candidate entities; a
mention-entity edge carries (a combination of) popularity and similarity, an
entity-entity edge carries coherence.  Both edge families are scaled to
[0, 1] and rescaled so their averages match, then balanced by the γ
parameter (coherence weight) — exactly the construction of Section 3.6.1:
entity-entity weights are multiplied by γ, mention-entity weights by (1-γ).

The graph supports incremental entity removal with the bookkeeping
Algorithm 1 needs to run in O(E log V):

* **weighted degrees** are maintained under removal; ``remove_entity``
  returns the live neighbours whose degree changed so callers can keep
  priority queues fresh;
* **taboo status** ("last remaining candidate of some mention") is answered
  in O(1) from per-mention live-candidate counters instead of re-sorting
  candidate lists;
* **checkpoints** — removals are logged in order, so recording the current
  state is O(1) (``checkpoint`` returns the removal count) and
  ``rollback`` undoes removals in reverse, restoring degrees and counters
  incrementally.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import GraphError
from repro.types import EntityId, Mention

#: Mentions are addressed by their index in the document's mention list.
MentionIndex = int


class MentionEntityGraph:
    """Weighted undirected graph over mentions and candidate entities."""

    def __init__(self, mentions: List[Mention]):
        self.mentions = list(mentions)
        self._me: Dict[MentionIndex, Dict[EntityId, float]] = {
            index: {} for index in range(len(mentions))
        }
        self._entity_mentions: Dict[EntityId, Set[MentionIndex]] = {}
        self._ee: Dict[EntityId, Dict[EntityId, float]] = {}
        self._degree: Dict[EntityId, float] = {}
        self._removed: Set[EntityId] = set()
        #: Live (non-removed) candidate count per mention.
        self._live_candidates: Dict[MentionIndex, int] = {
            index: 0 for index in range(len(mentions))
        }
        #: Number of mentions for which the entity is the sole live
        #: candidate; > 0 means the entity is taboo.
        self._taboo_count: Dict[EntityId, int] = {}
        #: Ordered removal log: (entity, ((mention, survivor), ...),
        #: ((neighbour, degree before the removal), ...)).  The survivors
        #: became sole candidates through this removal; the recorded
        #: neighbour degrees make ``rollback`` a bit-exact inverse (adding
        #: the edge weight back would drift by float rounding).
        self._removal_log: List[
            Tuple[
                EntityId,
                Tuple[Tuple[MentionIndex, EntityId], ...],
                Tuple[Tuple[EntityId, float], ...],
            ]
        ] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_mention_entity_edge(
        self, mention_index: MentionIndex, entity_id: EntityId, weight: float
    ) -> None:
        """Set the weight of a mention-entity edge."""
        if mention_index not in self._me:
            raise GraphError(f"unknown mention index {mention_index}")
        is_new = entity_id not in self._me[mention_index]
        previous = self._me[mention_index].get(entity_id, 0.0)
        self._me[mention_index][entity_id] = weight
        self._entity_mentions.setdefault(entity_id, set()).add(mention_index)
        self._ee.setdefault(entity_id, {})
        self._degree[entity_id] = (
            self._degree.get(entity_id, 0.0) - previous + weight
        )
        if is_new and entity_id not in self._removed:
            count = self._live_candidates[mention_index] + 1
            self._live_candidates[mention_index] = count
            if count == 1:
                self._bump_taboo(entity_id, +1)
            elif count == 2:
                # The previously sole candidate is no longer critical.
                other = self._sole_live_candidate(
                    mention_index, excluding=entity_id
                )
                if other is not None:
                    self._bump_taboo(other, -1)

    def add_entity_entity_edge(
        self, a: EntityId, b: EntityId, weight: float
    ) -> None:
        """Set the weight of a coherence edge (symmetric)."""
        if a == b:
            return
        if a not in self._entity_mentions or b not in self._entity_mentions:
            raise GraphError(
                "coherence edges require both entities to be candidates"
            )
        previous = self._ee.setdefault(a, {}).get(b, 0.0)
        self._ee[a][b] = weight
        self._ee.setdefault(b, {})[a] = weight
        delta = weight - previous
        self._degree[a] = self._degree.get(a, 0.0) + delta
        self._degree[b] = self._degree.get(b, 0.0) + delta

    def rescale_and_balance(self, gamma: float) -> None:
        """Scale both edge families to [0,1], equalize their averages, and
        apply the γ coherence balance in place."""
        if not 0.0 <= gamma <= 1.0:
            raise GraphError("gamma must be in [0, 1]")
        self._scale_me_to_unit()
        self._scale_ee_to_unit()
        me_avg = self._average(self._iter_me())
        ee_avg = self._average(self._iter_ee())
        if me_avg > 0.0 and ee_avg > 0.0:
            # Rescale entity-entity weights to match the mention-entity
            # average, then balance with gamma.
            factor = me_avg / ee_avg
            for a, b, weight in list(self._iter_ee()):
                self._set_ee(a, b, weight * factor)
        for index, entity_id, weight in list(self._iter_me()):
            self._set_me(index, entity_id, weight * (1.0 - gamma))
        for a, b, weight in list(self._iter_ee()):
            # The average-equalization factor can exceed 1/γ when the
            # coherence family is dominated by a few strong edges, so the
            # balanced weight is clamped to keep the documented [0, 1]
            # invariant of both edge families.
            self._set_ee(a, b, min(weight * gamma, 1.0))
        self._recompute_degrees()

    def _scale_me_to_unit(self) -> None:
        edges = list(self._iter_me())
        low, high = self._bounds(edges)
        for index, entity_id, weight in edges:
            self._set_me(index, entity_id, self._unit(weight, low, high))

    def _scale_ee_to_unit(self) -> None:
        edges = list(self._iter_ee())
        low, high = self._bounds(edges)
        for a, b, weight in edges:
            self._set_ee(a, b, self._unit(weight, low, high))

    @staticmethod
    def _bounds(edges) -> Tuple[float, float]:
        weights = [w for *_ids, w in edges]
        if not weights:
            return (0.0, 0.0)
        return (min(weights), max(weights))

    @staticmethod
    def _unit(weight: float, low: float, high: float) -> float:
        # Scale into [0, 1] by the family maximum.  Dividing by the max
        # (rather than min-max normalizing) preserves relative magnitudes
        # and keeps the degenerate two-edge case meaningful.
        if high > 0.0:
            return max(weight, 0.0) / high
        return 0.0

    @staticmethod
    def _average(edges) -> float:
        weights = [w for *_ids, w in edges]
        return sum(weights) / len(weights) if weights else 0.0

    def _iter_me(self) -> Iterable[Tuple[MentionIndex, EntityId, float]]:
        for index in sorted(self._me):
            for entity_id in sorted(self._me[index]):
                yield index, entity_id, self._me[index][entity_id]

    def _iter_ee(self) -> Iterable[Tuple[EntityId, EntityId, float]]:
        for a in sorted(self._ee):
            for b in sorted(self._ee[a]):
                if a < b:
                    yield a, b, self._ee[a][b]

    def _set_me(
        self, index: MentionIndex, entity_id: EntityId, weight: float
    ) -> None:
        self._me[index][entity_id] = weight

    def _set_ee(self, a: EntityId, b: EntityId, weight: float) -> None:
        self._ee[a][b] = weight
        self._ee[b][a] = weight

    def _recompute_degrees(self) -> None:
        self._degree = {}
        for index, entity_id, weight in self._iter_me():
            self._degree[entity_id] = (
                self._degree.get(entity_id, 0.0) + weight
            )
        for a, b, weight in self._iter_ee():
            self._degree[a] = self._degree.get(a, 0.0) + weight
            self._degree[b] = self._degree.get(b, 0.0) + weight

    # ------------------------------------------------------------------
    # Incremental bookkeeping helpers
    # ------------------------------------------------------------------
    def _bump_taboo(self, entity_id: EntityId, delta: int) -> None:
        count = self._taboo_count.get(entity_id, 0) + delta
        if count:
            self._taboo_count[entity_id] = count
        else:
            self._taboo_count.pop(entity_id, None)

    def _sole_live_candidate(
        self, mention_index: MentionIndex, excluding: EntityId
    ):
        for eid in self._me[mention_index]:
            if eid != excluding and eid not in self._removed:
                return eid
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mention_count(self) -> int:
        """Number of mention nodes."""
        return len(self.mentions)

    def active_entities(self) -> List[EntityId]:
        """Entity nodes not yet removed, sorted."""
        return sorted(
            eid for eid in self._entity_mentions if eid not in self._removed
        )

    def entity_count(self) -> int:
        """Number of active entity nodes."""
        return len(self._entity_mentions) - len(self._removed)

    def is_active(self, entity_id: EntityId) -> bool:
        """Whether the entity is a known, non-removed node."""
        return (
            entity_id in self._entity_mentions
            and entity_id not in self._removed
        )

    def candidates_of(self, mention_index: MentionIndex) -> List[EntityId]:
        """Active candidate entities of a mention."""
        return sorted(
            eid
            for eid in self._me[mention_index]
            if eid not in self._removed
        )

    def live_candidate_count(self, mention_index: MentionIndex) -> int:
        """Number of active candidates of a mention (O(1))."""
        return self._live_candidates[mention_index]

    def mentions_of(self, entity_id: EntityId) -> FrozenSet[MentionIndex]:
        """Mentions the (active) entity is a candidate for."""
        if entity_id in self._removed:
            return frozenset()
        return frozenset(self._entity_mentions.get(entity_id, set()))

    def me_weight(
        self, mention_index: MentionIndex, entity_id: EntityId
    ) -> float:
        """Weight of a mention-entity edge (0 when absent)."""
        return self._me[mention_index].get(entity_id, 0.0)

    def ee_weight(self, a: EntityId, b: EntityId) -> float:
        """Weight of a coherence edge (0 when absent)."""
        return self._ee.get(a, {}).get(b, 0.0)

    def ee_neighbors(self, entity_id: EntityId) -> List[EntityId]:
        """Active coherence neighbours of an entity."""
        return sorted(
            other
            for other in self._ee.get(entity_id, {})
            if other not in self._removed
        )

    def weighted_degree(self, entity_id: EntityId) -> float:
        """Total incident edge weight of an entity node (Section 3.4.2),
        counting only edges to non-removed nodes."""
        if entity_id in self._removed:
            return 0.0
        return self._degree.get(entity_id, 0.0)

    def is_taboo(self, entity_id: EntityId) -> bool:
        """An entity is taboo if it is the last remaining candidate for any
        mention it is connected to.  Answered in O(1) from counters."""
        if entity_id in self._removed:
            return False
        return self._taboo_count.get(entity_id, 0) > 0

    # ------------------------------------------------------------------
    # Mutation (used by the greedy algorithm)
    # ------------------------------------------------------------------
    def remove_entity(
        self, entity_id: EntityId
    ) -> List[Tuple[EntityId, float]]:
        """Remove a non-taboo entity node and update degrees and taboo
        counters incrementally.

        Returns the live coherence neighbours whose weighted degree
        changed, as (entity, new degree) pairs, so callers maintaining a
        priority queue can push fresh entries.
        """
        if entity_id in self._removed:
            return []
        if self.is_taboo(entity_id):
            raise GraphError(
                f"cannot remove taboo entity {entity_id!r}: it is the last "
                "candidate of a mention"
            )
        self._removed.add(entity_id)
        # Live-candidate counters: every mention of this entity loses one
        # candidate; a mention dropping to a single candidate makes the
        # survivor taboo.
        new_critical: List[Tuple[MentionIndex, EntityId]] = []
        for index in self._entity_mentions.get(entity_id, ()):
            count = self._live_candidates[index] - 1
            self._live_candidates[index] = count
            if count == 1:
                survivor = self._sole_live_candidate(
                    index, excluding=entity_id
                )
                if survivor is not None:
                    self._bump_taboo(survivor, +1)
                    new_critical.append((index, survivor))
        # Degrees of entity neighbours shrink by the shared edge weight;
        # mention nodes carry no tracked degree.
        affected: List[Tuple[EntityId, float]] = []
        previous_degrees: List[Tuple[EntityId, float]] = []
        for other, weight in self._ee.get(entity_id, {}).items():
            if other not in self._removed:
                before = self._degree.get(other, 0.0)
                previous_degrees.append((other, before))
                degree = before - weight
                self._degree[other] = degree
                affected.append((other, degree))
        self._removal_log.append(
            (entity_id, tuple(new_critical), tuple(previous_degrees))
        )
        return affected

    def restrict_to_entities(self, keep: Iterable[EntityId]) -> None:
        """Remove all entities not in *keep* (pre-processing phase)."""
        keep_set = set(keep)
        for entity_id in self.active_entities():
            if entity_id not in keep_set and not self.is_taboo(entity_id):
                self.remove_entity(entity_id)

    # ------------------------------------------------------------------
    # Checkpoints (O(1) state recording for Algorithm 1's main loop)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """O(1) marker for the current state: the number of removals so
        far.  Valid until :meth:`canonicalize_degrees` clears the log."""
        return len(self._removal_log)

    def rollback(self, checkpoint: int) -> None:
        """Undo removals in reverse order until only the first
        *checkpoint* removals remain, restoring degrees and taboo
        counters incrementally."""
        if checkpoint > len(self._removal_log):
            raise GraphError(
                f"checkpoint {checkpoint} is ahead of the removal log "
                f"({len(self._removal_log)} entries)"
            )
        while len(self._removal_log) > checkpoint:
            entity_id, new_critical, previous_degrees = (
                self._removal_log.pop()
            )
            for _index, survivor in new_critical:
                self._bump_taboo(survivor, -1)
            for index in self._entity_mentions.get(entity_id, ()):
                self._live_candidates[index] += 1
            self._removed.discard(entity_id)
            # Undoing in exact reverse order means the live set now equals
            # the one at removal time, so the entity's own stored degree
            # is valid again; neighbours get their recorded pre-removal
            # degrees back bit-exactly.
            for other, before in previous_degrees:
                self._degree[other] = before

    def canonicalize_degrees(self) -> None:
        """Recompute every active entity's degree from scratch in sorted
        summation order.

        Incremental decrements (and the graph-construction accumulation
        order) can leave degrees a few ulps away from a canonical
        recomputation; calling this gives a summation-order-independent
        state, so downstream consumers (e.g. the local search's
        degree-proportional sampling) see identical values no matter how
        the current active set was reached.  Outstanding
        :meth:`checkpoint` markers become invalid.
        """
        degrees: Dict[EntityId, float] = {}
        for entity_id, mention_set in self._entity_mentions.items():
            if entity_id in self._removed:
                continue
            total = 0.0
            for index in sorted(mention_set):
                total += self._me[index].get(entity_id, 0.0)
            for other in sorted(self._ee.get(entity_id, {})):
                if other not in self._removed:
                    total += self._ee[entity_id][other]
            degrees[entity_id] = total
        self._degree = degrees
        self._removal_log = []
