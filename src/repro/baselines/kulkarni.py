"""Kulkarni-et-al-style collective disambiguation (Section 3.2).

Three configurations, mirroring Table 3.2:

* **Kul s** — bag-of-words similarity only: IDF-weighted cosine between the
  document context and the entity's keyword set.  Unlike AIDA's sim-k, the
  entity context is a bag of *words*, not phrases, and there is no partial
  phrase matching — the difference the paper credits for sim-k's edge.
* **Kul sp** — linear combination of the prior and Kul s.
* **Kul CI** — joint inference over sum of mention scores plus pairwise
  Milne–Witten coherence.  The original relaxes an ILP; we use the
  hill-climbing variant the paper also names, with random restarts, which
  has the same objective and comparable behaviour at our scale.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.kb.knowledge_base import KnowledgeBase
from repro.relatedness.base import EntityRelatedness
from repro.relatedness.caching import memoized
from repro.relatedness.milne_witten import MilneWittenRelatedness
from repro.similarity.context import DocumentContext
from repro.types import (
    DisambiguationResult,
    Document,
    EntityId,
    MentionAssignment,
    OUT_OF_KB,
)
from repro.utils.rng import SeededRng
from repro.weights.model import WeightModel


class KulkarniMode(enum.Enum):
    """Which Kulkarni configuration to run (s / sp / CI)."""
    SIMILARITY = "s"
    SIMILARITY_PRIOR = "sp"
    COLLECTIVE = "ci"


class KulkarniDisambiguator:
    """Collective-inference baseline with token-level similarity."""

    def __init__(
        self,
        kb: KnowledgeBase,
        mode: KulkarniMode = KulkarniMode.COLLECTIVE,
        relatedness: Optional[EntityRelatedness] = None,
        prior_mix: float = 0.5,
        coherence_weight: float = 0.8,
        restarts: int = 3,
        iterations: int = 120,
        seed: int = 21,
    ):
        self.kb = kb
        self.mode = mode
        self.prior_mix = prior_mix
        self.coherence_weight = coherence_weight
        self.restarts = restarts
        self.iterations = iterations
        self.seed = seed
        #: One memo of exact values: a pair is looked up more than once.
        self.relatedness = memoized(
            relatedness
            if relatedness is not None
            else MilneWittenRelatedness(kb.links, max(kb.entity_count, 2))
        )
        self._weights = WeightModel(kb.keyphrases, kb.links)
        self._entity_vectors: Dict[EntityId, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Token-level similarity (Kul s)
    # ------------------------------------------------------------------
    def _entity_vector(self, entity_id: EntityId) -> Dict[str, float]:
        cached = self._entity_vectors.get(entity_id)
        if cached is None:
            cached = {}
            for word, count in self.kb.keyphrases.keyword_counts(
                entity_id
            ).items():
                idf = self._weights.idf_word(word)
                if idf > 0.0:
                    cached[word] = count * idf
            self._entity_vectors[entity_id] = cached
        return cached

    def _similarity(
        self, context: DocumentContext, entity_id: EntityId
    ) -> float:
        vector = self._entity_vector(entity_id)
        if not vector:
            return 0.0
        doc_counts = context.term_counts()
        dot = sum(
            weight * doc_counts.get(word, 0)
            for word, weight in vector.items()
        )
        if dot == 0.0:
            return 0.0
        norm_e = math.sqrt(sum(w * w for w in vector.values()))
        norm_d = math.sqrt(sum(c * c for c in doc_counts.values()))
        if norm_e == 0.0 or norm_d == 0.0:
            return 0.0
        return dot / (norm_e * norm_d)

    # ------------------------------------------------------------------
    # Disambiguation
    # ------------------------------------------------------------------
    def disambiguate(
        self,
        document: Document,
        restrict_to: Optional[Sequence[int]] = None,
        fixed: Optional[Mapping[int, EntityId]] = None,
    ) -> DisambiguationResult:
        """Disambiguate under the configured Kulkarni mode."""
        fixed = dict(fixed) if fixed else {}
        indices = (
            sorted(set(restrict_to))
            if restrict_to is not None
            else list(range(len(document.mentions)))
        )
        mention_scores: Dict[int, Dict[EntityId, float]] = {}
        for index in indices:
            mention = document.mentions[index]
            if index in fixed:
                mention_scores[index] = {fixed[index]: 1.0}
                continue
            pool = self.kb.candidates(mention.surface)
            if not pool:
                mention_scores[index] = {}
                continue
            context = DocumentContext(document, exclude_mention=mention)
            sims = {eid: self._similarity(context, eid) for eid in pool}
            max_sim = max(sims.values()) if sims else 0.0
            if max_sim > 0.0:
                sims = {eid: s / max_sim for eid, s in sims.items()}
            if self.mode is KulkarniMode.SIMILARITY:
                mention_scores[index] = sims
            else:
                mention_scores[index] = {
                    eid: self.prior_mix
                    * self.kb.prior(mention.surface, eid)
                    + (1.0 - self.prior_mix) * sims[eid]
                    for eid in pool
                }
        if self.mode is KulkarniMode.COLLECTIVE:
            assignment = self._collective(mention_scores)
        else:
            assignment = {
                index: max(sorted(scores), key=lambda e: scores[e])
                for index, scores in mention_scores.items()
                if scores
            }
        assignments: List[MentionAssignment] = []
        for index in indices:
            mention = document.mentions[index]
            scores = mention_scores.get(index, {})
            chosen = assignment.get(index)
            if chosen is None:
                assignments.append(
                    MentionAssignment(
                        mention=mention, entity=OUT_OF_KB, score=0.0
                    )
                )
                continue
            assignments.append(
                MentionAssignment(
                    mention=mention,
                    entity=chosen,
                    score=scores.get(chosen, 0.0),
                    candidate_scores=scores,
                )
            )
        return DisambiguationResult(
            doc_id=document.doc_id, assignments=assignments
        )

    # ------------------------------------------------------------------
    # Collective inference by hill climbing with restarts
    # ------------------------------------------------------------------
    def _collective(
        self, mention_scores: Mapping[int, Dict[EntityId, float]]
    ) -> Dict[int, EntityId]:
        slots = [index for index in sorted(mention_scores)
                 if mention_scores[index]]
        if not slots:
            return {}
        rng = SeededRng(self.seed)
        best_assignment: Dict[int, EntityId] = {}
        best_score = float("-inf")
        for restart in range(self.restarts):
            current = self._initial_assignment(
                slots, mention_scores, rng, greedy=restart == 0
            )
            current_score = self._objective(current, mention_scores)
            improved = True
            rounds = 0
            while improved and rounds < self.iterations:
                improved = False
                rounds += 1
                for index in slots:
                    for candidate in sorted(mention_scores[index]):
                        if candidate == current[index]:
                            continue
                        previous = current[index]
                        current[index] = candidate
                        score = self._objective(current, mention_scores)
                        if score > current_score:
                            current_score = score
                            improved = True
                        else:
                            current[index] = previous
            if current_score > best_score:
                best_score = current_score
                best_assignment = dict(current)
        return best_assignment

    def _initial_assignment(
        self,
        slots: Sequence[int],
        mention_scores: Mapping[int, Dict[EntityId, float]],
        rng: SeededRng,
        greedy: bool,
    ) -> Dict[int, EntityId]:
        assignment: Dict[int, EntityId] = {}
        for index in slots:
            scores = mention_scores[index]
            if greedy:
                assignment[index] = max(
                    sorted(scores), key=lambda e: scores[e]
                )
            else:
                assignment[index] = rng.choice(sorted(scores))
        return assignment

    def _objective(
        self,
        assignment: Mapping[int, EntityId],
        mention_scores: Mapping[int, Dict[EntityId, float]],
    ) -> float:
        local = sum(
            mention_scores[index].get(entity, 0.0)
            for index, entity in assignment.items()
        )
        chosen = sorted(set(assignment.values()))
        coherence = 0.0
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                coherence += self.relatedness.relatedness(a, b)
        return local + self.coherence_weight * coherence
