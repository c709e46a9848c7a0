"""Illinois-Wikifier-style disambiguation (Ratinov et al. 2011).

Two-step, one-by-one method: first each mention is ranked independently by
prior + token cosine similarity; then a second pass re-scores with the
average relatedness (inlink Jaccard) to the *first-pass winners* of the
other mentions.  The final score of the chosen candidate also serves as the
"linker score" used to decide unlinkable (out-of-KB) mentions by
thresholding — the mechanism Table 5.1/5.3 compares against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.kb.knowledge_base import KnowledgeBase
from repro.relatedness.base import EntityRelatedness
from repro.relatedness.caching import memoized
from repro.relatedness.jaccard import InlinkJaccardRelatedness
from repro.similarity.context import DocumentContext
from repro.types import (
    DisambiguationResult,
    Document,
    EntityId,
    MentionAssignment,
    OUT_OF_KB,
)
from repro.weights.model import WeightModel


class WikifierDisambiguator:
    """Ranker (prior + cosine) with a relatedness re-scoring pass."""

    def __init__(
        self,
        kb: KnowledgeBase,
        relatedness: Optional[EntityRelatedness] = None,
        prior_weight: float = 0.4,
        sim_weight: float = 0.4,
        coherence_weight: float = 0.2,
    ):
        self.kb = kb
        self.prior_weight = prior_weight
        self.sim_weight = sim_weight
        self.coherence_weight = coherence_weight
        #: One memo of exact values: a pair is looked up more than once.
        self.relatedness = memoized(
            relatedness
            if relatedness is not None
            else InlinkJaccardRelatedness(kb.links)
        )
        self._weights = WeightModel(kb.keyphrases, kb.links)
        self._entity_vectors: Dict[EntityId, Dict[str, float]] = {}

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

    def _cosine(self, context: DocumentContext, entity_id: EntityId) -> float:
        vector = self._entity_vector(entity_id)
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

    def disambiguate(
        self,
        document: Document,
        restrict_to: Optional[Sequence[int]] = None,
        fixed: Optional[Mapping[int, EntityId]] = None,
    ) -> DisambiguationResult:
        """Two-pass ranker + relatedness re-scoring disambiguation."""
        fixed = dict(fixed) if fixed else {}
        indices = (
            sorted(set(restrict_to))
            if restrict_to is not None
            else list(range(len(document.mentions)))
        )
        local_scores: Dict[int, Dict[EntityId, float]] = {}
        first_pass: Dict[int, EntityId] = {}
        for index in indices:
            mention = document.mentions[index]
            if index in fixed:
                local_scores[index] = {fixed[index]: 1.0}
                first_pass[index] = fixed[index]
                continue
            pool = self.kb.candidates(mention.surface)
            if not pool:
                local_scores[index] = {}
                continue
            context = DocumentContext(document, exclude_mention=mention)
            sims = {eid: self._cosine(context, eid) for eid in pool}
            max_sim = max(sims.values())
            if max_sim > 0.0:
                sims = {eid: s / max_sim for eid, s in sims.items()}
            scores = {
                eid: self.prior_weight * self.kb.prior(mention.surface, eid)
                + self.sim_weight * sims[eid]
                for eid in pool
            }
            local_scores[index] = scores
            first_pass[index] = max(sorted(scores), key=lambda e: scores[e])
        # Second pass: re-score with relatedness to other winners.
        assignments: List[MentionAssignment] = []
        for index in indices:
            mention = document.mentions[index]
            scores = local_scores.get(index, {})
            if not scores:
                assignments.append(
                    MentionAssignment(
                        mention=mention, entity=OUT_OF_KB, score=0.0
                    )
                )
                continue
            others = [
                winner
                for other, winner in first_pass.items()
                if other != index
            ]
            final: Dict[EntityId, float] = {}
            for eid, base in scores.items():
                coherence = 0.0
                if others:
                    coherence = sum(
                        self.relatedness.relatedness(eid, other)
                        for other in others
                    ) / len(others)
                final[eid] = base + self.coherence_weight * coherence
            best = max(sorted(final), key=lambda e: final[e])
            assignments.append(
                MentionAssignment(
                    mention=mention,
                    entity=best,
                    score=final[best],
                    candidate_scores=final,
                )
            )
        return DisambiguationResult(
            doc_id=document.doc_id, assignments=assignments
        )

    def linker_score(self, assignment: MentionAssignment) -> float:
        """The scalar thresholded to declare a mention unlinkable: the
        winner's score margin over the runner-up plus its absolute score."""
        scores = sorted(assignment.candidate_scores.values(), reverse=True)
        if not scores:
            return 0.0
        margin = scores[0] - scores[1] if len(scores) > 1 else scores[0]
        return scores[0] + margin
