"""TagMe-style light-weight disambiguation (Ferragina & Scaiella 2012).

TagMe combines only the prior with the collective relatedness of all
candidate entities: every other mention's candidates *vote* for a
candidate, each vote being the voter's relatedness weighted by the voter's
own prior, averaged per mention.  No context-word similarity is used, which
limits the method to mention-dense short texts — exactly its published
profile.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.kb.knowledge_base import KnowledgeBase
from repro.relatedness.base import (
    EntityRelatedness,
    Pair,
    filtered_relatedness,
)
from repro.relatedness.caching import memoized
from repro.relatedness.milne_witten import MilneWittenRelatedness
from repro.types import (
    DisambiguationResult,
    Document,
    EntityId,
    MentionAssignment,
    OUT_OF_KB,
)


class TagmeDisambiguator:
    """Prior + relatedness-voting disambiguation."""

    def __init__(
        self,
        kb: KnowledgeBase,
        relatedness: Optional[EntityRelatedness] = None,
        prior_weight: float = 0.5,
    ):
        self.kb = kb
        self.prior_weight = prior_weight
        #: One memo of exact values: a pair is looked up more than once.
        self.relatedness = memoized(
            relatedness
            if relatedness is not None
            else MilneWittenRelatedness(kb.links, max(kb.entity_count, 2))
        )

    def disambiguate(
        self,
        document: Document,
        restrict_to: Optional[Sequence[int]] = None,
        fixed: Optional[Mapping[int, EntityId]] = None,
    ) -> DisambiguationResult:
        """Prior + relatedness-voting disambiguation of the document."""
        fixed = dict(fixed) if fixed else {}
        indices = (
            sorted(set(restrict_to))
            if restrict_to is not None
            else list(range(len(document.mentions)))
        )
        candidates: Dict[int, List[EntityId]] = {}
        priors: Dict[int, Dict[EntityId, float]] = {}
        for index in indices:
            mention = document.mentions[index]
            if index in fixed:
                candidates[index] = [fixed[index]]
                priors[index] = {fixed[index]: 1.0}
                continue
            pool = self.kb.candidates(mention.surface)
            candidates[index] = pool
            priors[index] = {
                eid: self.kb.prior(mention.surface, eid) for eid in pool
            }
        survivors = self.relatedness.candidate_pairs(
            {eid for pool in candidates.values() for eid in pool}
        )
        assignments: List[MentionAssignment] = []
        for index in indices:
            mention = document.mentions[index]
            pool = candidates[index]
            if not pool:
                assignments.append(
                    MentionAssignment(
                        mention=mention, entity=OUT_OF_KB, score=0.0
                    )
                )
                continue
            scores = {
                eid: self._score(eid, index, candidates, priors, survivors)
                for eid in pool
            }
            best = max(sorted(scores), key=lambda e: scores[e])
            assignments.append(
                MentionAssignment(
                    mention=mention,
                    entity=best,
                    score=scores[best],
                    candidate_scores=scores,
                )
            )
        return DisambiguationResult(
            doc_id=document.doc_id, assignments=assignments
        )

    def _score(
        self,
        entity_id: EntityId,
        mention_index: int,
        candidates: Mapping[int, List[EntityId]],
        priors: Mapping[int, Dict[EntityId, float]],
        survivors: Optional[Set[Pair]],
    ) -> float:
        votes = 0.0
        voters = 0
        for other_index, pool in candidates.items():
            if other_index == mention_index or not pool:
                continue
            vote = sum(
                filtered_relatedness(
                    self.relatedness, survivors, entity_id, voter
                )
                * priors[other_index].get(voter, 0.0)
                for voter in pool
            ) / len(pool)
            votes += vote
            voters += 1
        vote_score = votes / voters if voters else 0.0
        prior = priors[mention_index].get(entity_id, 0.0)
        return (
            self.prior_weight * prior
            + (1.0 - self.prior_weight) * vote_score
        )
