"""Keyphrase cover matching over strings and dicts (test oracle).

The string/dict form of Eq. 3.4 and Eq. 3.6: each (mention, candidate)
pair re-hashes the phrase words against the context's token index and
sweeps a two-pointer window over the word hits.  The production scorer,
:class:`repro.similarity.keyphrase_match.KeyphraseSimilarity`, runs the
same sweep over compiled integer arrays (:mod:`repro.compiled.scoring`);
the differential suites require the two to agree within 1e-9, and the
cover tests pin the array sweeps to :func:`phrase_cover`'s windows,
tie-breaks included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kb.keyphrases import KeyphraseStore, Phrase
from repro.similarity.context import DocumentContext
from repro.types import EntityId
from repro.weights.model import WeightModel


@dataclass(frozen=True)
class Cover:
    """The shortest window covering the maximal subset of a phrase's words.

    ``start``/``end`` are inclusive token offsets into the document;
    ``matched_words`` are the distinct phrase words found in the window.
    """

    start: int
    end: int
    matched_words: Tuple[str, ...]

    @property
    def length(self) -> int:
        """Window length in tokens (inclusive)."""
        return self.end - self.start + 1

    @property
    def match_count(self) -> int:
        """Number of distinct phrase words matched."""
        return len(self.matched_words)


def phrase_cover(
    context: DocumentContext, phrase: Sequence[str]
) -> Optional[Cover]:
    """Find the cover of *phrase* in the context, or None if no word occurs.

    Classic minimum-window-over-positions sweep: gather all positions of any
    phrase word, then slide a two-pointer window over the position-sorted
    hits, tracking the smallest window containing all *present* distinct
    words (words absent from the document cannot be covered and only reduce
    the score through the weight ratio).
    """
    distinct = list(dict.fromkeys(phrase))  # stable dedup
    hits = context.occurrences(distinct)
    if not hits:
        return None
    present = {word for _pos, word in hits}
    needed = len(present)
    best: Optional[Tuple[int, int]] = None
    counts: Dict[str, int] = {}
    covered = 0
    left = 0
    for right, (_pos_r, word_r) in enumerate(hits):
        counts[word_r] = counts.get(word_r, 0) + 1
        if counts[word_r] == 1:
            covered += 1
        while covered == needed:
            window = (hits[left][0], hits[right][0])
            if best is None or (window[1] - window[0]) < (best[1] - best[0]):
                best = window
            word_l = hits[left][1]
            counts[word_l] -= 1
            if counts[word_l] == 0:
                covered -= 1
            left += 1
    assert best is not None  # needed >= 1 and all hits seen
    return Cover(
        start=best[0], end=best[1], matched_words=tuple(sorted(present))
    )


def score_covered_phrase(
    cover: Cover,
    phrase: Sequence[str],
    word_weights: Mapping[str, float],
) -> float:
    """Eq. 3.4 given an already-computed cover (never re-sweeps)."""
    total_weight = sum(word_weights.get(word, 0.0) for word in set(phrase))
    if total_weight <= 0.0:
        return 0.0
    matched_weight = sum(
        word_weights.get(word, 0.0) for word in cover.matched_words
    )
    z = cover.match_count / cover.length
    ratio = matched_weight / total_weight
    return z * ratio * ratio


def score_phrase(
    context: DocumentContext,
    phrase: Sequence[str],
    word_weights: Mapping[str, float],
) -> float:
    """Eq. 3.4 — score of a (partially) matching phrase in the context."""
    cover = phrase_cover(context, phrase)
    if cover is None:
        return 0.0
    return score_covered_phrase(cover, phrase, word_weights)


class ReferenceKeyphraseSimilarity:
    """Eq. 3.6 over strings and dicts, parameterized like
    :class:`~repro.similarity.keyphrase_match.KeyphraseSimilarity`."""

    def __init__(
        self,
        store: KeyphraseStore,
        weights: WeightModel,
        weight_scheme: str = "npmi",
        max_keyphrases: Optional[int] = None,
        distance_discount: float = 0.0,
    ):
        self._store = store
        self._weights = weights
        self._scheme = weight_scheme
        self._max_keyphrases = max_keyphrases
        self.distance_discount = distance_discount

    def entity_phrases(self, entity_id: EntityId) -> List[Phrase]:
        """The (possibly capped) keyphrases of an entity."""
        return self._store.top_keyphrases(
            entity_id, limit=self._max_keyphrases
        )

    def simscore(
        self, context: DocumentContext, entity_id: EntityId
    ) -> float:
        """Aggregate partial-match score of all entity keyphrases."""
        word_weights = self._weights.keyword_weights(
            entity_id, scheme=self._scheme
        )
        total = 0.0
        for phrase in self.entity_phrases(entity_id):
            if not any(word in context for word in phrase):
                continue  # no word present: score is zero, skip the sweep
            cover = phrase_cover(context, phrase)
            score = score_covered_phrase(cover, phrase, word_weights)
            if score > 0.0 and self.distance_discount > 0.0:
                score *= self.proximity_factor(context, cover)
            total += score
        return total

    def simscores(
        self, context: DocumentContext, entity_ids: Sequence[EntityId]
    ) -> Dict[EntityId, float]:
        """simscore for every candidate entity."""
        return {eid: self.simscore(context, eid) for eid in entity_ids}

    def proximity_factor(
        self, context: DocumentContext, cover: Cover
    ) -> float:
        """Damping by cover-to-mention distance (1.0 without a mention)."""
        center = context.mention_center
        if center is None:
            return 1.0
        doc_length = max(len(context.document.tokens), 1)
        cover_center = (cover.start + cover.end) / 2.0
        distance = abs(cover_center - center)
        return 1.0 / (
            1.0 + self.distance_discount * distance / doc_length
        )
