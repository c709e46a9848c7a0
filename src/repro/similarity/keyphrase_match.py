"""Keyphrase cover matching and the mention-entity similarity score.

Keyphrases may occur only partially in an input text ("Grammy Award winner"
vs. "Grammy winner"), so AIDA matches individual keyphrase words and rewards
their proximity (Section 3.3.4).  For each keyphrase the *cover* is the
shortest token window containing a maximal number of the phrase's words.
The phrase score (Eq. 3.4) is::

    score(q) = z * ( sum_{w in cover} weight(w) / sum_{w in q} weight(w) )^2
    z        = (# matching words) / (length of cover)

and the mention-entity similarity (Eq. 3.6) sums the scores of all the
entity's keyphrases over the mention's document context.

Scoring runs over the compiled integer arrays of :mod:`repro.compiled`:
each entity's keyphrases are compiled once.  The scorer keeps no
per-document state: a caller scoring many mentions of one document
indexes it once (:meth:`KeyphraseSimilarity.index`) and passes each
mention's :meth:`~repro.compiled.context.IndexedContext.masked` view,
which every candidate of that mention shares.  The string/dict form of
the same equations is a test oracle (``tests/oracles/cover.py``) that the
differential suites hold this scorer to within 1e-9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.compiled.context import IndexedContext
from repro.compiled.keyphrases import CompiledKeyphrases
from repro.compiled.scoring import simscore_arrays
from repro.kb.keyphrases import KeyphraseStore, Phrase
from repro.obs import get_metrics
from repro.similarity.context import DocumentContext
from repro.types import EntityId
from repro.weights.model import WeightModel

#: A context to score against: plain, or already indexed.
Context = Union[DocumentContext, IndexedContext]


class KeyphraseSimilarity:
    """Mention-entity similarity via keyphrase cover matching (Eq. 3.6).

    Parameters
    ----------
    store:
        Keyphrase store providing each entity's phrases.
    weights:
        Weight model; keyphrase words are weighted by NPMI (default) or by
        collection-wide IDF (``weight_scheme="idf"``), as Eq. 3.4 allows.
    max_keyphrases:
        Optional cap on phrases per entity (most frequent first), used by
        the Chapter 5 experiments to balance popular entities.
    distance_discount:
        When positive, phrase scores are damped by the cover's distance to
        the mention: ``score / (1 + discount * distance / doc_length)``.
        Section 3.3.4 reports experimenting with exactly this and finding
        no improvement; the option is kept for the ablation.
    compiled:
        The :class:`~repro.compiled.keyphrases.CompiledKeyphrases` to
        score through, sharing this scorer's store/weights; its scheme
        and cap must match this scorer's.  Without one, a model is
        compiled from *store* and *weights*.
    """

    def __init__(
        self,
        store: KeyphraseStore,
        weights: WeightModel,
        weight_scheme: str = "npmi",
        max_keyphrases: Optional[int] = None,
        distance_discount: float = 0.0,
        compiled=None,
    ):
        if weight_scheme not in ("npmi", "idf"):
            raise ValueError(f"unknown weight scheme: {weight_scheme!r}")
        if distance_discount < 0.0:
            raise ValueError("distance_discount must be non-negative")
        if compiled is None:
            compiled = CompiledKeyphrases(
                store,
                weights,
                scheme=weight_scheme,
                max_keyphrases=max_keyphrases,
            )
        else:
            if compiled.scheme != weight_scheme:
                raise ValueError(
                    "compiled model scheme "
                    f"{compiled.scheme!r} != {weight_scheme!r}"
                )
            if compiled.max_keyphrases != max_keyphrases:
                raise ValueError(
                    "compiled model max_keyphrases "
                    f"{compiled.max_keyphrases!r} != {max_keyphrases!r}"
                )
        self._store = store
        self._max_keyphrases = max_keyphrases
        self.distance_discount = distance_discount
        self.compiled = compiled

    def entity_phrases(self, entity_id: EntityId) -> List[Phrase]:
        """The (possibly capped) keyphrases of an entity."""
        return self._store.top_keyphrases(
            entity_id, limit=self._max_keyphrases
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def index(self, context: DocumentContext) -> IndexedContext:
        """The posting index of *context* over this scorer's vocabulary."""
        return self.compiled.index_context(context)

    def simscore(self, context: Context, entity_id: EntityId) -> float:
        """Aggregate partial-match score of all entity keyphrases."""
        return self._simscore(self._indexed(context), entity_id)

    def simscores(
        self, context: Context, entity_ids: Sequence[EntityId]
    ) -> Dict[EntityId, float]:
        """simscore for every candidate entity.

        The context is posting-indexed **once** (or passed indexed) and
        shared by every candidate, instead of re-hashing phrase words per
        (mention, candidate) pair.
        """
        indexed = self._indexed(context)
        return {eid: self._simscore(indexed, eid) for eid in entity_ids}

    def _simscore(self, indexed, entity_id: EntityId) -> float:
        score, scored, skipped = simscore_arrays(
            indexed,
            self.compiled.sim_model(entity_id),
            distance_discount=self.distance_discount,
        )
        _count_phrases(scored, skipped)
        return score

    def _indexed(self, context: Context) -> IndexedContext:
        if isinstance(context, IndexedContext):
            return context
        return self.index(context)


def _count_phrases(scored: int, skipped: int) -> None:
    """Publish the similarity phrase counters (no-op when metrics off)."""
    metrics = get_metrics()
    if metrics.enabled:
        if scored:
            metrics.counter("similarity.phrases_scored").inc(scored)
        if skipped:
            metrics.counter("similarity.phrases_skipped").inc(skipped)
