"""Embedding-backed similarity and relatedness measures.

The third measure family alongside keyphrase cover-matching and
Milne–Witten: both sides of the pipeline's scoring — mention-entity
similarity and entity-entity coherence — as cosines in the joint
word/entity space.  Each class mirrors the interface of its keyphrase
counterpart exactly (``simscore``/``simscores`` for the similarity,
the :class:`~repro.relatedness.base.EntityRelatedness` ABC for the
coherence measure), so the pipeline, relatedness cache, degradation
ladder, batch runner, and serving path work unchanged.

This is the regime keyphrase overlap cannot serve: when an entity's
phrases are sparse or absent from the document, cover-matching scores
collapse to zero, while dense vectors still order candidates by
distributional closeness.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.relatedness.base import EntityRelatedness
from repro.similarity.context import DocumentContext
from repro.types import EntityId

from repro.embeddings.model import EmbeddingModel


class EmbeddingSimilarity:
    """Mention-entity similarity as context/entity cosine.

    Interface-compatible with
    :class:`~repro.similarity.keyphrase_match.KeyphraseSimilarity`:
    ``simscore`` for one candidate, ``simscores`` for a pool (the
    context is embedded once and shared by every candidate).  Scores are
    clamped to [0, 1]; the pipeline's per-mention max-normalization
    applies on top as for any similarity backend.
    """

    def __init__(self, model: EmbeddingModel):
        self.model = model
        #: (context, query vector) of the most recent call;
        #: identity-checked, so a stale entry can only miss (same
        #: atomically-swapped-tuple pattern as the compiled scorer).
        self._query_cache: Optional[
            Tuple[DocumentContext, np.ndarray]
        ] = None

    def _query(self, context: DocumentContext) -> np.ndarray:
        cached = self._query_cache
        if cached is not None and cached[0] is context:
            return cached[1]
        query = self.model.context_vector(context.term_counts())
        self._query_cache = (context, query)
        return query

    def index(self, context: DocumentContext) -> DocumentContext:
        """The form ``simscores`` takes a context in: the context itself
        (its ``masked`` view rebuilds it without a mention)."""
        return context

    def simscore(
        self, context: DocumentContext, entity_id: EntityId
    ) -> float:
        """Cosine of the context against one candidate, clamped to [0,1]."""
        vector = self.model.entity_vector(entity_id)
        if vector is None:
            return 0.0
        return max(float(vector @ self._query(context)), 0.0)

    def simscores(
        self, context: DocumentContext, entity_ids: Sequence[EntityId]
    ) -> Dict[EntityId, float]:
        """simscore for every candidate via one matmul."""
        values = self.model.entity_scores(entity_ids, self._query(context))
        return {
            eid: max(float(v), 0.0) for eid, v in zip(entity_ids, values)
        }


class EmbeddingRelatedness(EntityRelatedness):
    """Entity-entity coherence as embedding cosine, clamped to [0, 1].

    Every pair is compared (no ``candidate_pairs`` filter); negative
    cosines clamp to 0 — "unrelated", matching the other measures'
    floor.
    """

    name = "EMB"

    def __init__(self, model: EmbeddingModel):
        super().__init__()
        self.model = model

    def _compute(self, a: EntityId, b: EntityId) -> float:
        va = self.model.entity_vector(a)
        vb = self.model.entity_vector(b)
        if va is None or vb is None:
            return 0.0
        return float(va @ vb)
