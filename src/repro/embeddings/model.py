"""The trained joint word/entity embedding space.

An :class:`EmbeddingModel` is two row-aligned float32 matrices — one row
per vocabulary word, one per entity — L2-normalized so that a dot product
is a cosine.  The dense pre-ranker and snapshot export consume this one
object; training lives in :mod:`repro.embeddings.training`.

The model is deliberately dumb: plain lists, plain dicts, two ndarrays.
That keeps it picklable for process pools and zero-copy reconstructible
from snapshot sections.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.types import EntityId


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; all-zero rows stay zero (no NaN)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    return (matrix / norms).astype(np.float32)


class EmbeddingModel:
    """Joint word/entity embeddings with O(1) row lookup.

    Parameters
    ----------
    words / entity_ids:
        Row labels, in matrix row order (the trainer emits both sorted).
    word_vectors / entity_vectors:
        float32 ``(len(words), dim)`` / ``(len(entity_ids), dim)``
        matrices with unit-L2 rows.
    meta:
        Provenance: the training config as a dict, corpus statistics —
        carried through snapshot export verbatim.
    """

    def __init__(
        self,
        words: Sequence[str],
        entity_ids: Sequence[EntityId],
        word_vectors: np.ndarray,
        entity_vectors: np.ndarray,
        meta: Optional[Dict] = None,
    ):
        if word_vectors.shape[0] != len(words):
            raise ValueError("word matrix row count != len(words)")
        if entity_vectors.shape[0] != len(entity_ids):
            raise ValueError("entity matrix row count != len(entity_ids)")
        if word_vectors.shape[1] != entity_vectors.shape[1]:
            raise ValueError("word and entity dimensions differ")
        self.words: List[str] = list(words)
        self.entity_ids: List[EntityId] = list(entity_ids)
        self.word_vectors = np.ascontiguousarray(
            word_vectors, dtype=np.float32
        )
        self.entity_vectors = np.ascontiguousarray(
            entity_vectors, dtype=np.float32
        )
        self.meta: Dict = dict(meta) if meta else {}
        self._word_index: Dict[str, int] = {
            word: row for row, word in enumerate(self.words)
        }
        self._entity_index: Dict[EntityId, int] = {
            eid: row for row, eid in enumerate(self.entity_ids)
        }

    @property
    def dim(self) -> int:
        """Embedding dimensionality d."""
        return int(self.word_vectors.shape[1])

    # ------------------------------------------------------------------
    # Scoring primitives
    # ------------------------------------------------------------------
    def context_vector(self, term_counts: Mapping[str, int]) -> np.ndarray:
        """Unit bag-of-words embedding of a document context.

        Sum of count-weighted word vectors over the in-vocabulary terms;
        the zero vector when no term is known (every dot is then 0.0, so
        ranking degrades to the candidate-id tie-break, never crashes).
        """
        vec = np.zeros(self.dim, dtype=np.float32)
        index = self._word_index
        vectors = self.word_vectors
        for term, count in term_counts.items():
            row = index.get(term)
            if row is not None:
                vec += count * vectors[row]
        norm = float(np.linalg.norm(vec))
        if norm > 1e-12:
            vec /= norm
        return vec

    def entity_scores(
        self, entity_ids: Sequence[EntityId], query: np.ndarray
    ) -> np.ndarray:
        """Cosine of *query* against every given entity, as one matmul.

        Unknown entities score 0.0 (the "no signal" value — the caller's
        protected-candidate rules, not the embedding, decide their fate).
        """
        rows = np.array(
            [self._entity_index.get(eid, -1) for eid in entity_ids],
            dtype=np.intp,
        )
        known = rows >= 0
        scores = np.zeros(len(rows), dtype=np.float32)
        if known.any():
            scores[known] = self.entity_vectors[rows[known]] @ query
        return scores

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> Dict[str, str]:
        """sha256 of each matrix's bytes — the determinism check's unit."""
        return {
            "word_vectors": hashlib.sha256(
                self.word_vectors.tobytes()
            ).hexdigest(),
            "entity_vectors": hashlib.sha256(
                self.entity_vectors.tobytes()
            ).hexdigest(),
        }
