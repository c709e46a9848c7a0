"""Token-id posting index over a document context.

A :class:`~repro.similarity.context.DocumentContext` already indexes a
document by normalized token string.  :class:`IndexedContext` translates
that index once into vocabulary ids, so the cover sweep and the phrase
match tests run on integer posting lists.  It is built **once per
mention context** and reused for every candidate entity scored against
it, instead of re-hashing every phrase word per candidate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as _np

from repro.compiled.vocabulary import Vocabulary

if TYPE_CHECKING:  # the similarity package imports this one
    from repro.similarity.context import DocumentContext


class IndexedContext:
    """Posting lists of a document context, keyed by vocabulary id.

    Words outside the vocabulary can never match a compiled keyphrase
    model sharing that vocabulary, so they are dropped at build time.
    The posting lists are the context's own position lists (sorted,
    ascending) and must be treated as read-only.
    """

    __slots__ = ("context", "vocabulary", "postings", "_arrays")

    def __init__(self, context: DocumentContext, vocabulary: Vocabulary):
        self.context = context
        self.vocabulary = vocabulary
        id_of = vocabulary.id_of
        postings: Dict[int, List[int]] = {}
        for word, positions in context.index_items():
            wid = id_of(word)
            if wid >= 0:
                postings[wid] = positions
        self.postings = postings
        self._arrays: Dict[int, object] = {}

    def __contains__(self, wid: int) -> bool:
        return wid in self.postings

    def positions(self, wid: int) -> Optional[List[int]]:
        """Sorted token offsets of the word id, or None when absent."""
        return self.postings.get(wid)

    def positions_array(self, wid: int):
        """The postings of ``wid`` as a cached numpy array (numpy kernel)."""
        cached = self._arrays.get(wid)
        if cached is None:
            cached = _np.asarray(self.postings[wid], dtype=_np.int64)
            self._arrays[wid] = cached
        return cached

    @property
    def mention_center(self) -> Optional[float]:
        """Midpoint of the excluded mention (distance-discount path)."""
        return self.context.mention_center

    @property
    def document_length(self) -> int:
        """Token count of the underlying document, floored at 1."""
        return max(len(self.context.document.tokens), 1)
