"""Token-id posting index over a document context.

A :class:`~repro.similarity.context.DocumentContext` already indexes a
document by normalized token string.  :class:`IndexedContext` translates
that index once into vocabulary ids, so the cover sweep and the phrase
match tests run on integer posting lists.  It is built **once per
document**; each mention scores its candidates against
:meth:`IndexedContext.masked`, a view without the mention's own tokens,
instead of a second index of the whole document.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as _np

from repro.compiled.vocabulary import Vocabulary

if TYPE_CHECKING:  # the similarity package imports this one
    from repro.similarity.context import DocumentContext
    from repro.types import Mention


class IndexedContext:
    """Posting lists of a document context, keyed by vocabulary id.

    Words outside the vocabulary can never match a compiled keyphrase
    model sharing that vocabulary, so they are dropped at build time.
    The posting lists are the context's own position lists (sorted,
    ascending) and must be treated as read-only.
    """

    __slots__ = (
        "context",
        "vocabulary",
        "postings",
        "mention_center",
        "_arrays",
        "_word_at",
    )

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
        #: Midpoint of the excluded mention (distance-discount path).
        self.mention_center: Optional[float] = context.mention_center
        self._arrays: Dict[int, object] = {}
        self._word_at: Optional[Dict[int, int]] = None

    def masked(self, mention: Mention) -> "IndexedContext":
        """This index without the tokens of *mention*'s span.

        A view: only the posting lists with a position inside the span
        are copied (without those positions), a word left with no
        position is dropped, and the view's center is the mention's.
        Its postings equal those of an index over
        ``DocumentContext(document, exclude_mention=mention)``.
        """
        word_at = self._word_at
        if word_at is None:
            word_at = self._word_at = {
                position: wid
                for wid, positions in self.postings.items()
                for position in positions
            }
        start, end = mention.start, mention.end
        postings = dict(self.postings)
        for wid in {
            word_at[position]
            for position in range(start, end)
            if position in word_at
        }:
            kept = [p for p in postings[wid] if not start <= p < end]
            if kept:
                postings[wid] = kept
            else:
                del postings[wid]
        view = object.__new__(IndexedContext)
        view.context = self.context
        view.vocabulary = self.vocabulary
        view.postings = postings
        view.mention_center = (start + end - 1) / 2.0
        view._arrays = {}
        view._word_at = None
        return view

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
    def document_length(self) -> int:
        """Token count of the underlying document, floored at 1."""
        return max(len(self.context.document.tokens), 1)
