"""Mention context extraction.

On the mention side, AIDA uses all tokens of the entire input text — except
stopwords and the mention itself — as context (Section 3.3.4).  The context
is indexed by normalized token so that cover matching can retrieve token
positions in O(1) per keyphrase word.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.text.stopwords import is_stopword
from repro.types import Document, Mention
from repro.utils.text import normalize_token


class DocumentContext:
    """Position index over a document's content tokens.

    ``positions(word)`` returns the sorted token offsets where the normalized
    *word* occurs, excluding stopwords and (optionally) the tokens covered by
    a given mention.
    """

    def __init__(
        self,
        document: Document,
        exclude_mention: Optional[Mention] = None,
    ):
        self.document = document
        self.mention = exclude_mention
        self._excluded: Set[int] = set()
        if exclude_mention is not None:
            self._excluded.update(
                range(exclude_mention.start, exclude_mention.end)
            )
        self._index: Dict[str, List[int]] = {}
        for offset, token in enumerate(document.tokens):
            if offset in self._excluded:
                continue
            if is_stopword(token):
                continue
            norm = normalize_token(token)
            if not norm:
                continue
            self._index.setdefault(norm, []).append(offset)

    def positions(self, word: str) -> List[int]:
        """Sorted token offsets of the normalized word."""
        return self._index.get(word, [])

    def index_items(self):
        """All (word, positions) pairs of the index, insertion-ordered.

        The compiled scoring layer consumes this to translate the index
        into vocabulary-id posting lists once per context; the position
        lists are the index's own and must not be mutated.
        """
        return self._index.items()

    def __contains__(self, word: str) -> bool:
        return word in self._index

    @property
    def vocabulary(self) -> List[str]:
        """All distinct context words, sorted."""
        return sorted(self._index)

    def occurrences(
        self, words: Sequence[str]
    ) -> List[Tuple[int, str]]:
        """All (position, word) pairs for the given words, position-sorted."""
        hits: List[Tuple[int, str]] = []
        for word in set(words):
            for pos in self._index.get(word, []):
                hits.append((pos, word))
        hits.sort()
        return hits

    def term_counts(self) -> Dict[str, int]:
        """Bag-of-words counts of the context (for cosine baselines)."""
        return {word: len(positions) for word, positions in self._index.items()}

    @property
    def mention_center(self) -> Optional[float]:
        """Token-offset midpoint of the excluded mention, if any."""
        if self.mention is None:
            return None
        return (self.mention.start + self.mention.end - 1) / 2.0
