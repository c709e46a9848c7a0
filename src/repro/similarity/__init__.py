"""Mention-entity similarity features (Section 3.3)."""

from repro.similarity.context import DocumentContext
from repro.similarity.prior import PopularityPrior
from repro.similarity.keyphrase_match import KeyphraseSimilarity

__all__ = [
    "DocumentContext",
    "PopularityPrior",
    "KeyphraseSimilarity",
]
