"""Joint word/entity embeddings: training and the dense pre-ranker.

The embedding space serves one production role: the
:class:`DensePreRanker`, which truncates candidate pools by vectorized
cosine before keyphrase scoring and coherence see them.  Mention-entity
similarity and entity-entity relatedness are the paper's measures
(keyphrase cover matching; Milne–Witten and KORE), never embedding
cosines.
"""

from repro.embeddings.model import EmbeddingModel
from repro.embeddings.prerank import DensePreRanker
from repro.embeddings.training import (
    EmbeddingConfig,
    build_corpus,
    shared_model,
    train_embeddings,
)

__all__ = [
    "DensePreRanker",
    "EmbeddingConfig",
    "EmbeddingModel",
    "build_corpus",
    "shared_model",
    "train_embeddings",
]
