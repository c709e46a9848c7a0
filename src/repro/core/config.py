"""AIDA configuration.

Defaults are the hyper-parameters of Section 3.6.1, tuned by line search on
withheld development documents: prior-test threshold ρ = 0.9, coherence-test
threshold λ = 0.9, feature weights α = 0.34 (popularity), β = 0.26
(similarity), γ = 0.40 (coherence).  For the graph representation these
translate into multiplying entity-entity weights by γ = 0.40 and
mention-entity weights by 0.60, where the mention-entity weight is either
``0.566·prior + 0.434·sim`` (prior test passed) or ``sim`` alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.graph.dense_subgraph import DenseSubgraphConfig


class PriorMode(enum.Enum):
    """How the popularity prior enters the mention-entity edge weight."""

    #: Never use the prior (pure similarity).
    NEVER = "never"
    #: Always combine prior and similarity linearly.
    ALWAYS = "always"
    #: Combine only when the best candidate's prior exceeds ρ (the paper's
    #: prior robustness test, Section 3.5.1).
    TEST = "test"
    #: Use the prior alone (the popularity baseline).
    ONLY = "only"


#: Selectable entity-entity coherence backends: Milne–Witten inlink
#: overlap (the Chapter 3 default), exact KORE, and KORE behind two-stage
#: min-hash/LSH pre-clustering in the recall-geared (G) and speed-geared
#: (F) parameterizations of Section 4.4.2.
RELATEDNESS_BACKENDS = ("mw", "kore", "kore_lsh_g", "kore_lsh_f")


@dataclass
class AidaConfig:
    """All knobs of the AIDA pipeline."""

    #: Prior robustness threshold ρ.
    prior_threshold: float = 0.9
    #: Coherence robustness threshold λ on the L1 prior/sim distance.
    coherence_threshold: float = 0.9
    #: Coherence balance γ: entity-entity edge weights are multiplied by
    #: this, mention-entity weights by (1 - γ).
    gamma: float = 0.40
    #: Linear combination of prior and similarity inside the mention-entity
    #: edge weight when the prior is used: w = prior_mix·prior +
    #: (1 - prior_mix)·sim.  0.566 realizes α/(α+β) of the objective.
    prior_mix: float = 0.566
    prior_mode: PriorMode = PriorMode.TEST
    #: Whether entity coherence (the graph algorithm) is used at all.
    use_coherence: bool = True
    #: Whether the coherence robustness test (Section 3.5.2) pre-fixes
    #: mentions on which prior and similarity agree.
    use_coherence_test: bool = True
    #: Keyword weighting inside the cover-matching similarity.
    keyword_weight_scheme: str = "npmi"
    #: Normalize similarity scores per mention by their maximum before
    #: combining with the prior.  Chapter 5's NED-EE second stage keeps
    #: raw scores so the news-derived magnitude of the EE placeholder
    #: survives the γ balance.
    normalize_similarity: bool = True
    #: Optional cap on keyphrases per entity (Chapter 5 uses 3000).
    max_keyphrases: int = 0  # 0 = unlimited
    #: Chain short-form mentions ("Page") to longer same-name mentions of
    #: the document ("Jimmy Page") and restrict their candidate space to
    #: the chain's (Section 2.4.3's coreference view, applied to NED).
    use_name_coreference: bool = False
    #: Entity-entity relatedness backend for the coherence stage (one of
    #: :data:`RELATEDNESS_BACKENDS`).  ``kore_lsh_g``/``kore_lsh_f``
    #: precompute KB-wide entity sketches at pipeline construction and
    #: compute exact (compiled) KORE only on pairs surviving LSH banding.
    relatedness_backend: str = "mw"
    #: Dense pre-ranker truncation K: after candidate retrieval, each
    #: mention's pool is cut to its top-K candidates by embedding cosine
    #: (prior-top and pinned/extra candidates always survive) before the
    #: similarity and coherence stages.  ``None`` disables the stage
    #: entirely — the pipeline is then bit-identical to the unpruned
    #: path, as it is for any K at or above the largest pool.
    prerank_topk: Optional[int] = None
    graph: DenseSubgraphConfig = field(default_factory=DenseSubgraphConfig)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every knob; raised-from here by ``__post_init__`` and by
        the CLI after post-construction mutation of parsed flags."""
        if not 0.0 <= self.prior_threshold <= 1.0:
            raise ConfigurationError("prior_threshold must be in [0, 1]")
        if not 0.0 <= self.coherence_threshold <= 2.0:
            raise ConfigurationError(
                "coherence_threshold must be in [0, 2] (an L1 distance of "
                "probability vectors)"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in [0, 1]")
        if not 0.0 <= self.prior_mix <= 1.0:
            raise ConfigurationError("prior_mix must be in [0, 1]")
        if self.max_keyphrases < 0:
            raise ConfigurationError("max_keyphrases must be >= 0")
        if self.relatedness_backend not in RELATEDNESS_BACKENDS:
            raise ConfigurationError(
                f"relatedness_backend must be one of "
                f"{', '.join(RELATEDNESS_BACKENDS)} "
                f"(got {self.relatedness_backend!r})"
            )
        if self.prerank_topk is not None and self.prerank_topk < 1:
            raise ConfigurationError(
                "prerank_topk must be >= 1 (or None to disable)"
            )

    @property
    def needs_embeddings(self) -> bool:
        """Whether the pipeline needs a trained model: only the dense
        pre-ranker uses one."""
        return self.prerank_topk is not None

    # ------------------------------------------------------------------
    # Named configurations of Table 3.2
    # ------------------------------------------------------------------
    @staticmethod
    def prior_only() -> "AidaConfig":
        """``prior`` — popularity prior alone."""
        return AidaConfig(prior_mode=PriorMode.ONLY, use_coherence=False)

    @staticmethod
    def sim_only() -> "AidaConfig":
        """``sim-k`` — keyphrase similarity alone."""
        return AidaConfig(prior_mode=PriorMode.NEVER, use_coherence=False)

    @staticmethod
    def prior_sim() -> "AidaConfig":
        """``prior sim-k`` — unconditional prior + similarity."""
        return AidaConfig(prior_mode=PriorMode.ALWAYS, use_coherence=False)

    @staticmethod
    def robust_prior_sim() -> "AidaConfig":
        """``r-prior sim-k`` — prior-tested prior + similarity."""
        return AidaConfig(prior_mode=PriorMode.TEST, use_coherence=False)

    @staticmethod
    def robust_prior_sim_coherence() -> "AidaConfig":
        """``r-prior sim-k coh`` — plus graph coherence, no coherence test."""
        return AidaConfig(
            prior_mode=PriorMode.TEST,
            use_coherence=True,
            use_coherence_test=False,
        )

    @staticmethod
    def full() -> "AidaConfig":
        """``r-prior sim-k r-coh`` — the complete AIDA configuration."""
        return AidaConfig(
            prior_mode=PriorMode.TEST,
            use_coherence=True,
            use_coherence_test=True,
        )
