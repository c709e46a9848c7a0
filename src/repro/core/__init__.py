"""AIDA — accurate online disambiguation of named entities (Chapter 3)."""

from repro.core.config import AidaConfig, PriorMode
from repro.core.robustness import (
    coherence_robustness_distance,
    passes_prior_test,
)
from repro.core.pipeline import AidaDisambiguator
from repro.core.adaptation import DomainAdaptiveDisambiguator
from repro.core.batch import (
    BatchConfig,
    BatchOutcome,
    BatchRunner,
    DocumentFailure,
)
from repro.core.spec import PipelineSpec

__all__ = [
    "AidaConfig",
    "PriorMode",
    "AidaDisambiguator",
    "DomainAdaptiveDisambiguator",
    "BatchConfig",
    "BatchOutcome",
    "BatchRunner",
    "DocumentFailure",
    "PipelineSpec",
    "passes_prior_test",
    "coherence_robustness_distance",
]
