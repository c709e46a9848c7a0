"""Compiled keyphrase scoring: the one implementation of Eq. 3.4/3.6
and Eq. 4.3/4.4.

Written over strings and dicts, keyphrase cover matching and KORE would
re-hash phrase words, rebuild weight sets and sort tuples for every
(mention, candidate) pair.  This package compiles the per-entity
keyphrase models **once** into flat integer/float arrays and scores over
those:

* :class:`~repro.compiled.vocabulary.Vocabulary` — a KB-wide interner
  mapping normalized words to dense ``int32`` ids;
* :class:`~repro.compiled.keyphrases.CompiledKeyphrases` — per-entity
  flat arrays (concatenated phrase token ids + prefix offsets, parallel
  weight arrays, precomputed per-phrase totals and φ sums) built lazily
  from a :class:`~repro.kb.keyphrases.KeyphraseStore` and a
  :class:`~repro.weights.model.WeightModel`, pickle-cheap and shared
  read-only across batch workers;
* :class:`~repro.compiled.context.IndexedContext` — a token-id posting
  index over a document context, built once per mention instead of once
  per (mention, candidate);
* :mod:`~repro.compiled.scoring` — the cover sweep over posting lists
  (a numpy kernel for large hit counts, returning the identical window)
  and KORE phrase overlap as sorted-id merges.

:class:`~repro.similarity.keyphrase_match.KeyphraseSimilarity` and
:class:`~repro.relatedness.kore.KoreRelatedness` always score through
this layer.  The string/dict oracles in ``tests/oracles/`` hold it to
within 1e-9 (``tests/test_differential_compiled.py``).
"""

from repro.compiled.context import IndexedContext
from repro.compiled.keyphrases import (
    CompiledKeyphrases,
    KoreEntityModel,
    SimEntityModel,
)
from repro.compiled.scoring import kore_score, simscore_arrays
from repro.compiled.vocabulary import Vocabulary

__all__ = [
    "CompiledKeyphrases",
    "IndexedContext",
    "KoreEntityModel",
    "SimEntityModel",
    "Vocabulary",
    "kore_score",
    "simscore_arrays",
]
