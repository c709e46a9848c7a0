"""KORE — keyphrase overlap relatedness (Section 4.3.3).

Phrase overlap (Eq. 4.3) is the weighted Jaccard of the two phrases' keyword
sets, with entity-specific keyword weights γ::

    PO(p, q) = sum_{w in p∩q} min(γe(w), γf(w))
             / sum_{w in p∪q} max(γe(w), γf(w))

KORE (Eq. 4.4) aggregates PO over all phrase pairs, squaring PO to penalize
partial overlap and re-weighting by the lesser phrase weight ϕ::

    KORE(e, f) = sum_{p,q} PO(p,q)^2 · min(ϕe(p), ϕf(q))
               / ( sum_p ϕe(p) + sum_q ϕf(q) )

Per the experiments, ϕ uses µ (normalized MI) phrase weights and γ uses IDF
keyword weights.  The measure scores over the flat id arrays of a
:class:`~repro.compiled.keyphrases.CompiledKeyphrases`
(:func:`~repro.compiled.scoring.kore_score`): only phrase pairs sharing
at least one word can have PO > 0, so candidate pairs come from a
word→phrase inverted index, and PO is one merge of two sorted id arrays.
The dict form of the same equations is a test oracle
(``tests/oracles/kore.py``) that the differential suites hold this
measure to within 1e-9.

The LSH-pruned production backends (§4.4.2,
:class:`~repro.relatedness.lsh.KoreLshRelatedness`) wrap this measure
and score band-colliding pairs through its raw ``_compute``, so the
wrapper owns the comparison counter and the ``relatedness`` fault site
fires once per surviving pair — never here a second time.
"""

from __future__ import annotations

from typing import Optional

from repro.compiled.keyphrases import CompiledKeyphrases
from repro.compiled.scoring import kore_score
from repro.kb.keyphrases import KeyphraseStore
from repro.relatedness.base import EntityRelatedness
from repro.types import EntityId
from repro.weights.model import WeightModel


class KoreRelatedness(EntityRelatedness):
    """Keyphrase overlap relatedness with µ phrase / IDF word weights.

    Scores through *compiled* when given (or attached later with
    :meth:`attach_compiled`); otherwise the first pair compiles a model
    from *store* and *weights*.  Compiling lazily lets a pipeline attach
    its shared model after building the measure, so no second vocabulary
    is scanned.
    """

    name = "KORE"

    def __init__(
        self,
        store: KeyphraseStore,
        weights: WeightModel,
        squared: bool = True,
        compiled: Optional[CompiledKeyphrases] = None,
    ):
        super().__init__()
        self._store = store
        self._weights = weights
        #: Squaring PO penalizes partially overlapping phrases (the paper's
        #: choice); ``squared=False`` is the ablation knob.
        self.squared = squared
        self.compiled = compiled

    def attach_compiled(self, compiled) -> None:
        """Score through a shared compiled keyphrase model."""
        self.compiled = compiled

    def _compute(self, a: EntityId, b: EntityId) -> float:
        compiled = self.compiled
        if compiled is None:
            # Racing first pairs compile equal models (the vocabulary is
            # the store's sorted word list); either may stay attached.
            compiled = CompiledKeyphrases(self._store, self._weights)
            self.compiled = compiled
        return kore_score(
            compiled.kore_model(a),
            compiled.kore_model(b),
            squared=self.squared,
        )
