"""Compiled per-entity keyphrase models as flat arrays.

:class:`CompiledKeyphrases` turns the dict-of-strings models of
:class:`~repro.kb.keyphrases.KeyphraseStore` and
:class:`~repro.weights.model.WeightModel` into flat, cache-friendly,
pickle-cheap arrays, compiled lazily per entity and cached:

* the **sim model** (Eq. 3.4/3.6) keeps, per entity, the concatenated
  distinct token ids of its (optionally capped) keyphrases with prefix
  offsets, parallel NPMI/IDF weights, precomputed per-phrase total
  weights, and a word→phrase inverted index so scoring only touches
  phrases that share a word with the context;
* the **KORE model** (Eq. 4.3/4.4) keeps per-phrase *sorted* distinct
  word ids with aligned γ (IDF) weights, the φ (µ) phrase-weight array
  with its precomputed sum, and the word→phrase inverted index as id
  arrays.

All models share one :class:`~repro.compiled.vocabulary.Vocabulary`.
Arrays are :mod:`array` module arrays (``int32`` ids / ``float64``
weights): compact, picklable, and fast to iterate from pure Python —
build the object (or call :meth:`precompile`) before forking process
workers and every worker shares it read-only.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.compiled.context import IndexedContext
from repro.compiled.vocabulary import Vocabulary
from repro.kb.keyphrases import KeyphraseStore
from repro.types import EntityId
from repro.weights.model import WeightModel

if TYPE_CHECKING:  # the similarity package imports this one
    from repro.similarity.context import DocumentContext


class SimEntityModel:
    """Flat-array similarity model of one entity (Eq. 3.4/3.6)."""

    __slots__ = (
        "phrase_offsets",
        "phrase_token_ids",
        "phrase_token_weights",
        "phrase_totals",
        "phrase_count",
        "word_ids",
        "word_weights",
        "word_phrase_offsets",
        "word_phrase_ids",
    )

    def __init__(
        self,
        phrase_offsets,
        phrase_token_ids,
        phrase_token_weights,
        phrase_totals,
        word_ids,
        word_weights,
        word_phrase_offsets,
        word_phrase_ids,
    ):
        #: Prefix offsets into the concatenated token arrays; phrase ``p``
        #: owns ``[phrase_offsets[p], phrase_offsets[p + 1])``.
        self.phrase_offsets = phrase_offsets
        #: Distinct token ids per phrase (first-occurrence order).
        self.phrase_token_ids = phrase_token_ids
        #: Scheme weights aligned with :attr:`phrase_token_ids`.
        self.phrase_token_weights = phrase_token_weights
        #: Precomputed Eq. 3.4 denominators (sum of distinct-word weights).
        self.phrase_totals = phrase_totals
        self.phrase_count = len(phrase_totals)
        #: Sorted distinct word ids across all phrases, with weights.
        self.word_ids = word_ids
        self.word_weights = word_weights
        #: Inverted index: word ``word_ids[j]`` occurs in phrases
        #: ``word_phrase_ids[word_phrase_offsets[j]:word_phrase_offsets[j+1]]``.
        self.word_phrase_offsets = word_phrase_offsets
        self.word_phrase_ids = word_phrase_ids


class KoreEntityModel:
    """Flat-array KORE model of one entity (Eq. 4.3/4.4)."""

    __slots__ = (
        "phrase_word_offsets",
        "phrase_word_ids",
        "phrase_word_gammas",
        "phi",
        "phi_sum",
        "phrase_count",
        "word_to_phrases",
        "word_gammas",
    )

    def __init__(
        self,
        phrase_word_offsets,
        phrase_word_ids,
        phrase_word_gammas,
        phi,
        word_to_phrases,
        word_gammas,
    ):
        #: Prefix offsets; phrase ``p`` owns the *sorted* id range
        #: ``phrase_word_ids[phrase_word_offsets[p]:phrase_word_offsets[p+1]]``.
        self.phrase_word_offsets = phrase_word_offsets
        self.phrase_word_ids = phrase_word_ids
        #: γ (IDF) weights aligned with :attr:`phrase_word_ids`.
        self.phrase_word_gammas = phrase_word_gammas
        #: φ (µ) weight per phrase, 0.0 where the weight model dropped it.
        self.phi = phi
        #: Precomputed Eq. 4.4 denominator half (``sum(phi)``).
        self.phi_sum = sum(phi)
        self.phrase_count = len(phi)
        #: Inverted index: word id → array of phrase indices containing it.
        self.word_to_phrases = word_to_phrases
        #: Entity-level γ map (word id → weight): Eq. 4.3's union ``max``
        #: reads the *other entity's* weight even for words absent from
        #: the partner phrase, so per-phrase arrays alone don't suffice.
        self.word_gammas = word_gammas


class CompiledKeyphrases:
    """Lazily compiled, shared-vocabulary entity models.

    Parameters mirror :class:`~repro.similarity.keyphrase_match.\
KeyphraseSimilarity`: ``scheme`` and ``max_keyphrases`` shape the sim
    models (KORE models always use the full phrase list with µ/IDF
    weights, as Eq. 4.4 prescribes).
    """

    def __init__(
        self,
        store: KeyphraseStore,
        weights: WeightModel,
        scheme: str = "npmi",
        max_keyphrases: Optional[int] = None,
    ):
        if scheme not in ("npmi", "idf"):
            raise ValueError(f"unknown weight scheme: {scheme!r}")
        self._store = store
        self._weights = weights
        self.scheme = scheme
        self.max_keyphrases = max_keyphrases
        #: The full store vocabulary is interned eagerly so that contexts
        #: indexed *before* an entity's lazy compilation still carry the
        #: postings of that entity's words (interning later would assign
        #: ids absent from already-built indexes).
        self.vocabulary = Vocabulary.from_store(store)
        self._sim_models: Dict[EntityId, SimEntityModel] = {}
        self._kore_models: Dict[EntityId, KoreEntityModel] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def sim_model(self, entity_id: EntityId) -> SimEntityModel:
        """The entity's similarity model, compiling it on first use."""
        model = self._sim_models.get(entity_id)
        if model is None:
            model = self._compile_sim(entity_id)
            # setdefault keeps the first fully-built model under
            # concurrent compilation; duplicates are equivalent.
            model = self._sim_models.setdefault(entity_id, model)
        return model

    def kore_model(self, entity_id: EntityId) -> KoreEntityModel:
        """The entity's KORE model, compiling it on first use."""
        model = self._kore_models.get(entity_id)
        if model is None:
            model = self._compile_kore(entity_id)
            model = self._kore_models.setdefault(entity_id, model)
        return model

    def precompile(
        self,
        entity_ids: Optional[Iterable[EntityId]] = None,
        kore: bool = False,
    ) -> int:
        """Compile models eagerly (pre-fork); returns the entity count."""
        ids = (
            list(entity_ids)
            if entity_ids is not None
            else self._store.entity_ids()
        )
        for entity_id in ids:
            self.sim_model(entity_id)
            if kore:
                self.kore_model(entity_id)
        return len(ids)

    def index_context(self, context: DocumentContext) -> IndexedContext:
        """Posting-index a document context against this vocabulary."""
        return IndexedContext(context, self.vocabulary)

    def _compile_sim(self, entity_id: EntityId) -> SimEntityModel:
        phrases = self._store.top_keyphrases(
            entity_id, limit=self.max_keyphrases
        )
        weight_map = self._weights.keyword_weights(
            entity_id, scheme=self.scheme
        )
        intern = self.vocabulary.intern
        phrase_offsets = array("q", [0])
        token_ids = array("i")
        token_weights = array("d")
        totals = array("d")
        inverted: Dict[int, array] = {}
        weight_of: Dict[int, float] = {}
        for index, phrase in enumerate(phrases):
            total = 0.0
            for word in dict.fromkeys(phrase):  # stable dedup
                wid = intern(word)
                weight = weight_map.get(word, 0.0)
                token_ids.append(wid)
                token_weights.append(weight)
                total += weight
                postings = inverted.get(wid)
                if postings is None:
                    inverted[wid] = array("i", (index,))
                    weight_of[wid] = weight
                else:
                    postings.append(index)
            phrase_offsets.append(len(token_ids))
            totals.append(total)
        word_ids = array("i", sorted(inverted))
        word_weights = array("d", (weight_of[wid] for wid in word_ids))
        word_phrase_offsets = array("q", [0])
        word_phrase_ids = array("i")
        for wid in word_ids:
            word_phrase_ids.extend(inverted[wid])
            word_phrase_offsets.append(len(word_phrase_ids))
        return SimEntityModel(
            phrase_offsets,
            token_ids,
            token_weights,
            totals,
            word_ids,
            word_weights,
            word_phrase_offsets,
            word_phrase_ids,
        )

    def _compile_kore(self, entity_id: EntityId) -> KoreEntityModel:
        phrases = self._store.keyphrases(entity_id)
        phi_map = self._weights.keyphrase_weights(entity_id)
        gamma_map = self._weights.keyword_weights(entity_id, scheme="idf")
        intern = self.vocabulary.intern
        offsets = array("q", [0])
        word_ids = array("i")
        gammas = array("d")
        phi = array("d")
        inverted: Dict[int, array] = {}
        for index, phrase in enumerate(phrases):
            pairs = sorted(
                (intern(word), gamma_map.get(word, 0.0))
                for word in set(phrase)
            )
            for wid, gamma in pairs:
                word_ids.append(wid)
                gammas.append(gamma)
                postings = inverted.get(wid)
                if postings is None:
                    inverted[wid] = array("i", (index,))
                else:
                    postings.append(index)
            offsets.append(len(word_ids))
            phi.append(phi_map.get(phrase, 0.0))
        word_gammas = {
            self.vocabulary.intern(word): gamma
            for word, gamma in gamma_map.items()
        }
        return KoreEntityModel(
            offsets, word_ids, gammas, phi, inverted, word_gammas
        )
