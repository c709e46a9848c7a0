"""Two-stage hashing acceleration for KORE (Section 4.4.2).

Stage 1 (KB-wide, precomputed): every keyphrase is min-hash-sketched over its
word set and bucketed by LSH banding, grouping near-duplicate phrases.  Each
entity is then represented by the *set of phrase-bucket ids* of its phrases,
preserving the notion of partial phrase matches.

Stage 2 (per task, over the candidate entity set): entities are min-hash-
sketched over their phrase-bucket id sets and bucketed by a second LSH.
:meth:`KoreLshRelatedness.candidate_pairs` returns the entity pairs sharing
at least one stage-two bucket; only those get the exact KORE measure, and
all other pairs are assumed unrelated (relatedness 0).  Stage two is a
filter, not a state: the caller (the pipeline's one coherence pass per
document, :meth:`repro.relatedness.caching.CachingRelatedness
.coherence_edges`) visits the surviving pairs only.

The paper's settings (KORE_LSH-G: 200 bands × 1 row; KORE_LSH-F: 1000 bands
× 2 rows over millions of entities) are scaled down for the synthetic KB —
the *geometry* (G: single-row bands → recall-geared; F: two-row bands →
aggressive pruning) is preserved, the sketch lengths are configurable.

Sharing and state:

* Stage-one artifacts (phrase buckets, entity bucket sets, entity sketches)
  depend only on the static KB, are built once — eagerly via
  :meth:`KoreLshRelatedness.precompute`, which the pipeline runs at
  construction, mirroring the paper's offline stage — and are read-only
  afterwards, so one measure instance can serve a whole worker pool.
  ``precompute`` makes two calls of the min-hash kernel
  (:func:`repro.hashing.minhash.minhash_sets`): one over every
  not-yet-bucketed phrase of the entities it covers, one over all their
  phrase-bucket-id sets.  An entity outside the table (an emerging-entity
  placeholder) takes the same path alone.  For process pools,
  :meth:`export_sketches` lets the parent ship the precomputed sketches
  to workers instead of having each re-sketch the KB.
* Stage two keeps nothing: ``candidate_pairs`` bands the task's entities
  into a fresh index and returns the pairs, so concurrent batch threads
  share the measure without sharing any per-task state.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.hashing.lsh import LshIndex, band_signature
from repro.hashing.minhash import MinHasher, element_id
from repro.kb.keyphrases import KeyphraseStore, Phrase
from repro.obs import get_metrics
from repro.relatedness.base import EntityRelatedness
from repro.relatedness.kore import KoreRelatedness
from repro.types import EntityId


@dataclass(frozen=True)
class LshSettings:
    """Geometry of the two LSH stages.

    ``phrase_*`` controls stage one (keyphrase grouping); ``entity_*``
    controls stage two (entity grouping).  ``phrase_sketch_len`` must equal
    ``phrase_bands * phrase_rows`` — the banding consumes the sketch
    exactly (enforced here so a mismatch fails loudly at construction
    instead of silently producing empty-band bucket ids).
    """

    phrase_sketch_len: int = 4
    phrase_bands: int = 2
    phrase_rows: int = 2
    entity_bands: int = 24
    entity_rows: int = 1
    seed: int = 17

    def __post_init__(self) -> None:
        for field_name in (
            "phrase_sketch_len",
            "phrase_bands",
            "phrase_rows",
            "entity_bands",
            "entity_rows",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.phrase_sketch_len != self.phrase_bands * self.phrase_rows:
            raise ValueError(
                f"phrase_sketch_len {self.phrase_sketch_len} != "
                f"phrase_bands*phrase_rows = "
                f"{self.phrase_bands * self.phrase_rows}"
            )

    @property
    def entity_sketch_len(self) -> int:
        """Length of the stage-two entity sketches (bands x rows)."""
        return self.entity_bands * self.entity_rows

    @staticmethod
    def recall_geared(seed: int = 17) -> "LshSettings":
        """KORE_LSH-G: single-row entity bands, high recall.

        24 single-coordinate bands keep every coherence-relevant pair on
        the golden corpus while computing under a third of exact KORE's
        comparisons (221 of 693; ``TestGoldenCorpusFrontier`` in
        ``tests/relatedness/test_lsh_pruning.py`` pins both).
        """
        return LshSettings(entity_bands=24, entity_rows=1, seed=seed)

    @staticmethod
    def fast(seed: int = 17) -> "LshSettings":
        """KORE_LSH-F: two-row entity bands, aggressive pruning."""
        return LshSettings(entity_bands=80, entity_rows=2, seed=seed)


def lsh_geometry(backend: str) -> Optional[Tuple[LshSettings, str]]:
    """The LSH geometry and display name of relatedness *backend*.

    ``kore_lsh_g`` is the recall-geared KORE_LSH-G and ``kore_lsh_f`` the
    fast KORE_LSH-F; any other backend has no LSH stage (None).
    """
    if backend == "kore_lsh_g":
        return LshSettings.recall_geared(), "KORE_LSH-G"
    if backend == "kore_lsh_f":
        return LshSettings.fast(), "KORE_LSH-F"
    return None


def _element_ids(elements: Iterable[str]) -> Dict[str, int]:
    """:func:`element_id` of each distinct element, hashed once."""
    return {element: element_id(element) for element in set(elements)}


class _OverlaySketches(Mapping):
    """A read-only sketch table with a writable overlay.

    Wraps a lazy mapping (e.g. a snapshot's mmap-backed ``SketchTable``)
    by reference — no copy, no upfront decode — while still letting
    :meth:`KoreLshRelatedness._entity_sketch` memoize locally computed
    sketches for ids the base table does not cover.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base: Mapping) -> None:
        self._base = base
        self._overlay: Dict[EntityId, Tuple[int, ...]] = {}

    def get(self, key, default=None):
        if key in self._overlay:
            return self._overlay[key]
        return self._base.get(key, default)

    def __getitem__(self, key):
        if key in self._overlay:
            return self._overlay[key]
        return self._base[key]

    def __setitem__(self, key, value) -> None:
        self._overlay[key] = value

    def __contains__(self, key) -> bool:
        return key in self._overlay or key in self._base

    def __iter__(self):
        seen = set(self._overlay)
        yield from self._overlay
        for key in self._base:
            if key not in seen:
                yield key

    def __len__(self) -> int:
        return len(set(self._overlay) | set(self._base))


class KoreLshRelatedness(EntityRelatedness):
    """KORE with two-stage LSH pre-clustering.

    Wraps an exact :class:`~repro.relatedness.kore.KoreRelatedness`:
    :meth:`candidate_pairs` (stage two) keeps the pairs of a task's
    entity set that share a bucket, and :meth:`relatedness` is the exact
    (compiled) KORE value of a pair.  The wrapper's ``comparisons``
    counter is the Table 4.4 quantity — the inner measure's accounting
    is bypassed entirely (one pair = one fault-site fire = one count).
    """

    def __init__(
        self,
        store: KeyphraseStore,
        kore: KoreRelatedness,
        settings: Optional[LshSettings] = None,
        name: str = "KORE_LSH",
        sketches: Optional[
            Mapping[EntityId, Tuple[int, ...]]
        ] = None,
    ):
        super().__init__()
        self.name = name
        self._store = store
        self._kore = kore
        self._settings = settings if settings is not None else LshSettings()
        self._phrase_hasher = MinHasher(
            self._settings.phrase_sketch_len, seed=self._settings.seed
        )
        self._entity_hasher = MinHasher(
            self._settings.entity_sketch_len,
            seed=self._settings.seed + 1,
        )
        self._phrase_buckets: Dict[Phrase, Tuple[str, ...]] = {}
        self._entity_bucket_sets: Dict[EntityId, FrozenSet[str]] = {}
        #: Entity id -> stage-two sketch; the empty tuple marks entities
        #: without keyphrases (never indexed, relatedness 0 by definition).
        if sketches is None:
            self._entity_sketches = {}
        elif isinstance(sketches, dict):
            self._entity_sketches = dict(sketches)
        else:
            # A lazy read-only mapping (e.g. a snapshot SketchTable):
            # keep it by reference — zero copy, zero decode — and buffer
            # any locally computed sketches in an overlay.
            self._entity_sketches = _OverlaySketches(sketches)
        #: Whether the supplied table already covers every store entity
        #: (snapshot tables and cached whole-KB exports advertise this
        #: via a ``complete`` attribute), letting :meth:`precompute`
        #: skip the KB-wide stage-one pass entirely.
        self._sketches_complete = bool(getattr(sketches, "complete", False))
        #: Cumulative pruning statistics across candidate_pairs() calls
        #: (all threads), for benchmarks that run without a metrics
        #: registry.
        self.prepared_tasks = 0
        self.pruned_pairs = 0
        self.survived_pairs = 0
        self._stats_lock = threading.Lock()

    @property
    def settings(self) -> LshSettings:
        """The stage geometry this measure was built with."""
        return self._settings

    @property
    def inner(self) -> KoreRelatedness:
        """The wrapped exact measure (compiled models attach through it)."""
        return self._kore

    # ------------------------------------------------------------------
    # Stage 1: keyphrase grouping (cached per phrase); stage-two sketches
    # ------------------------------------------------------------------
    def _phrase_bucket_ids(self, phrase: Phrase) -> Tuple[str, ...]:
        cached = self._phrase_buckets.get(phrase)
        if cached is None:
            self._bucket_phrases([phrase])
            cached = self._phrase_buckets[phrase]
        return cached

    def _bucket_phrases(self, phrases: Iterable[Phrase]) -> None:
        """Stage one for every not-yet-bucketed phrase: one kernel call.

        Each phrase is sketched over its word set; its bucket ids are the
        ``b{band}:{sum of band coordinates}`` strings of its LSH bands.
        The band sums stay Python ints (``rows`` 61-bit coordinates can
        overflow uint64).
        """
        buckets = self._phrase_buckets
        pending = [
            phrase
            for phrase in dict.fromkeys(phrases)
            if phrase not in buckets
        ]
        if not pending:
            return
        word_ids = _element_ids(word for phrase in pending for word in phrase)
        sketches = self._phrase_hasher.sketch_id_sets(
            [word_ids[word] for word in set(phrase)] for phrase in pending
        )
        bands = self._settings.phrase_bands
        rows = self._settings.phrase_rows
        for phrase, sketch in zip(pending, sketches):
            buckets[phrase] = tuple(
                f"b{band}:{total}"
                for band, total in band_signature(sketch, bands, rows)
            )

    def _bucket_sets(
        self, entity_ids: List[EntityId]
    ) -> List[FrozenSet[str]]:
        """The phrase-bucket-id sets of *entity_ids* (memoized).

        Every phrase of the entities not yet covered goes through one
        stage-one kernel call.
        """
        known = self._entity_bucket_sets
        pending = {
            entity_id: self._store.keyphrases(entity_id)
            for entity_id in entity_ids
            if entity_id not in known
        }
        self._bucket_phrases(
            phrase for phrases in pending.values() for phrase in phrases
        )
        buckets = self._phrase_buckets
        for entity_id, phrases in pending.items():
            known[entity_id] = frozenset(
                bucket for phrase in phrases for bucket in buckets[phrase]
            )
        return [known[entity_id] for entity_id in entity_ids]

    def _sketch_entities(self, entity_ids: List[EntityId]) -> None:
        """Stage one and two for *entity_ids*, none of them sketched yet.

        Sketches depend only on the entity's (static) keyphrase set, so
        they are precomputed once — as in the paper, where stage one runs
        offline over the whole KB.  Stage two is one kernel call over
        every populated bucket set.  An entity without keyphrases gets
        the empty sentinel: the uniform maxima sketch would make all such
        entities collide in every band, admitting O(k²) spurious pairs
        whose exact relatedness is 0 by definition.
        """
        populated = []
        for entity_id, bucket_set in zip(
            entity_ids, self._bucket_sets(entity_ids)
        ):
            if bucket_set:
                populated.append((entity_id, bucket_set))
            else:
                self._entity_sketches[entity_id] = ()
        if not populated:
            return
        bucket_ids = _element_ids(
            bucket for _, bucket_set in populated for bucket in bucket_set
        )
        sketches = self._entity_hasher.sketch_id_sets(
            [bucket_ids[bucket] for bucket in bucket_set]
            for _, bucket_set in populated
        )
        for (entity_id, _), sketch in zip(populated, sketches):
            self._entity_sketches[entity_id] = sketch

    def _entity_bucket_set(self, entity_id: EntityId) -> FrozenSet[str]:
        return self._bucket_sets([entity_id])[0]

    def _entity_sketch(self, entity_id: EntityId) -> Tuple[int, ...]:
        sketch = self._entity_sketches.get(entity_id)
        if sketch is None:
            self._sketch_entities([entity_id])
            sketch = self._entity_sketches[entity_id]
        return sketch

    def precompute(
        self, entity_ids: Optional[Iterable[EntityId]] = None
    ) -> int:
        """Sketch entities ahead of time (the whole KB by default).

        Idempotent — already-sketched entities are skipped — and meant to
        run once before a measure is shared read-only across workers.
        The entities still to sketch go through two kernel calls, one per
        stage.  Returns the number of entities covered.

        When the measure was constructed over a table that advertises
        whole-KB coverage (``complete = True`` — snapshot tables and
        cached exports), the KB-wide pass is a guaranteed no-op and is
        skipped without touching the store, which is what makes worker
        attach O(1) instead of O(KB).
        """
        if entity_ids is None and self._sketches_complete:
            return 0
        start = time.perf_counter()
        ids = (
            list(entity_ids)
            if entity_ids is not None
            else self._store.entity_ids()
        )
        table = self._entity_sketches
        pending = [
            entity_id
            for entity_id in dict.fromkeys(ids)
            if table.get(entity_id) is None
        ]
        if pending:
            self._sketch_entities(pending)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("relatedness.lsh.sketched").inc(len(pending))
            metrics.histogram("relatedness.lsh.precompute_ms").observe(
                (time.perf_counter() - start) * 1000.0
            )
        return len(ids)

    def export_sketches(self) -> Dict[EntityId, Tuple[int, ...]]:
        """A picklable copy of the sketch table (process-pool hand-off)."""
        return dict(self._entity_sketches)

    # ------------------------------------------------------------------
    # Stage 2: entity grouping over one task's entity set
    # ------------------------------------------------------------------
    def candidate_pairs(
        self, entities: Iterable[EntityId]
    ) -> Set[Tuple[EntityId, EntityId]]:
        """The canonical pairs of *entities* sharing a stage-two bucket.

        A function of the entity set and the read-only sketch table
        alone: the entities are banded into a fresh index, so concurrent
        tasks share nothing.  An entity without keyphrases is never
        banded (relatedness 0 by definition).
        """
        start = time.perf_counter()
        index = LshIndex(
            self._settings.entity_bands, self._settings.entity_rows
        )
        universe = sorted(set(entities))
        for entity_id in universe:
            sketch = self._entity_sketch(entity_id)
            if sketch:
                index.add(entity_id, sketch)
        survivors = index.candidate_pairs()
        survived = len(survivors)
        pruned = len(universe) * (len(universe) - 1) // 2 - survived
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        with self._stats_lock:
            self.prepared_tasks += 1
            self.pruned_pairs += pruned
            self.survived_pairs += survived
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("relatedness.lsh.pruned").inc(pruned)
            metrics.counter("relatedness.lsh.survived").inc(survived)
            metrics.histogram("relatedness.lsh.prepare_ms").observe(
                elapsed_ms
            )
        return survivors

    def _compute(self, a: EntityId, b: EntityId) -> float:
        # The inner measure's raw value: this wrapper's ``relatedness``
        # already counted the comparison.
        return self._kore._compute(a, b)


# ----------------------------------------------------------------------
# Process-wide sketch-export cache (keyed by KB fingerprint + geometry)
# ----------------------------------------------------------------------
class CompleteSketches(dict):
    """A sketch export known to cover every store entity.

    The ``complete`` marker lets a :class:`KoreLshRelatedness` built over
    this table skip its KB-wide :meth:`~KoreLshRelatedness.precompute`
    pass entirely — the table is already the whole stage-one output.
    """

    complete = True


_EXPORT_CACHE_LOCK = threading.Lock()
_EXPORT_CACHE: Dict[Tuple[str, LshSettings], CompleteSketches] = {}


def cached_sketch_export(
    fingerprint: str, settings: LshSettings
) -> Optional[CompleteSketches]:
    """The cached whole-KB sketch export for this KB + geometry, if any.

    Sketches depend only on the store contents and the LSH geometry, so a
    (KB fingerprint, settings) pair fully determines the table: repeated
    serve/evaluate starts against the same on-disk KB reuse one export
    instead of re-sketching the KB before every worker fork.
    """
    with _EXPORT_CACHE_LOCK:
        return _EXPORT_CACHE.get((fingerprint, settings))


def store_sketch_export(
    fingerprint: str,
    settings: LshSettings,
    sketches: Mapping,
) -> CompleteSketches:
    """Cache a whole-KB export; returns the (complete-marked) table."""
    table = (
        sketches
        if isinstance(sketches, CompleteSketches)
        else CompleteSketches(sketches)
    )
    with _EXPORT_CACHE_LOCK:
        _EXPORT_CACHE[(fingerprint, settings)] = table
    return table


def clear_sketch_export_cache() -> None:
    """Drop every cached export (tests and long-lived tools)."""
    with _EXPORT_CACHE_LOCK:
        _EXPORT_CACHE.clear()
