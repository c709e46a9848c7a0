"""A document's coherence pass, one pair at a time (test oracle).

:func:`reference_coherence_edges` asks for every pair of a document's
sorted entity set separately, the way a per-pair lookup loop does: a
pair of candidates of one and the same single mention is skipped
(mutually exclusive, Section 4.6.4), a pair the LSH filter prunes answers
0.0 without a computation, and every other pair is the measure's exact
value.  The LSH filter is :class:`ReferenceLshFilter`: a pairwise
shared-band test over the stage-two sketches of
:func:`tests.oracles.minhash.reference_sketch_table`, not a bucket index.

The production pass,
:meth:`repro.relatedness.caching.CachingRelatedness.coherence_edges`,
asks the measure's ``candidate_pairs`` once and visits the surviving
pairs only; the differential suite requires the same pair sets and
exactly the same values.  :func:`reference_candidate_coherence` is the
per-pair coherence term of a result's weighted-degree scores, which the
pipeline reads from that pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.hashing.lsh import band_signature
from repro.kb.keyphrases import KeyphraseStore
from repro.relatedness.lsh import LshSettings
from repro.types import EntityId
from tests.oracles.minhash import reference_sketch_table

Pair = Tuple[EntityId, EntityId]


class ReferenceLshFilter:
    """KORE_LSH stage two as a pairwise test: two entities survive when
    their stage-two sketches agree on at least one band key."""

    def __init__(self, store: KeyphraseStore, settings: LshSettings):
        self.settings = settings
        self.table = reference_sketch_table(store, settings)

    def _band_keys(self, entity_id: EntityId):
        sketch = self.table.get(entity_id, ())
        if not sketch:
            return frozenset()
        return frozenset(
            band_signature(
                sketch, self.settings.entity_bands, self.settings.entity_rows
            )
        )

    def surviving_pairs(self, entities: Iterable[EntityId]) -> Set[Pair]:
        ordered = sorted(set(entities))
        keys = {entity_id: self._band_keys(entity_id) for entity_id in ordered}
        return {
            (a, b)
            for i, a in enumerate(ordered)
            for b in ordered[i + 1 :]
            if keys[a] & keys[b]
        }


def reference_coherence_edges(
    measure,
    entities: Iterable[EntityId],
    lsh: Optional[ReferenceLshFilter] = None,
    sole_mention: Optional[Mapping[EntityId, object]] = None,
) -> Tuple[Dict[Pair, float], Set[Pair]]:
    """``(values, pruned)`` of every non-exclusive pair, one at a time.

    *values* maps each canonical pair, in ascending order, to its value:
    the exact measure, or 0.0 when *lsh* prunes it (those pairs are also
    listed in *pruned*).
    """
    ordered = sorted(set(entities))
    surviving = lsh.surviving_pairs(ordered) if lsh is not None else None
    sole = sole_mention or {}
    values: Dict[Pair, float] = {}
    pruned: Set[Pair] = set()
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if sole.get(a) is not None and sole.get(a) == sole.get(b):
                continue
            if surviving is not None and (a, b) not in surviving:
                values[(a, b)] = 0.0
                pruned.add((a, b))
                continue
            values[(a, b)] = measure.relatedness(a, b)
    return values, pruned


def reference_candidate_coherence(
    measure,
    universe: Iterable[EntityId],
    lsh: Optional[ReferenceLshFilter],
    entity_id: EntityId,
    others: Iterable[EntityId],
) -> float:
    """Σ over sorted *others* of the pair value of ``(entity_id, other)``.

    The LSH filter runs over the document's entity set *universe*, so a
    pair it prunes, or one with an entity outside the set, is 0.0; every
    other pair is the exact measure, whatever mentions its entities are
    candidates of.
    """
    surviving = lsh.surviving_pairs(universe) if lsh is not None else None

    def value(other: EntityId) -> float:
        pair = (min(entity_id, other), max(entity_id, other))
        if surviving is not None and pair not in surviving:
            return 0.0
        return measure.relatedness(entity_id, other)

    return sum(value(other) for other in others if other != entity_id)
