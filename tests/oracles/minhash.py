"""Min-hash sketches as one Python generator per hash function (test oracle).

:func:`reference_sketch_ids` is the plain ``min((a*x + b) % p for x in ids)``
per ``(a, b)`` pair, and :func:`reference_sketch_table` runs KORE_LSH's two
stages (§4.4.2) one phrase and one entity at a time over it.  The
production kernel, :func:`repro.hashing.minhash.minhash_sets`, sketches
many sets in one uint64 array pass, and
:meth:`repro.relatedness.lsh.KoreLshRelatedness.precompute` calls it once
per stage; the differential suite requires exact equality with both.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

from repro.hashing.lsh import band_signature
from repro.hashing.minhash import _coefficients, element_id
from repro.kb.keyphrases import KeyphraseStore, Phrase
from repro.relatedness.lsh import LshSettings
from repro.types import EntityId

MERSENNE_61 = (1 << 61) - 1


def reference_sketch_ids(
    coeffs: Sequence[Tuple[int, int]], ids: Iterable[int]
) -> Tuple[int, ...]:
    """The sketch of one integer set; ``(p, ..., p)`` when it is empty."""
    pool = list(ids)
    if not pool:
        return tuple([MERSENNE_61] * len(coeffs))
    sketch = []
    for a, b in coeffs:
        sketch.append(min((a * x + b) % MERSENNE_61 for x in pool))
    return tuple(sketch)


class ReferenceMinHasher:
    """:class:`repro.hashing.minhash.MinHasher`'s hash family, one set at
    a time."""

    def __init__(self, num_hashes: int, seed: int = 0):
        self.coeffs = _coefficients(num_hashes, seed)

    def sketch(self, elements: Iterable[str]) -> Tuple[int, ...]:
        return self.sketch_ids(element_id(el) for el in set(elements))

    def sketch_ids(self, ids: Iterable[int]) -> Tuple[int, ...]:
        return reference_sketch_ids(self.coeffs, ids)


def reference_phrase_buckets(
    phrase: Phrase, settings: LshSettings
) -> Tuple[str, ...]:
    """Stage one: the ``b{band}:{band sum}`` bucket ids of one phrase."""
    sketch = ReferenceMinHasher(
        settings.phrase_sketch_len, settings.seed
    ).sketch(phrase)
    return tuple(
        f"b{band}:{total}"
        for band, total in band_signature(
            sketch, settings.phrase_bands, settings.phrase_rows
        )
    )


def reference_sketch_table(
    store: KeyphraseStore, settings: LshSettings
) -> Dict[EntityId, Tuple[int, ...]]:
    """Every store entity's stage-two sketch; ``()`` without keyphrases."""
    entity_hasher = ReferenceMinHasher(
        settings.entity_sketch_len, settings.seed + 1
    )
    phrase_buckets: Dict[Phrase, Tuple[str, ...]] = {}
    table: Dict[EntityId, Tuple[int, ...]] = {}
    for entity_id in store.entity_ids():
        buckets: Set[str] = set()
        for phrase in store.keyphrases(entity_id):
            if phrase not in phrase_buckets:
                phrase_buckets[phrase] = reference_phrase_buckets(
                    phrase, settings
                )
            buckets.update(phrase_buckets[phrase])
        table[entity_id] = entity_hasher.sketch(buckets) if buckets else ()
    return table
