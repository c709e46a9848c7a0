"""Differential: the numpy min-hash kernel versus the per-hash loop oracle.

:func:`repro.hashing.minhash.minhash_sets` sketches many id sets in one
uint64 array pass with exact modular arithmetic, and KORE_LSH's
:meth:`~repro.relatedness.lsh.KoreLshRelatedness.precompute` calls it once
per stage.  Every sketch must equal the plain
``min((a*x + b) % p for x in ids)`` of :mod:`tests.oracles.minhash`
exactly — at edge ids and coefficients, over whole-KB sketch tables for
both gearings, and on the lazy one-entity path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.stress import StressConfig, generate_stress_kb
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.hashing.minhash import (
    _ELEMENT_BUDGET,
    MinHasher,
    _coefficients,
    minhash_sets,
)
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.relatedness.kore import KoreRelatedness
from repro.relatedness.lsh import KoreLshRelatedness, LshSettings
from repro.weights.model import WeightModel
from tests.oracles.minhash import (
    MERSENNE_61 as P,
    reference_phrase_buckets,
    reference_sketch_ids,
    reference_sketch_table,
)

EDGE_IDS = [
    0, 1, P - 2, P - 1, P, P + 1, 2**64 - 1, 2**64 + 5, -1, -P, -(2**70)
]

WORLD_SEEDS = [2203, 2204, 2205]

GEARINGS = {
    "g": LshSettings.recall_geared(),
    "f": LshSettings.fast(),
}

_ids = st.one_of(
    st.sampled_from(EDGE_IDS),
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=-(2**80), max_value=2**80),
)
#: Small pools make duplicates within a set likely.
_id_sets = st.lists(
    st.lists(st.one_of(_ids, st.sampled_from([3, 5, 7])), max_size=12),
    max_size=8,
)


def _flatten(id_sets):
    flat = [x % P for ids in id_sets for x in ids]
    ends = np.cumsum([len(ids) for ids in id_sets], dtype=np.int64)
    return np.array(flat, dtype=np.uint64), ends


def _columns(sketches: np.ndarray):
    return [tuple(column) for column in sketches.T.tolist()]


class TestKernelAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        id_sets=_id_sets,
        num_hashes=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_any_python_ints(self, id_sets, num_hashes, seed):
        hasher = MinHasher(num_hashes, seed=seed)
        coeffs = _coefficients(num_hashes, seed)
        expected = [reference_sketch_ids(coeffs, ids) for ids in id_sets]
        assert hasher.sketch_id_sets(id_sets) == expected
        for ids, sketch in zip(id_sets, expected):
            assert hasher.sketch_ids(iter(ids)) == sketch

    @settings(max_examples=200, deadline=None)
    @given(
        id_sets=st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([0, 1, 2, P - 2, P - 1]),
                    st.integers(min_value=0, max_value=P - 1),
                ),
                max_size=10,
            ),
            max_size=6,
        ),
        extra=st.tuples(
            st.integers(min_value=0, max_value=P - 1),
            st.integers(min_value=0, max_value=P - 1),
        ),
    )
    def test_edge_coefficients(self, id_sets, extra):
        coeffs = [(1, 0), (1, P - 1), (P - 1, 0), (P - 1, P - 1), extra]
        ids, ends = _flatten(id_sets)
        got = _columns(minhash_sets(ids, ends, coeffs))
        assert got == [reference_sketch_ids(coeffs, s) for s in id_sets]

    def test_sketches_are_python_ints(self):
        sketch = MinHasher(4, seed=1).sketch_ids([P - 1, 2**64 + 5, -3])
        assert all(type(value) is int for value in sketch)

    def test_empty_sets_get_the_sentinel(self):
        hasher = MinHasher(6, seed=2)
        sentinel = tuple([P] * 6)
        assert hasher.sketch_id_sets([]) == []
        assert hasher.sketch_id_sets([[], []]) == [sentinel, sentinel]
        first, empty, last = hasher.sketch_id_sets([[4], [], [P - 1]])
        assert empty == sentinel
        assert first == reference_sketch_ids(_coefficients(6, 2), [4])
        assert last == reference_sketch_ids(_coefficients(6, 2), [P - 1])

    def test_batch_over_the_element_budget(self):
        # More ids than one pass holds: the kernel runs row by row.
        rng = random.Random(5)
        id_sets = [
            [rng.randrange(P) for _ in range(rng.randrange(0, 40))]
            for _ in range(4000)
        ]
        id_sets[17] = []
        assert sum(map(len, id_sets)) > _ELEMENT_BUDGET
        coeffs = _coefficients(5, 9)
        ids, ends = _flatten(id_sets)
        got = _columns(minhash_sets(ids, ends, coeffs))
        assert got == [reference_sketch_ids(coeffs, s) for s in id_sets]


def _world_store(seed: int):
    world = World.generate(WorldConfig(seed=seed, clusters_per_domain=2))
    kb, _wiki = build_world_kb(world, seed=seed + 94)
    return kb


@pytest.fixture(scope="module")
def stress_kb():
    return generate_stress_kb(StressConfig(entities=3000))


def _measure(kb, settings_obj: LshSettings) -> KoreLshRelatedness:
    store = kb.keyphrases
    kore = KoreRelatedness(store, WeightModel(store, kb.links))
    return KoreLshRelatedness(store, kore, settings_obj)


def _assert_table_matches(kb, gearing: str) -> None:
    settings_obj = GEARINGS[gearing]
    measure = _measure(kb, settings_obj)
    measure.precompute()
    expected = reference_sketch_table(kb.keyphrases, settings_obj)
    assert measure.export_sketches() == expected


class TestWholeKbTables:
    @pytest.mark.parametrize("gearing", sorted(GEARINGS))
    @pytest.mark.parametrize("seed", WORLD_SEEDS)
    def test_seeded_world(self, seed, gearing):
        _assert_table_matches(_world_store(seed), gearing)

    @pytest.mark.parametrize("gearing", sorted(GEARINGS))
    def test_stress_kb(self, stress_kb, gearing):
        _assert_table_matches(stress_kb, gearing)


class TestLazyPath:
    @pytest.mark.parametrize("gearing", sorted(GEARINGS))
    def test_one_entity_at_a_time_equals_the_batch(self, kb, gearing):
        settings_obj = GEARINGS[gearing]
        batched = _measure(kb, settings_obj)
        batched.precompute()
        lazy = _measure(kb, settings_obj)
        entities = kb.keyphrases.entity_ids()
        random.Random(3).shuffle(entities)
        for entity_id in entities:
            assert lazy._entity_sketch(entity_id) == (
                batched._entity_sketch(entity_id)
            )
        assert lazy.export_sketches() == batched.export_sketches()

    def test_bucket_sets_and_phrase_buckets(self, kb):
        settings_obj = GEARINGS["g"]
        batched = _measure(kb, settings_obj)
        batched.precompute()
        lazy = _measure(kb, settings_obj)
        store = kb.keyphrases
        for entity_id in store.entity_ids()[:40]:
            for phrase in store.keyphrases(entity_id):
                assert lazy._phrase_bucket_ids(phrase) == (
                    reference_phrase_buckets(phrase, settings_obj)
                )
            assert lazy._entity_bucket_set(entity_id) == (
                batched._entity_bucket_set(entity_id)
            )

    def test_unknown_entity_gets_the_empty_sketch(self, kb):
        measure = _measure(kb, GEARINGS["g"])
        assert measure._entity_sketch("Emerging_Placeholder_1") == ()


class TestPrecomputeCounts:
    @pytest.fixture(autouse=True)
    def metrics(self):
        previous = set_metrics(MetricsRegistry())
        yield get_metrics()
        set_metrics(previous)

    @staticmethod
    def _sketched(metrics) -> int:
        return metrics.snapshot()["counters"].get(
            "relatedness.lsh.sketched", 0
        )

    def test_counts_exactly_the_sketched_entities(self, kb, metrics):
        measure = _measure(kb, GEARINGS["g"])
        entities = kb.keyphrases.entity_ids()
        # Five sketched lazily first, and one id listed twice.
        for entity_id in entities[:5]:
            measure._entity_sketch(entity_id)
        subset = entities[:30] + [entities[10]]
        assert measure.precompute(subset) == len(subset)
        assert self._sketched(metrics) == 25
        measure.precompute()
        assert self._sketched(metrics) == len(entities) - 5
        measure.precompute()
        assert self._sketched(metrics) == len(entities) - 5
