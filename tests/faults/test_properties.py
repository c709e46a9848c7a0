"""Property-based invariants (Hypothesis) for the robustness substrate.

Two families the chaos suite leans on:

* min-hash / LSH band math — signature lengths, set semantics, the
  ``bands * rows == sketch_length`` contract;
* the shared relatedness memo — cached values are bit-identical to
  direct computation and every distinct pair is stored and computed
  once, for arbitrary lookup sequences.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.lsh import LshIndex, band_signature
from repro.hashing.minhash import MinHasher, jaccard_estimate
from repro.relatedness.base import EntityRelatedness
from repro.relatedness.caching import CachingRelatedness

COMMON = settings(max_examples=30, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# Min-hash / LSH band math
# ----------------------------------------------------------------------
element_sets = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=6), max_size=12
)


class TestMinHashProperties:
    @COMMON
    @given(
        elements=element_sets,
        num_hashes=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_sketch_length_and_set_semantics(
        self, elements, num_hashes, seed
    ):
        hasher = MinHasher(num_hashes, seed=seed)
        sketch = hasher.sketch(elements)
        assert len(sketch) == num_hashes
        # Order- and multiplicity-invariant (sketches of *sets*).
        assert sketch == hasher.sketch(list(reversed(elements)) * 2)
        # Same configuration → same sketch from a fresh hasher.
        assert sketch == MinHasher(num_hashes, seed=seed).sketch(elements)

    @COMMON
    @given(
        elements=element_sets,
        other=element_sets,
        num_hashes=st.integers(min_value=1, max_value=32),
    )
    def test_jaccard_estimate_bounds(self, elements, other, num_hashes):
        hasher = MinHasher(num_hashes)
        estimate = jaccard_estimate(
            hasher.sketch(elements), hasher.sketch(other)
        )
        assert 0.0 <= estimate <= 1.0
        assert jaccard_estimate(
            hasher.sketch(elements), hasher.sketch(elements)
        ) == 1.0


class TestLshBandProperties:
    @COMMON
    @given(
        bands=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=999),
        elements=element_sets,
    )
    def test_band_count_matches_index_contract(
        self, bands, rows, seed, elements
    ):
        index = LshIndex(bands, rows)
        assert index.sketch_length == bands * rows
        sketch = MinHasher(index.sketch_length, seed=seed).sketch(elements)
        signature = band_signature(sketch, bands, rows)
        assert len(signature) == bands
        assert [band for band, _key in signature] == list(range(bands))

    @COMMON
    @given(
        bands=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=1, max_value=8),
        delta=st.integers(min_value=-3, max_value=3).filter(
            lambda d: d != 0
        ),
    )
    def test_wrong_sketch_length_rejected(self, bands, rows, delta):
        length = bands * rows + delta
        if length < 0:
            return
        with pytest.raises(ValueError):
            band_signature([0] * length, bands, rows)


# ----------------------------------------------------------------------
# The shared relatedness memo
# ----------------------------------------------------------------------
class _HashRelatedness(EntityRelatedness):
    """Deterministic stand-in measure: a hash of the canonical pair."""

    name = "hashrel"

    def _compute(self, a, b):
        digest = hashlib.blake2b(
            f"{a}|{b}".encode("utf-8"), digest_size=8
        ).digest()
        return (int.from_bytes(digest, "big") % 1000) / 999.0


entity_ids = st.sampled_from([f"E{i}" for i in range(6)])
lookup_sequences = st.lists(
    st.tuples(entity_ids, entity_ids), max_size=40
)


class TestMemoProperties:
    @COMMON
    @given(lookups=lookup_sequences)
    def test_values_exact_and_each_pair_stored_once(self, lookups):
        cache = CachingRelatedness(_HashRelatedness())
        reference = _HashRelatedness()
        for a, b in lookups:
            value = cache.relatedness(a, b)
            assert value == reference.relatedness(a, b)
        stats = cache.cache_stats()
        non_identical = sum(1 for a, b in lookups if a != b)
        distinct = {frozenset(pair) for pair in lookups if pair[0] != pair[1]}
        assert stats.lookups == non_identical
        assert stats.hits + stats.misses == non_identical
        assert stats.size == stats.misses == stats.computations
        assert stats.size == len(distinct)
