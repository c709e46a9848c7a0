"""Min-hash sketches.

A min-hash sketch of a set is the vector of minima of the set's element ids
under k independent hash permutations.  The probability that two sketches
agree in one coordinate equals the Jaccard similarity of the underlying sets
(Broder et al.), making sketches an unbiased Jaccard estimator and the
substrate for LSH banding.

Permutations are the standard universal family ``h(x) = (a*x + b) mod p``
with the Mersenne prime p = 2^61 - 1, seeded deterministically.

:func:`minhash_sets` is the one kernel: it sketches many id sets in a single
call over a flat uint64 id array, with exact modular arithmetic (no value
ever reaches 2^64), so every coordinate equals the plain
``min((a*x + b) % p for x in ids)`` that ``tests/oracles/minhash.py`` keeps
as the differential oracle.  Sketches come back as tuples of Python ints.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

_MERSENNE_61 = (1 << 61) - 1

# Every operand of the kernel is an explicit uint64: numpy releases differ
# in how they promote a uint64 array against a Python int.
_P = np.uint64(_MERSENNE_61)
_LOW30 = np.uint64((1 << 30) - 1)
_LOW31 = np.uint64((1 << 31) - 1)
_ONE = np.uint64(1)
_SHIFT30 = np.uint64(30)
_SHIFT31 = np.uint64(31)
_SHIFT61 = np.uint64(61)

#: Elements (hash rows x ids) one kernel pass holds at once.  A single
#: entity's sketch is one pass over all rows; a whole-KB batch runs one
#: row at a time, so memory stays O(ids).
_ELEMENT_BUDGET = 1 << 16


def element_id(element: str) -> int:
    """Stable 60-bit integer id for a string element.

    Public so callers that sketch many sets over shared elements (LSH
    stage one's words and bucket ids) can hash each distinct element once
    and sketch via :meth:`MinHasher.sketch_id_sets`.
    """
    digest = hashlib.blake2b(
        element.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % _MERSENNE_61


def _coefficients(num_hashes: int, seed: int) -> List[Tuple[int, int]]:
    coeffs: List[Tuple[int, int]] = []
    for index in range(num_hashes):
        material = hashlib.sha256(
            f"minhash:{seed}:{index}".encode("utf-8")
        ).digest()
        a = int.from_bytes(material[:8], "big") % (_MERSENNE_61 - 1) + 1
        b = int.from_bytes(material[8:16], "big") % _MERSENNE_61
        coeffs.append((a, b))
    return coeffs


def _hash_rows(
    a_hi: np.ndarray,
    a_lo: np.ndarray,
    b: np.ndarray,
    x_hi: np.ndarray,
    x_lo: np.ndarray,
) -> np.ndarray:
    """``(a*x + b) mod p`` for a column of coefficients over a row of ids.

    With ``a = a_hi*2^31 + a_lo`` and ``x = x_hi*2^31 + x_lo`` (30-bit
    high and 31-bit low limbs) the product is ``hh*2^62 + mid*2^31 + ll``
    with each part below 2^62.  Since 2^61 ≡ 1 (mod p), the 2^62 term
    folds to ``2*hh`` and ``mid*2^31`` to ``mid_hi + mid_lo*2^31``
    (``mid = mid_hi*2^30 + mid_lo``).  The folded terms and b sum below
    2^64; one more fold leaves at most p + 4, which one conditional
    subtract reduces.  Three arrays of the output's shape are live.
    """
    total = a_hi * x_hi
    total <<= _ONE  # 2*hh < 2^61
    mid = a_hi * x_lo
    part = a_lo * x_hi
    mid += part  # < 2^62
    np.bitwise_and(mid, _LOW30, out=part)
    part <<= _SHIFT31
    total += part  # mid_lo*2^31 < 2^61
    mid >>= _SHIFT30
    total += mid  # mid_hi < 2^32
    low = np.multiply(a_lo, x_lo, out=mid)  # < 2^62
    np.bitwise_and(low, _P, out=part)
    total += part
    low >>= _SHIFT61
    total += low  # <= 1
    total += b  # < p; total < 2^63 + 2^33
    np.bitwise_and(total, _P, out=part)
    total >>= _SHIFT61
    part += total  # <= p + 4
    np.subtract(part, _P, out=total)
    return np.minimum(part, total, out=part)


def minhash_sets(
    ids: np.ndarray,
    ends: Union[np.ndarray, Sequence[int]],
    coeffs: Union[np.ndarray, Sequence[Tuple[int, int]]],
) -> np.ndarray:
    """Min-hash sketches of many id sets in one call.

    *ids* is the uint64 concatenation of every set's ids, each below p;
    set *i* spans ``ids[ends[i-1]:ends[i]]`` (``ends`` is nondecreasing,
    ``ends[-1] == len(ids)``).  *coeffs* holds the ``(a, b)`` pairs of
    the hash family (a ``(k, 2)`` array or a sequence of pairs), both in
    ``[0, p)``.  Returns a ``(k, len(ends))`` uint64 array whose column
    *i* is set *i*'s sketch; an empty set's column is the ``(p, ..., p)``
    sentinel.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    coeffs = np.asarray(coeffs, dtype=np.uint64).reshape(-1, 2)
    out = np.full((len(coeffs), len(ends)), _P, dtype=np.uint64)
    if len(ids) == 0:
        return out
    ends = np.asarray(ends, dtype=np.int64)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    nonempty = np.flatnonzero(ends > starts)
    # Only non-empty sets reach reduceat, whose empty segments would
    # return a neighbour's element instead of the sentinel.
    seg_starts = starts[nonempty]
    a_hi = coeffs[:, :1] >> _SHIFT31
    a_lo = coeffs[:, :1] & _LOW31
    b = coeffs[:, 1:]
    x_hi = ids >> _SHIFT31
    x_lo = ids & _LOW31
    step = max(1, _ELEMENT_BUDGET // len(ids))
    for first in range(0, len(coeffs), step):
        rows = slice(first, first + step)
        hashed = _hash_rows(a_hi[rows], a_lo[rows], b[rows], x_hi, x_lo)
        out[rows, nonempty] = np.minimum.reduceat(hashed, seg_starts, axis=1)
    return out


class MinHasher:
    """Computes fixed-length min-hash sketches of string sets."""

    def __init__(self, num_hashes: int, seed: int = 0):
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_hashes = num_hashes
        self.seed = seed
        self._coeffs = np.array(
            _coefficients(num_hashes, seed), dtype=np.uint64
        )

    def sketch(self, elements: Iterable[str]) -> Tuple[int, ...]:
        """Min-hash sketch of a set of string elements.

        An empty set yields a sketch of sentinel maxima (never collides
        with a non-empty sketch coordinate except astronomically rarely).
        """
        return self.sketch_ids(element_id(el) for el in set(elements))

    def sketch_ids(self, ids: Iterable[int]) -> Tuple[int, ...]:
        """Sketch one set already mapped to :func:`element_id` integers."""
        return self.sketch_id_sets([ids])[0]

    def sketch_id_sets(
        self, id_sets: Iterable[Iterable[int]]
    ) -> List[Tuple[int, ...]]:
        """Sketch many integer sets in one kernel call, in input order.

        The fast path for callers that cache element ids across many
        sketches.  Ids may be any Python ints (they are reduced mod p
        first, which leaves every hash unchanged); duplicates do not
        change the minima, so the caller need not deduplicate.
        """
        flat: List[int] = []
        ends: List[int] = []
        for ids in id_sets:
            flat.extend(ids)
            ends.append(len(flat))
        residues = np.array(
            [x % _MERSENNE_61 for x in flat], dtype=np.uint64
        )
        sketches = minhash_sets(residues, ends, self._coeffs)
        return [tuple(column) for column in sketches.T.tolist()]


def jaccard_estimate(
    sketch_a: Sequence[int], sketch_b: Sequence[int]
) -> float:
    """Fraction of agreeing coordinates — estimates Jaccard similarity."""
    if len(sketch_a) != len(sketch_b):
        raise ValueError("sketches must have the same length")
    if not sketch_a:
        return 0.0
    agree = sum(1 for x, y in zip(sketch_a, sketch_b) if x == y)
    return agree / len(sketch_a)
