"""The ledger's one quantile rule: nearest rank.

The q-quantile of n samples is the sample at sorted position
``ceil(q * n) - 1`` (0-based), the rule ``repro.obs.metrics.Histogram``
uses.  The epsilon keeps a float product such as ``0.99 * 100 =
99.00000000000001`` from ceiling one rank too far.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A latency percentile is only reported with at least this many
#: samples ranked beyond it.
MIN_TAIL = 10


def rank(q: float, n: int) -> int:
    """The 1-based nearest rank of the q-quantile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def quantile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank q-quantile of *samples*."""
    ordered = sorted(samples)
    return ordered[rank(q, len(ordered)) - 1]


def tail_count(n: int, q: float) -> int:
    """How many of n samples rank beyond the q-quantile."""
    return n - rank(q, n)


def samples_for_tail(q: float, tail: int = MIN_TAIL) -> int:
    """The fewest samples that leave *tail* samples beyond the q-quantile."""
    n = tail + 1
    while tail_count(n, q) < tail:
        n += 1
    return n
