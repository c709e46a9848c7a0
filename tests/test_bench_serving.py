"""The serving load test's quantile is the package's nearest rank."""

import pytest

from benchmarks.bench_serving import quantile


@pytest.mark.parametrize(
    "samples, q, expected",
    [
        ([1.0, 2.0, 3.0], 0.5, 2.0),
        ([float(value) for value in range(1, 151)], 0.99, 149.0),
        ([float(value) for value in range(1, 11)], 0.95, 10.0),
        ([float(value) for value in range(1, 11)], 0.9, 9.0),
        ([3.0, 1.0, 2.0], 0.0, 1.0),
        ([], 0.99, 0.0),
    ],
)
def test_nearest_rank(samples, q, expected):
    assert quantile(samples, q) == expected
