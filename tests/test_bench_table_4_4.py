"""Figure 4.5's document order does not depend on measured time."""

from benchmarks.bench_table_4_4 import by_candidate_count


def test_equal_candidate_counts_keep_input_order():
    rows = [
        (12, 0.009, 40),
        (7, 0.002, 5),
        (12, 0.001, 31),
        (7, 0.008, 9),
        (12, 0.005, 35),
    ]
    assert by_candidate_count(rows) == [
        (7, 0.002, 5),
        (7, 0.008, 9),
        (12, 0.009, 40),
        (12, 0.001, 31),
        (12, 0.005, 35),
    ]


def test_elapsed_time_never_breaks_a_tie():
    slow_first = [(10, 0.5, 1), (10, 0.1, 2)]
    fast_first = [(10, 0.1, 1), (10, 0.5, 2)]
    # The comparison column keeps corpus order whatever the timings.
    assert [row[2] for row in by_candidate_count(slow_first)] == [1, 2]
    assert [row[2] for row in by_candidate_count(fast_first)] == [1, 2]
