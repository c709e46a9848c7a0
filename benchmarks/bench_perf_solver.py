"""Performance of the incremental dense-subgraph solver.

Times Algorithm 1's Phase-2 main loop — the O(E log V) lazy-deletion heap
implementation against the original O(V²·M log V) full-rescan reference
loop (``DenseSubgraphConfig(exact_reference=True)``) — on seeded synthetic
candidate graphs of growing size, and verifies that both paths produce
identical assignments on every case.

Runs two ways:

* under pytest with the rest of the benchmark suite
  (``PYTHONPATH=src:. python -m pytest benchmarks/bench_perf_solver.py``);
* as a script writing a JSON record to seed the perf trajectory::

      PYTHONPATH=src:. python benchmarks/bench_perf_solver.py \
          --sizes 10x5,20x10,50x20 --out BENCH_solver.json --check

  ``--check`` exits non-zero if the incremental solver is not faster than
  the reference loop on the largest case (used by the CI perf smoke job).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Tuple

from repro.graph.dense_subgraph import (
    DenseSubgraphConfig,
    GreedyDenseSubgraph,
    SolverStats,
)
from repro.graph.synthetic import SyntheticGraphSpec, synthetic_graph

#: (mentions, candidates per mention) grid; the 50×20 point is the
#: acceptance case (≥ 5× speedup required).
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = (
    (10, 5),
    (20, 10),
    (30, 15),
    (50, 20),
)
EE_NEIGHBORS = 6
SEED = 11


def _spec(mentions: int, candidates: int) -> SyntheticGraphSpec:
    return SyntheticGraphSpec(
        mentions=mentions,
        candidates_per_mention=candidates,
        ee_neighbors=EE_NEIGHBORS,
        shared_fraction=0.1,
        seed=SEED,
    )


def _config(candidates: int, exact_reference: bool) -> DenseSubgraphConfig:
    # A prune factor equal to the candidate count keeps pre-processing
    # from shrinking the problem, so the timing isolates the main loop.
    return DenseSubgraphConfig(
        prune_factor=candidates,
        exact_reference=exact_reference,
    )


def _time_solve(
    mentions: int, candidates: int, exact_reference: bool, repeats: int
) -> Tuple[float, Dict[int, str], Dict[str, object]]:
    # Best-of-N: the min is the least noise-contaminated estimate.
    best = float("inf")
    assignment: Dict[int, str] = {}
    stats: Dict[str, object] = {}
    for _round in range(repeats):
        graph = synthetic_graph(_spec(mentions, candidates))
        solver = GreedyDenseSubgraph(_config(candidates, exact_reference))
        solver_stats = SolverStats()
        start = time.perf_counter()
        assignment = solver.solve(graph, solver_stats)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            stats = solver_stats.as_dict()
    return best, assignment, stats


def run_case(
    mentions: int, candidates: int, repeats: int = 3
) -> Dict[str, object]:
    """Time both solver paths on one graph size; assert identical output."""
    fast_seconds, fast_assignment, fast_stats = _time_solve(
        mentions, candidates, exact_reference=False, repeats=repeats
    )
    reference_seconds, reference_assignment, _ref_stats = _time_solve(
        mentions, candidates, exact_reference=True, repeats=repeats
    )
    return {
        "mentions": mentions,
        "candidates_per_mention": candidates,
        "entities": fast_stats["initial_entities"],
        "iterations": fast_stats["iterations"],
        "heap_pops": fast_stats["heap_pops"],
        "fast_seconds": fast_seconds,
        "reference_seconds": reference_seconds,
        "speedup": (
            reference_seconds / fast_seconds if fast_seconds > 0 else 0.0
        ),
        "identical": fast_assignment == reference_assignment,
    }


def run_grid(
    sizes: Tuple[Tuple[int, int], ...] = DEFAULT_SIZES,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    return [
        run_case(mentions, candidates, repeats=repeats)
        for mentions, candidates in sizes
    ]


def _render(cases: List[Dict[str, object]]) -> Tuple[List[str], List[List[str]]]:
    headers = [
        "graph",
        "entities",
        "reference (s)",
        "incremental (s)",
        "speedup",
        "identical",
    ]
    rows = [
        [
            f"{case['mentions']}x{case['candidates_per_mention']}",
            str(case["entities"]),
            f"{case['reference_seconds']:.4f}",
            f"{case['fast_seconds']:.4f}",
            f"{case['speedup']:.1f}x",
            "yes" if case["identical"] else "NO",
        ]
        for case in cases
    ]
    return headers, rows


def test_perf_solver(benchmark):
    from benchmarks.common import render_table
    from benchmarks.conftest import report

    cases = benchmark.pedantic(
        lambda: run_grid(((10, 5), (20, 10), (30, 15))),
        rounds=1,
        iterations=1,
    )
    headers, rows = _render(cases)
    report(
        "Solver perf - incremental heap vs reference scan",
        render_table(headers, rows),
    )
    assert all(case["identical"] for case in cases)
    largest = cases[-1]
    assert largest["fast_seconds"] <= largest["reference_seconds"]


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default=",".join(f"{m}x{c}" for m, c in DEFAULT_SIZES),
        help="comma-separated MxC grid, e.g. 10x5,50x20",
    )
    parser.add_argument(
        "--out", default="BENCH_solver.json", help="JSON output path"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the incremental solver beats the "
        "reference loop on the largest case (and outputs match)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing rounds per case (best-of-N)",
    )
    args = parser.parse_args(argv)
    sizes = tuple(
        (int(m), int(c))
        for m, c in (size.split("x") for size in args.sizes.split(","))
    )
    cases = run_grid(sizes, repeats=args.repeats)
    headers, rows = _render(cases)
    widths = [
        max(len(h), *(len(row[i]) for row in rows))
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    record = {
        "benchmark": "dense_subgraph_solver",
        "python": platform.python_version(),
        "seed": SEED,
        "ee_neighbors": EE_NEIGHBORS,
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.check:
        largest = cases[-1]
        if not all(case["identical"] for case in cases):
            print("FAIL: solver paths disagree", file=sys.stderr)
            return 1
        if largest["fast_seconds"] > largest["reference_seconds"]:
            print(
                "FAIL: incremental solver slower than reference on "
                f"{largest['mentions']}x{largest['candidates_per_mention']}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
