"""Table 4.4 / Figures 4.4–4.5 — efficiency of relatedness computation.

Runs AIDA's coherence stage over the CoNLL collection with MW, exact KORE,
and the two LSH accelerations, measuring per-document running time and the
number of exact pairwise relatedness computations (mean, standard
deviation, 0.9-quantile) — the quantities Table 4.4 reports.  The
pipeline's memo is cleared before each document, so every measure counts
the computations one document needs on its own, as the paper does.

Expected shape (paper): KORE_LSH-G reduces comparisons well below the
exact measures and KORE_LSH-F by an order of magnitude; running time
follows the comparison counts.
"""

from __future__ import annotations

import time
from typing import Dict

from benchmarks.common import (
    bench_kb,
    conll_corpus,
    make_relatedness,
    render_table,
)
from benchmarks.conftest import report
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.utils.timing import TimingStats

MEASURES = ("MW", "KORE", "KORE_LSH-G", "KORE_LSH-F")


def _run():
    kb = bench_kb()
    docs = conll_corpus().testb
    results: Dict[str, Dict[str, float]] = {}
    series: Dict[str, list] = {}
    for name in MEASURES:
        measure = make_relatedness(name)
        pipeline = AidaDisambiguator(
            kb,
            relatedness=measure,
            config=AidaConfig.robust_prior_sim_coherence(),
        )
        times = TimingStats()
        comparisons = TimingStats()
        per_doc = []
        for annotated in docs:
            candidate_count = sum(
                len(kb.candidates(m.surface))
                for m in annotated.document.mentions
            )
            # Each document starts cold: a per-document quantity.
            pipeline.relatedness.reset_stats()
            before = measure.comparisons
            start = time.perf_counter()
            pipeline.disambiguate(annotated.document)
            elapsed = time.perf_counter() - start
            delta = measure.comparisons - before
            times.add(elapsed)
            comparisons.add(delta)
            per_doc.append((candidate_count, elapsed, delta))
        results[name] = {
            "cmp_mean": comparisons.mean,
            "cmp_std": comparisons.stddev,
            "cmp_q90": comparisons.quantile(0.9),
            "time_mean": times.mean,
            "time_std": times.stddev,
            "time_q90": times.quantile(0.9),
        }
        series[name] = by_candidate_count(per_doc)
    return results, series


def by_candidate_count(per_doc):
    """``(candidates, elapsed, comparisons)`` rows ordered by candidate
    count alone.  The sort is stable, so documents with equal counts keep
    corpus order: measured time never moves a document across a bucket
    boundary, and the comparison-count series is deterministic."""
    return sorted(per_doc, key=lambda row: row[0])


def _decile_series(per_doc, value_index: int, buckets: int = 5):
    """Average (candidate count, value) per documents-sorted bucket —
    the Figure 4.4/4.5 series with documents ordered by candidate count."""
    if not per_doc:
        return []
    points = []
    size = max(1, len(per_doc) // buckets)
    for start in range(0, len(per_doc), size):
        chunk = per_doc[start : start + size]
        avg_candidates = sum(c for c, *_ in chunk) / len(chunk)
        avg_value = sum(item[value_index] for item in chunk) / len(chunk)
        points.append((avg_candidates, avg_value))
    return points[:buckets]


def test_table_4_4(benchmark):
    results, series = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                f"{r['cmp_mean']:.1f}",
                f"{r['cmp_std']:.1f}",
                f"{r['cmp_q90']:.1f}",
                f"{1000 * r['time_mean']:.2f}",
                f"{1000 * r['time_std']:.2f}",
                f"{1000 * r['time_q90']:.2f}",
            ]
        )
    report(
        "Table 4.4 - relatedness efficiency (per document)",
        render_table(
            [
                "method",
                "cmp mean",
                "cmp stddev",
                "cmp q90",
                "ms mean",
                "ms stddev",
                "ms q90",
            ],
            rows,
        ),
    )
    # Figures 4.4 / 4.5: runtime and comparison counts over documents
    # ordered by candidate-entity count.
    for title, value_index, scale in (
        ("Figure 4.4 - running time vs candidate count", 1, 1000.0),
        ("Figure 4.5 - comparisons vs candidate count", 2, 1.0),
    ):
        fig_rows = []
        bucket_labels = None
        for name in MEASURES:
            points = _decile_series(series[name], value_index)
            if bucket_labels is None:
                bucket_labels = [f"~{c:.0f} cands" for c, _v in points]
            fig_rows.append(
                [name] + [f"{scale * v:.2f}" for _c, v in points]
            )
        report(
            title,
            render_table(["method"] + (bucket_labels or []), fig_rows),
        )
    # Shape: the LSH pre-clustering prunes comparisons; F prunes more
    # than G.
    assert results["KORE_LSH-G"]["cmp_mean"] <= results["KORE"]["cmp_mean"]
    assert (
        results["KORE_LSH-F"]["cmp_mean"]
        <= results["KORE_LSH-G"]["cmp_mean"]
    )
    # MW and exact KORE compute the same pair set.
    assert abs(
        results["MW"]["cmp_mean"] - results["KORE"]["cmp_mean"]
    ) < 1e-6
