"""KORE_LSH recall/speed frontier on the golden corpus.

Runs the full AIDA pipeline over the frozen golden corpus
(``tests/fixtures/golden/corpus.jsonl``, same world/KB seeds as the
regression fixture) under three coherence backends — exact KORE,
KORE_LSH-G (recall-geared) and KORE_LSH-F (speed-geared) — and reports
the frontier: pairwise comparisons computed, disambiguation accuracy,
and wall time.  Comparisons are counted per document (the pipeline's
memo is cleared between documents), the quantity Table 4.4 reports.

Also runs the single-count differential: one document's coherence pass
counts every surviving pair exactly once on the LSH wrapper, and the
inner exact measure's counter stays at zero.

Runs two ways:

* under pytest with the rest of the benchmark suite (a smoke that
  checks the frontier shape, not wall-clock);
* as a script writing ``BENCH_lsh.json``::

      PYTHONPATH=src:. python benchmarks/bench_lsh.py \
          --out BENCH_lsh.json --check

  ``--check`` exits non-zero unless KORE_LSH-G computes at most 1/3 of
  exact KORE's comparisons, both LSH backends keep micro accuracy
  within one point of the exact path, and the single-count differential
  holds (the CI ``lsh-smoke`` gate).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

from benchmarks.common import render_table
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.datagen.io import load_corpus
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.eval.runner import run_disambiguator
from repro.relatedness.caching import CachingRelatedness

#: Same seeds as tests/fixtures/golden/generate.py and tests/conftest.py.
WORLD_SEED = 7
CLUSTERS_PER_DOMAIN = 4
KB_SEED = 101

GOLDEN_CORPUS = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    "tests",
    "fixtures",
    "golden",
    "corpus.jsonl",
)

BACKENDS = ("kore", "kore_lsh_g", "kore_lsh_f")

#: The acceptance gates of the lsh-smoke CI job.
CHECK_COMPARISON_RATIO = 1.0 / 3.0
CHECK_ACCURACY_POINTS = 0.01

_cache: Dict[str, object] = {}


def golden_kb():
    if "kb" not in _cache:
        world = World.generate(
            WorldConfig(
                seed=WORLD_SEED, clusters_per_domain=CLUSTERS_PER_DOMAIN
            )
        )
        _cache["world"] = world
        _cache["kb"], _ = build_world_kb(world, seed=KB_SEED)
    return _cache["kb"]


def golden_documents():
    if "docs" not in _cache:
        _cache["docs"] = load_corpus(GOLDEN_CORPUS)
    return _cache["docs"]


class _PerDocumentComparisons:
    """Pipeline shim clearing the pipeline's memo per document.

    Without the reset, every backend would amortize pairs repeated
    across documents through the memo — the per-document reset makes
    the comparison counts per-document, the way Table 4.4 counts them.
    """

    def __init__(self, pipeline: AidaDisambiguator):
        self.pipeline = pipeline
        self.comparisons = 0

    def _flush(self) -> None:
        measure = self.pipeline.relatedness
        self.comparisons += measure.comparisons
        measure.reset_stats()

    def disambiguate(self, document, **kwargs):
        self._flush()
        return self.pipeline.disambiguate(document, **kwargs)

    def total_comparisons(self) -> int:
        self._flush()
        return self.comparisons


def run_frontier(doc_limit: Optional[int] = None) -> List[Dict[str, object]]:
    """One frontier row per backend: comparisons, accuracy, wall time."""
    kb = golden_kb()
    documents = golden_documents()
    if doc_limit:
        documents = documents[:doc_limit]
    rows: List[Dict[str, object]] = []
    exact_comparisons = 0
    exact_micro = 0.0
    for backend in BACKENDS:
        config = AidaConfig.full()
        config.relatedness_backend = backend
        pipeline = AidaDisambiguator(kb, config=config)
        shim = _PerDocumentComparisons(pipeline)
        start = time.perf_counter()
        run = run_disambiguator(shim, documents, kb=kb)
        elapsed = time.perf_counter() - start
        comparisons = shim.total_comparisons()
        measure = pipeline.relatedness.inner
        if backend == "kore":
            exact_comparisons = comparisons
            exact_micro = run.micro
        row: Dict[str, object] = {
            "backend": backend,
            "measure": measure.name,
            "documents": len(documents),
            "comparisons": comparisons,
            "comparison_ratio_vs_exact": (
                comparisons / exact_comparisons if exact_comparisons else 1.0
            ),
            "micro_accuracy": run.micro,
            "macro_accuracy": run.macro,
            "accuracy_delta_vs_exact": run.micro - exact_micro,
            "seconds": elapsed,
            "docs_per_second": (
                len(documents) / elapsed if elapsed > 0 else 0.0
            ),
        }
        if hasattr(measure, "pruned_pairs"):
            row["pruned_pairs"] = measure.pruned_pairs
            row["survived_pairs"] = measure.survived_pairs
            row["prepared_tasks"] = measure.prepared_tasks
        rows.append(row)
    return rows


def run_chaos_differential() -> Dict[str, object]:
    """Single-count differential: one count per surviving pair."""
    kb = golden_kb()
    documents = golden_documents()
    config = AidaConfig.full()
    config.relatedness_backend = "kore_lsh_g"
    measure = AidaDisambiguator.build_relatedness(kb, config)
    entities = sorted(
        {
            entity
            for mention in documents[0].document.mentions
            for entity in kb.candidates(mention.surface)
        }
    )
    _edges, survivors = CachingRelatedness(measure).coherence_edges(
        entities
    )
    surviving = len(survivors)
    return {
        "candidate_entities": len(entities),
        "surviving_pairs": surviving,
        "wrapper_comparisons": measure.comparisons,
        "inner_comparisons": measure.inner.comparisons,
        "single_count": (
            surviving > 0
            and measure.comparisons == surviving
            and measure.inner.comparisons == 0
        ),
    }


def _render_frontier(rows) -> str:
    headers = [
        "backend",
        "comparisons",
        "vs exact",
        "micro",
        "macro",
        "seconds",
        "docs/s",
    ]
    table = [
        [
            str(r["measure"]),
            str(r["comparisons"]),
            f"{100 * r['comparison_ratio_vs_exact']:.1f}%",
            f"{100 * r['micro_accuracy']:.2f}%",
            f"{100 * r['macro_accuracy']:.2f}%",
            f"{r['seconds']:.3f}",
            f"{r['docs_per_second']:.2f}",
        ]
        for r in rows
    ]
    return render_table(
        headers, table, title="KORE_LSH frontier (golden corpus)"
    )


def check_gates(rows, chaos) -> List[str]:
    """The lsh-smoke gate; returns a list of failure messages."""
    failures: List[str] = []
    by_backend = {row["backend"]: row for row in rows}
    exact = by_backend["kore"]
    g = by_backend["kore_lsh_g"]
    if g["comparisons"] > exact["comparisons"] * CHECK_COMPARISON_RATIO:
        failures.append(
            f"KORE_LSH-G computed {g['comparisons']} comparisons, more "
            f"than 1/3 of exact KORE's {exact['comparisons']}"
        )
    for backend in ("kore_lsh_g", "kore_lsh_f"):
        delta = abs(
            by_backend[backend]["micro_accuracy"]
            - exact["micro_accuracy"]
        )
        if delta > CHECK_ACCURACY_POINTS + 1e-12:
            failures.append(
                f"{backend} micro accuracy drifted {100 * delta:.2f} "
                f"points from the exact path (> "
                f"{100 * CHECK_ACCURACY_POINTS:.0f})"
            )
    if (
        by_backend["kore_lsh_f"]["comparisons"] > g["comparisons"]
    ):
        failures.append(
            "KORE_LSH-F computed more comparisons than KORE_LSH-G "
            "(the speed-geared setting must prune at least as hard)"
        )
    if not chaos["single_count"]:
        failures.append(
            "chaos differential: surviving pairs did not map 1:1 to "
            f"comparison counts ({chaos})"
        )
    return failures


def test_lsh_smoke(benchmark):
    """Pytest smoke: the frontier shape and the single-count differential
    hold.

    Wall-clock is not gated here; the scripted ``--check`` run gates the
    comparison-count and accuracy criteria on the full golden corpus.
    """
    from benchmarks.conftest import report

    def run():
        return run_frontier(), run_chaos_differential()

    rows, chaos = benchmark.pedantic(run, rounds=1, iterations=1)
    report("KORE_LSH frontier - golden corpus", _render_frontier(rows))
    assert not check_gates(rows, chaos)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--doc-limit", type=int, default=0,
        help="cap the corpus at N documents (0 = full golden corpus)",
    )
    parser.add_argument(
        "--out", default="BENCH_lsh.json", help="JSON output path"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless KORE_LSH-G computes <= 1/3 of exact "
        "KORE's comparisons with micro accuracy within 1 point, F prunes "
        "at least as hard as G, and the single-count differential "
        "confirms one count per surviving pair",
    )
    args = parser.parse_args(argv)

    rows = run_frontier(args.doc_limit or None)
    print(_render_frontier(rows))
    chaos = run_chaos_differential()
    print(
        "\nchaos differential: "
        f"{chaos['surviving_pairs']} surviving pairs, "
        f"{chaos['wrapper_comparisons']} wrapper / "
        f"{chaos['inner_comparisons']} inner comparisons -> "
        f"{'OK' if chaos['single_count'] else 'MISMATCH'}"
    )

    record = {
        "benchmark": "kore_lsh_frontier",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "world_seed": WORLD_SEED,
        "clusters_per_domain": CLUSTERS_PER_DOMAIN,
        "kb_seed": KB_SEED,
        "check_comparison_ratio": CHECK_COMPARISON_RATIO,
        "check_accuracy_points": CHECK_ACCURACY_POINTS,
        "frontier": rows,
        "chaos_differential": chaos,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")

    if args.check:
        failures = check_gates(rows, chaos)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
