"""Every metric the ledger prints, in order, with its unit.

``BENCHMARK.json`` lists the same names.  A workload that does not run a
layer reports that layer's per-layer figures as 0.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("docs_per_s", "docs/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("p50_ms.low", "ms"),
    ("micro_acc", "fraction"),
    ("macro_acc", "fraction"),
    ("ok_frac", "fraction"),
    ("full_rung_frac", "fraction"),
    ("rss_mib", "MiB"),
)

#: The pipeline stages the server's ``pipeline.stage.*`` histograms time.
SERVING_STAGES = (
    "candidate_retrieval",
    "feature_computation",
    "coherence_test",
    "graph_build",
    "solve",
    "post_process",
)

PER_LAYER = (
    ("kb.candidates.calls", "count"),
    ("kb.candidates.ms", "ms"),
    ("setup.snapshot_build_s", "s"),
    ("setup.server_ready_s", "s"),
    ("setup.embeddings_s", "s"),
    ("embeddings.prune.ms", "ms"),
    ("embeddings.pruned_frac", "fraction"),
    ("setup.pipeline_s", "s"),
    ("similarity.simscores.calls", "count"),
    ("similarity.simscores.ms", "ms"),
    ("similarity.candidates", "count"),
    ("relatedness.pairs", "count"),
    ("relatedness.ms", "ms"),
    ("relatedness.prepare.ms", "ms"),
    ("relatedness.cache_hit_frac", "fraction"),
    ("relatedness.lsh_survived_frac", "fraction"),
    ("graph.solve.calls", "count"),
    ("graph.solve.ms", "ms"),
    ("graph.entities", "count"),
    ("graph.solver_iterations", "count"),
    ("core.pipeline.self_ms", "ms"),
    ("core.batch.idle_frac", "fraction"),
    ("core.unattributed_frac", "fraction"),
    ("faults.attempts_per_doc", "count"),
    ("faults.degraded_frac", "fraction"),
    ("serving.server_ms.p50", "ms"),
    ("serving.wire_ms.p50", "ms"),
    ("serving.batch_docs.mean", "count"),
    ("serving.shed_frac", "fraction"),
    ("serving.rejected", "count"),
) + tuple(
    (f"serving.stage.{stage}.ms", "ms") for stage in SERVING_STAGES
) + (
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.in_flight_max", "count"),
    ("trace.overhead_frac", "fraction"),
)
