"""Observability overhead: the disabled path must be near-free.

The pipeline is permanently instrumented (spans, metrics, structured
logging hooks) but defaults to the no-op tracer/registry singletons.
This benchmark quantifies what that costs and what enabling everything
costs, on the synthetic CoNLL-style benchmark corpus:

* ``disabled`` — the default null observability (what every production
  run that didn't opt in pays), repeated to expose run-to-run noise;
* ``enabled`` — a live :class:`~repro.obs.Tracer` plus
  :class:`~repro.obs.MetricsRegistry` collecting every span and metric;
* a **null-op micro-benchmark** — the per-call cost of the no-op span
  and the disabled-path guard checks, multiplied by the observed span
  volume per document, yields the *projected* disabled overhead as a
  fraction of per-document run-time.  This is the ≤2% gate: unlike a
  direct A/B against a de-instrumented build (which no longer exists),
  the projection is stable on noisy shared CI runners.

Both modes must produce bit-identical assignments, and the enabled run
must export a Chrome ``trace_event`` file that round-trips ``json.load``
with matched B/E pairs, monotonic ``ts``, and spans for all six pipeline
stages.  Runs two ways::

    PYTHONPATH=src:. python benchmarks/bench_obs_overhead.py \
        --out BENCH_obs.json --check

or under pytest with the rest of the benchmark suite (identity + trace
schema smoke, no wall-clock assertions).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.common import bench_kb, conll_corpus
from repro.core.pipeline import AidaDisambiguator
from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    Tracer,
    set_metrics,
    set_tracer,
)
from repro.types import DisambiguationResult, Document

#: The six pipeline stages every full-config document passes through.
PIPELINE_STAGES = (
    "candidate_retrieval",
    "feature_computation",
    "coherence_test",
    "graph_build",
    "solve",
    "post_process",
)

MAX_DISABLED_OVERHEAD_PCT = 2.0
MAX_SERVING_OVERHEAD_PCT = 2.0
DEFAULT_LIMIT = 40
DEFAULT_REPEATS = 3
DEFAULT_SERVING_DOCS = 12

_LOG = logging.getLogger("repro.pipeline")


def _documents(limit: Optional[int]) -> List[Document]:
    documents = [
        annotated.document
        for annotated in conll_corpus().all_documents()
    ]
    return documents[:limit] if limit else documents


def _signature(results: List[DisambiguationResult]):
    """Bit-exact comparison key: every mention, entity, and score."""
    return [
        [(a.mention, a.entity, a.score) for a in result.assignments]
        for result in results
    ]


def _run_corpus(documents: List[Document]) -> Tuple[List, float]:
    pipeline = AidaDisambiguator(bench_kb())
    start = time.perf_counter()
    results = [pipeline.disambiguate(d) for d in documents]
    return results, time.perf_counter() - start


def time_null_ops(iterations: int = 200_000) -> float:
    """Seconds per disabled-path observation point.

    One iteration deliberately over-counts a single instrumentation
    site: a no-op span enter/exit *plus* the registry-enabled guard
    *plus* a logger level check (real sites pay only one or two of
    these).
    """
    null_span = NULL_TRACER.span
    start = time.perf_counter()
    for _ in range(iterations):
        with null_span("x"):
            pass
        if NULL_METRICS.enabled:  # pragma: no cover - never true
            raise AssertionError
        _LOG.isEnabledFor(logging.DEBUG)
    return (time.perf_counter() - start) / iterations


def validate_chrome_trace(
    path: str, require_stages: Tuple[str, ...] = PIPELINE_STAGES
) -> Dict[str, object]:
    """``json.load`` the trace and verify the event stream invariants.

    Raises ``ValueError`` on malformed traces; returns summary facts.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    last_ts = float("-inf")
    stacks: Dict[int, List[str]] = {}
    begin_names = set()
    for event in events:
        if event["ph"] not in ("B", "E"):
            raise ValueError(f"unexpected phase {event['ph']!r}")
        if event["ts"] < last_ts:
            raise ValueError(
                f"ts went backwards: {event['ts']} after {last_ts}"
            )
        last_ts = event["ts"]
        stack = stacks.setdefault(event["tid"], [])
        if event["ph"] == "B":
            begin_names.add(event["name"])
            stack.append(event["name"])
        else:
            if not stack or stack[-1] != event["name"]:
                raise ValueError(
                    f"unmatched E event {event['name']!r} "
                    f"(stack: {stack})"
                )
            stack.pop()
    for tid, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed spans on tid {tid}: {stack}")
    missing = [s for s in require_stages if s not in begin_names]
    if missing:
        raise ValueError(f"stages missing from trace: {missing}")
    return {
        "events": len(events),
        "spans": len(events) // 2,
        "distinct_names": len(begin_names),
    }


def run_benchmark(
    documents: List[Document],
    repeats: int = DEFAULT_REPEATS,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """Measure both modes; return the record ``BENCH_obs.json`` stores."""
    # Disabled (default) runs — min over repeats suppresses noise.
    set_tracer(None)
    set_metrics(None)
    disabled_runs: List[float] = []
    reference = None
    for _ in range(max(1, repeats)):
        results, seconds = _run_corpus(documents)
        disabled_runs.append(seconds)
        if reference is None:
            reference = _signature(results)
    disabled_seconds = min(disabled_runs)

    # Enabled run: live tracer + registry.
    tracer = Tracer()
    registry = MetricsRegistry()
    set_tracer(tracer)
    set_metrics(registry)
    try:
        enabled_results, enabled_seconds = _run_corpus(documents)
        enabled_signature = _signature(enabled_results)
        span_records = tracer.records()
        snapshot = registry.snapshot()
        if trace_path is None:
            handle = tempfile.NamedTemporaryFile(
                suffix=".json", delete=False
            )
            handle.close()
            trace_path = handle.name
        tracer.export_chrome(trace_path)
        trace_facts = validate_chrome_trace(trace_path)
    finally:
        set_tracer(None)
        set_metrics(None)

    spans_per_doc = len(span_records) / max(1, len(documents))
    null_op_seconds = time_null_ops()
    seconds_per_doc = disabled_seconds / max(1, len(documents))
    projected_disabled_overhead_pct = (
        100.0 * spans_per_doc * null_op_seconds / seconds_per_doc
        if seconds_per_doc > 0
        else 0.0
    )
    return {
        "documents": len(documents),
        "disabled_seconds": disabled_seconds,
        "disabled_runs": disabled_runs,
        "disabled_noise_pct": (
            100.0 * (max(disabled_runs) - disabled_seconds)
            / disabled_seconds
            if disabled_seconds > 0
            else 0.0
        ),
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_pct": (
            100.0 * (enabled_seconds - disabled_seconds)
            / disabled_seconds
            if disabled_seconds > 0
            else 0.0
        ),
        "spans_per_document": spans_per_doc,
        "null_op_nanoseconds": null_op_seconds * 1e9,
        "projected_disabled_overhead_pct":
            projected_disabled_overhead_pct,
        "identical": enabled_signature == reference,
        "trace_path": trace_path,
        "trace": trace_facts,
        "metric_counters": snapshot["counters"],
    }


def time_enabled_span(iterations: int = 20_000) -> float:
    """Seconds per *enabled* span enter/exit on a live tracer."""
    tracer = Tracer(max_spans=iterations + 1)
    span = tracer.span
    start = time.perf_counter()
    for _ in range(iterations):
        with span("x"):
            pass
    return (time.perf_counter() - start) / iterations


def run_serving_benchmark(documents: List[Document]) -> Dict[str, object]:
    """Serving-path telemetry overhead: traced vs untraced submit loop.

    Runs the same documents through two loopback servers (no TCP — the
    submit path is identical), one with null observability and one with
    a live tracer + registry + trace sink.  The identity assertion is
    exact; the ≤2% gate is a *projection* (per-request span volume ×
    measured enabled-span cost over per-request serving time), which is
    stable on shared CI runners where a direct wall-clock A/B is not.
    """
    import asyncio

    from repro.faults.resilient import RobustnessConfig
    from repro.serving import DisambiguationServer, ServingConfig

    def serve(traced: bool, trace_path: Optional[str] = None):
        if traced:
            set_tracer(Tracer())
            set_metrics(MetricsRegistry())
        else:
            set_tracer(None)
            set_metrics(None)
        try:
            server = DisambiguationServer(
                AidaDisambiguator(bench_kb()),
                ServingConfig(
                    port=0,
                    slo_ms=600_000.0,
                    batch_max_docs=8,
                    workers=4,
                    trace_export=trace_path,
                ),
                robustness=RobustnessConfig(degrade=True),
            )

            async def main():
                await server.start(listen=False)
                try:
                    start = time.perf_counter()
                    responses = await server.process(
                        documents, concurrency=8
                    )
                    return responses, time.perf_counter() - start
                finally:
                    await server.stop()

            responses, seconds = asyncio.run(main())
            sink = server._trace_sink
            return responses, seconds, sink.stats() if sink else None
        finally:
            set_tracer(None)
            set_metrics(None)

    untraced, untraced_seconds, _ = serve(traced=False)
    handle = tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False)
    handle.close()
    try:
        traced, traced_seconds, sink_stats = serve(
            traced=True, trace_path=handle.name
        )
    finally:
        os.unlink(handle.name)

    identical = _signature(
        [response.result for response in untraced]
    ) == _signature([response.result for response in traced])
    requests = max(1, len(documents))
    spans_per_request = sink_stats["spans_written"] / requests
    span_seconds = time_enabled_span()
    request_seconds = untraced_seconds / requests
    projected_pct = (
        100.0 * spans_per_request * span_seconds / request_seconds
        if request_seconds > 0
        else 0.0
    )
    return {
        "requests": requests,
        "untraced_seconds": untraced_seconds,
        "traced_seconds": traced_seconds,
        "traced_overhead_pct": (
            100.0 * (traced_seconds - untraced_seconds)
            / untraced_seconds
            if untraced_seconds > 0
            else 0.0
        ),
        "spans_per_request": spans_per_request,
        "enabled_span_nanoseconds": span_seconds * 1e9,
        "projected_serving_overhead_pct": projected_pct,
        "identical": identical,
        "traces_written": sink_stats["traces_written"],
    }


def _render(record: Dict[str, object]) -> List[str]:
    return [
        f"documents:                {record['documents']}",
        f"disabled corpus seconds:  {record['disabled_seconds']:.3f} "
        f"(noise {record['disabled_noise_pct']:.1f}%)",
        f"enabled corpus seconds:   {record['enabled_seconds']:.3f} "
        f"({record['enabled_overhead_pct']:+.1f}%)",
        f"spans per document:       {record['spans_per_document']:.1f}",
        f"null-op cost:             "
        f"{record['null_op_nanoseconds']:.0f} ns",
        f"projected disabled ovh:   "
        f"{record['projected_disabled_overhead_pct']:.4f}% "
        f"(gate {MAX_DISABLED_OVERHEAD_PCT}%)",
        f"bit-identical:            "
        f"{'yes' if record['identical'] else 'NO'}",
        f"trace spans:              {record['trace']['spans']} "
        f"({record['trace']['distinct_names']} names)",
    ]


def _render_serving(record: Dict[str, object]) -> List[str]:
    return [
        f"serving requests:         {record['requests']}",
        f"untraced serving seconds: {record['untraced_seconds']:.3f}",
        f"traced serving seconds:   {record['traced_seconds']:.3f} "
        f"({record['traced_overhead_pct']:+.1f}%)",
        f"spans per request:        {record['spans_per_request']:.1f} "
        f"({record['traces_written']} traces spooled)",
        f"enabled span cost:        "
        f"{record['enabled_span_nanoseconds']:.0f} ns",
        f"projected serving ovh:    "
        f"{record['projected_serving_overhead_pct']:.4f}% "
        f"(gate {MAX_SERVING_OVERHEAD_PCT}%)",
        f"bit-identical:            "
        f"{'yes' if record['identical'] else 'NO'}",
    ]


def check(
    record: Dict[str, object],
    serving: Optional[Dict[str, object]] = None,
) -> List[str]:
    """The ``--check`` gate; returns a list of failure messages."""
    failures = []
    if not record["identical"]:
        failures.append(
            "traced and untraced runs produced different assignments"
        )
    if (
        record["projected_disabled_overhead_pct"]
        > MAX_DISABLED_OVERHEAD_PCT
    ):
        failures.append(
            "projected disabled-observability overhead "
            f"{record['projected_disabled_overhead_pct']:.3f}% exceeds "
            f"{MAX_DISABLED_OVERHEAD_PCT}%"
        )
    if serving is not None:
        if not serving["identical"]:
            failures.append(
                "traced and untraced serving runs produced different "
                "assignments"
            )
        if (
            serving["projected_serving_overhead_pct"]
            > MAX_SERVING_OVERHEAD_PCT
        ):
            failures.append(
                "projected serving-telemetry overhead "
                f"{serving['projected_serving_overhead_pct']:.3f}% "
                f"exceeds {MAX_SERVING_OVERHEAD_PCT}%"
            )
    return failures


def test_obs_overhead_smoke(benchmark):
    """Pytest smoke: identity + valid trace on a tiny corpus (no
    wall-clock assertions — those live in the scripted ``--check``)."""
    from benchmarks.common import render_table
    from benchmarks.conftest import report

    documents = _documents(limit=8)
    record = benchmark.pedantic(
        lambda: run_benchmark(documents, repeats=1),
        rounds=1,
        iterations=1,
    )
    report(
        "Observability overhead - disabled vs enabled",
        "\n".join(_render(record)),
    )
    os.unlink(record["trace_path"])
    assert record["identical"]
    assert record["trace"]["spans"] > 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--limit", type=int, default=DEFAULT_LIMIT,
        help="cap the corpus at N documents (0 = full corpus)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="disabled-mode repetitions (min is reported)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="where to write the enabled run's Chrome trace "
        "(default: a temp file)",
    )
    parser.add_argument(
        "--out", default="BENCH_obs.json", help="JSON output path"
    )
    parser.add_argument(
        "--serving-docs", type=int, default=DEFAULT_SERVING_DOCS,
        help="documents of the serving-telemetry section (0 skips it)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless traced ≡ untraced (pipeline and "
        "serving), the trace file is schema-valid with all six stages, "
        "and the projected disabled/serving overheads are "
        f"≤{MAX_DISABLED_OVERHEAD_PCT}%%",
    )
    args = parser.parse_args(argv)
    documents = _documents(args.limit or None)
    record = run_benchmark(
        documents, repeats=args.repeats, trace_path=args.trace_out
    )
    for line in _render(record):
        print(line)
    serving = None
    if args.serving_docs > 0:
        serving = run_serving_benchmark(documents[: args.serving_docs])
        print()
        for line in _render_serving(serving):
            print(line)
    payload = {
        "benchmark": "obs_overhead",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "0.5"),
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
        "max_serving_overhead_pct": MAX_SERVING_OVERHEAD_PCT,
        **{k: v for k, v in record.items() if k != "trace_path"},
    }
    if serving is not None:
        payload["serving"] = serving
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.trace_out is None:
        os.unlink(record["trace_path"])
    if args.check:
        failures = check(record, serving)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
