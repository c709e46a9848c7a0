"""The batch workloads: ``conll-batch`` and ``pool40-prerank``.

A run sets the pipeline up several times (``setup_s`` is the median),
then repeats a fixed *round* of documents on two thread workers until
``--seconds`` have passed, a minimum number of rounds has run and enough
per-document latencies exist for a p99 with ten samples beyond it.
After each round a serial pass over the first documents gives the
unloaded latencies of ``p50_ms.low``.  Every pass starts with cold
relatedness state (a fresh pipeline on ``conll-batch``, whose shared
cache is the layer under test; a cleared measure on ``pool40-prerank``,
where re-training embeddings per round would dominate), so every round
does the same work and must return the same answers.

With ``--trace 1`` the untraced rounds still run first (their answers
and docs/s are the reference), then one traced round yields the
per-layer figures.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import time
from typing import Callable, List, Optional, Tuple

from repro.core.batch import BatchConfig, BatchRunner
from repro.core.pipeline import AidaDisambiguator
from repro.relatedness.caching import CachingRelatedness

from ledger import workloads
from ledger.workloads import Switches
from ledger.golden import records
from ledger.layers import ROOT, Instrumented, SpanRecorder, attribution
from ledger.quantiles import MIN_TAIL, quantile, samples_for_tail
from ledger.result import (
    RunResult,
    accuracy,
    peak_rss_mib,
    put_fail_frac,
    put_latency,
)

#: A run stops starting new rounds after this long, whatever it lacks,
#: so that even a slow host ends a run well inside three minutes.
ROUND_BUDGET_S = 90.0


def _nothing() -> None:
    pass


class CpuRotation:
    """Run each single-threaded step on the next CPU in turn.

    The CPUs of a shared host can run at different speeds at the same
    moment, and the scheduler keeps a busy single thread on one CPU for a
    long time.  Rotating serial steps (each set-up, each document of a
    serial pass) over every allowed CPU makes a run average all of them
    instead of measuring whichever it landed on, as a threaded pass does
    by itself.
    """

    def __init__(self) -> None:
        self.cpus = (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else []
        )
        self._turn = 0

    def serial(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self._turn % len(self.cpus)]})
            self._turn += 1

    def release(self) -> None:
        """Allow every CPU again (before starting worker threads)."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)


@dataclasses.dataclass
class Setup:
    pipeline: object
    seconds: float
    embeddings_s: float = 0.0


@dataclasses.dataclass
class Round:
    wall_s: float
    latencies_ms: List[float]
    #: sha256 of every answer, to compare rounds without keeping them.
    digest: str
    micro: float
    macro: float
    full_rung: int
    failed: int
    #: The results themselves, kept only for a traced round.
    results: Optional[list] = None


def _timed_documents(
    pipeline, sink: List[float], before: Callable[[], None]
) -> Callable:
    """Wrap ``disambiguate`` to append each call's wall time in ms,
    calling *before* ahead of each (untimed)."""
    inner = pipeline.disambiguate
    clock = time.perf_counter

    def disambiguate(document, *args, **kwargs):
        before()
        start = clock()
        try:
            return inner(document, *args, **kwargs)
        finally:
            sink.append((clock() - start) * 1000.0)

    return disambiguate


def run_round(
    pipeline, documents, workers: int,
    recorder: Optional[SpanRecorder] = None,
    cpus: Optional[CpuRotation] = None,
) -> Round:
    """One pass over *documents*; per-document times unless traced.

    A serial pass given *cpus* moves to the next CPU before each
    document; a threaded pass runs on every CPU.
    """
    latencies: List[float] = []
    if cpus is not None:
        cpus.release()
    if recorder is None:
        step = cpus.serial if cpus is not None and workers == 1 else _nothing
        pipeline.disambiguate = _timed_documents(pipeline, latencies, step)
    runner = BatchRunner(
        pipeline=pipeline,
        config=BatchConfig(
            workers=workers, executor="thread" if workers > 1 else "serial"
        ),
    )
    plain = [annotated.document for annotated in documents]
    try:
        start = time.perf_counter()
        if recorder is None:
            outcome = runner.run(plain)
        else:
            with recorder.span(ROOT, root=True):
                outcome = runner.run(plain)
        wall = time.perf_counter() - start
    finally:
        if recorder is None:
            del pipeline.disambiguate
        if cpus is not None:
            cpus.release()
    results = outcome.results
    answers = [records(r) if r is not None else None for r in results]
    micro, macro = accuracy(
        documents, [r.as_map() if r is not None else None for r in results]
    )
    return Round(
        wall_s=wall,
        latencies_ms=latencies,
        digest=hashlib.sha256(
            json.dumps(answers, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        micro=micro,
        macro=macro,
        full_rung=sum(
            1 for r in results
            if r is not None and r.degradation_rung == "full"
        ),
        failed=len(outcome.failures),
        results=results if recorder is not None else None,
    )


def _measure(
    result: RunResult,
    build: Callable[[], Setup],
    documents,
    seconds: float,
    renew: Callable[[Setup], Setup],
) -> Tuple[List[Setup], List[Round], List[float]]:
    """Set-ups, then rounds until time, round count and tail samples are
    all met; after each round a serial pass over the first documents
    gives the unloaded latencies.

    *renew* readies a used set-up for the next pass.  The collector runs
    before every timed step, so each starts from the same heap state.
    """
    cpus = CpuRotation()
    workers = workloads.BATCH_WORKERS
    min_rounds = workloads.MIN_ROUNDS[result.workload]
    head = documents[: workloads.LOW_DOCS[result.workload]]
    setups = []
    for _ in range(workloads.SETUP_REPEATS[result.workload]):
        gc.collect()
        cpus.serial()
        setups.append(build())
    cpus.release()
    need = samples_for_tail(0.99, MIN_TAIL)
    rounds: List[Round] = []
    low: List[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        samples = sum(len(r.latencies_ms) for r in rounds)
        if rounds and (
            elapsed >= ROUND_BUDGET_S
            or (
                elapsed >= seconds
                and samples >= need
                and len(rounds) >= min_rounds
            )
        ):
            break
        setup = setups[-1]
        if rounds:
            gc.collect()
            cpus.serial()
            setup = renew(setup)
            cpus.release()
            if setup is not setups[-1]:
                setups.append(setup)
        gc.collect()
        rounds.append(
            run_round(setup.pipeline, documents, workers, cpus=cpus)
        )
        gc.collect()
        unloaded = renew(setup).pipeline
        low.extend(run_round(unloaded, head, 1, cpus=cpus).latencies_ms)
    return setups, rounds, low


def _end_to_end(
    result: RunResult,
    documents,
    setups: List[Setup],
    rounds: List[Round],
    low_latencies: List[float],
) -> None:
    n_docs = len(documents)
    result.attempted = n_docs * len(rounds)
    result.failed = sum(r.failed for r in rounds)
    for index, round_ in enumerate(rounds[1:], start=2):
        if round_.digest != rounds[0].digest:
            result.problems.append(
                f"round {index} answered differently from round 1"
            )
    latencies = [ms for r in rounds for ms in r.latencies_ms]
    answered = sum(n_docs - r.failed for r in rounds)
    result.put(
        "setup_s", quantile([s.seconds for s in setups], 0.5), "s",
        len(setups),
    )
    result.put(
        "docs_per_s",
        result.attempted / sum(r.wall_s for r in rounds),
        "docs/s",
        len(rounds),
    )
    put_latency(result, latencies)
    result.put(
        "p50_ms.low", quantile(low_latencies, 0.5), "ms", len(low_latencies)
    )
    result.put("micro_acc", rounds[0].micro, "fraction", n_docs)
    result.put("macro_acc", rounds[0].macro, "fraction", n_docs)
    put_fail_frac(result)
    result.put(
        "full_rung_frac",
        sum(r.full_rung for r in rounds) / answered if answered else 0.0,
        "fraction",
        answered,
    )
    result.put("rss_mib", peak_rss_mib(), "MiB")
    result.notes["rounds"] = len(rounds)


def _relatedness_chain(measure) -> list:
    chain = []
    while measure is not None and measure not in chain:
        chain.append(measure)
        measure = getattr(measure, "inner", None)
    return chain


def _per_layer(
    result: RunResult,
    recorder: SpanRecorder,
    traced: Round,
    pipeline,
    setups: List[Setup],
    workers: int,
    untraced_docs_per_s: float,
) -> None:
    """The traced round's per-layer figures (``*.ms`` are per document)."""
    split = attribution(recorder, workers)
    docs = max(1, split["documents"])
    counts = recorder.counts
    per_doc = {name: ms / docs for name, ms in split["layer_ms"].items()}
    stats = [
        r.stats.counters
        for r in traced.results
        if r is not None and r.stats is not None
    ]

    def mean_counter(key: str) -> float:
        values = [float(c[key]) for c in stats if key in c]
        return sum(values) / len(values) if values else 0.0

    cache_hit = 0.0
    lsh_survived = 0.0
    for measure in _relatedness_chain(pipeline.relatedness):
        if callable(getattr(measure, "cache_stats", None)):
            cache_hit = measure.cache_stats().hit_rate
        if hasattr(measure, "survived_pairs"):
            total = measure.survived_pairs + measure.pruned_pairs
            lsh_survived = measure.survived_pairs / total if total else 0.0
    pool_in = counts.get("embeddings.pool_in", 0)
    put = result.put_layer
    put("kb.candidates.calls", split["calls"]["kb.candidates"], "count")
    put("kb.candidates.ms", per_doc["kb.candidates"], "ms")
    put(
        "setup.embeddings_s",
        quantile([s.embeddings_s for s in setups], 0.5),
        "s",
    )
    put("embeddings.prune.ms", per_doc["embeddings.prune"], "ms")
    put(
        "embeddings.pruned_frac",
        counts.get("embeddings.pruned", 0) / pool_in if pool_in else 0.0,
        "fraction",
    )
    put(
        "setup.pipeline_s",
        quantile([s.seconds - s.embeddings_s for s in setups], 0.5),
        "s",
    )
    put(
        "similarity.simscores.calls",
        split["calls"]["similarity.simscores"], "count",
    )
    put("similarity.simscores.ms", per_doc["similarity.simscores"], "ms")
    put(
        "similarity.candidates",
        counts.get("similarity.candidates", 0),
        "count",
    )
    put("relatedness.pairs", counts.get("relatedness.pairs", 0), "count")
    put("relatedness.ms", per_doc["relatedness.pairs"], "ms")
    put("relatedness.prepare.ms", per_doc["relatedness.prepare"], "ms")
    put("relatedness.cache_hit_frac", cache_hit, "fraction")
    put("relatedness.lsh_survived_frac", lsh_survived, "fraction")
    put("graph.solve.calls", split["calls"]["graph.solve"], "count")
    put("graph.solve.ms", per_doc["graph.solve"], "ms")
    put("graph.entities", mean_counter("graph_entities"), "count")
    put("graph.solver_iterations", mean_counter("solver_iterations"), "count")
    put("core.pipeline.self_ms", split["core_self_ms"] / docs, "ms")
    put("core.batch.idle_frac", split["idle_frac"], "fraction")
    put("core.unattributed_frac", split["unattributed_frac"], "fraction")
    answered = [r for r in traced.results if r is not None]
    count = max(1, len(answered))
    attempts = sum(r.attempts for r in answered)
    put("faults.attempts_per_doc", attempts / count, "count")
    degraded = len(answered) - traced.full_rung
    put("faults.degraded_frac", degraded / count, "fraction")
    traced_docs_per_s = len(traced.results) / traced.wall_s
    put(
        "trace.overhead_frac",
        1.0 - traced_docs_per_s / untraced_docs_per_s,
        "fraction",
    )
    result.notes["attribution"] = {
        key: split[key]
        for key in ("measured_ms", "attributed_ms", "gap_frac", "documents")
    }
    if split["gap_frac"] > 0.01:
        result.problems.append(
            "layer self times plus core.pipeline self time miss the "
            f"measured document time by {100 * split['gap_frac']:.2f}%"
        )


def _traced(
    result: RunResult,
    documents,
    workers: int,
    setups: List[Setup],
    rounds: List[Round],
    renew: Callable[[Setup], Setup],
) -> None:
    setup = renew(setups[-1])
    recorder = SpanRecorder()
    with Instrumented(recorder, setup.pipeline):
        traced = run_round(setup.pipeline, documents, workers, recorder)
    if traced.digest != rounds[0].digest:
        result.problems.append("traced answers differ from untraced answers")
    _per_layer(
        result, recorder, traced, setup.pipeline, setups, workers,
        result.metrics["docs_per_s"].value,
    )


def run_conll(
    seed: int, seconds: float, trace: bool, switches: Switches = Switches()
) -> RunResult:
    result = RunResult("conll-batch")
    kb, documents = workloads.conll_inputs(seed)
    config = switches.apply(workloads.conll_config())

    def build() -> Setup:
        start = time.perf_counter()
        relatedness = AidaDisambiguator.build_relatedness(kb, config)
        if switches.cache:
            relatedness = CachingRelatedness(relatedness)
        pipeline = AidaDisambiguator(
            kb, relatedness=relatedness, config=config
        )
        return Setup(pipeline, time.perf_counter() - start)

    def renew(_used: Setup) -> Setup:
        return build()

    return _run(result, build, documents, seconds, renew, trace)


def run_pool40(
    seed: int, seconds: float, trace: bool, switches: Switches = Switches()
) -> RunResult:
    from repro.embeddings import EmbeddingConfig, train_embeddings

    result = RunResult("pool40-prerank")
    kb = workloads.pool_kb()
    documents = workloads.pool_documents(kb, seed, workloads.POOL_ROUND_DOCS)
    config = switches.apply(workloads.pool_config())

    def build() -> Setup:
        start = time.perf_counter()
        model = None
        if config.prerank_topk is not None:
            model = train_embeddings(kb, EmbeddingConfig())
        trained = time.perf_counter()
        pipeline = AidaDisambiguator(kb, config=config, embedding_model=model)
        return Setup(pipeline, time.perf_counter() - start, trained - start)

    def renew(used: Setup) -> Setup:
        used.pipeline.relatedness.reset_stats()
        return used

    return _run(result, build, documents, seconds, renew, trace)


def _run(result, build, documents, seconds, renew, trace) -> RunResult:
    setups, rounds, low = _measure(result, build, documents, seconds, renew)
    _end_to_end(result, documents, setups, rounds, low)
    if trace:
        _traced(
            result, documents, workloads.BATCH_WORKERS, setups, rounds, renew
        )
    return result
