"""Command-line interface.

Four subcommands covering the zero-to-disambiguation path:

* ``generate-kb`` — generate the synthetic world + encyclopedia and save
  the knowledge base as a TSV directory;
* ``disambiguate`` — recognize and disambiguate entities in a text against
  a saved knowledge base;
* ``relatedness`` — score entity pairs with a chosen relatedness measure;
* ``classify`` — coarse named-entity classification of a text's mentions.

Plus corpus tooling:

* ``corpus`` — generate an evaluation corpus (CoNLL / KORE50 / WP style)
  aligned with a generated KB (same seed) as JSON Lines;
* ``evaluate`` — run a pipeline variant over a saved corpus against a
  saved KB and print micro/macro accuracy.

And the online service:

* ``serve`` — long-lived disambiguation server with admission control,
  micro-batching and SLO-driven load shedding; HTTP JSON on a TCP port
  by default, or a stdin→stdout JSONL pump with ``--stdin``.

Examples::

    python -m repro generate-kb --out /tmp/kb --seed 7
    python -m repro disambiguate --kb /tmp/kb --text "Page played Kashmir"
    python -m repro relatedness --kb /tmp/kb --measure kore A_Id B_Id
    python -m repro classify --kb /tmp/kb --text "Page played Kashmir"
    python -m repro corpus --seed 7 --kind conll --scale 0.05 \
        --out /tmp/conll.jsonl
    python -m repro evaluate --kb /tmp/kb --corpus /tmp/conll.jsonl
    python -m repro serve --kb /tmp/kb --port 8400 --slo-ms 500
    python -m repro snapshot build --kb /tmp/kb --out /tmp/kb.snap
    python -m repro serve --snapshot /tmp/kb.snap --executor process
    python -m repro evaluate --kb /tmp/kb --corpus /tmp/conll.jsonl \
        --prerank-topk 8

The ``snapshot`` subcommand compiles a saved KB into a single mmap-able
image (see ``docs/snapshots.md``); ``--snapshot`` on evaluate/serve then
attaches workers to it by path with near-zero startup cost.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import signal
import sys
from typing import List, Optional, Sequence

from repro.core.config import RELATEDNESS_BACKENDS, AidaConfig
from repro.errors import ConfigurationError
from repro.core.spec import PipelineSpec
from repro.datagen.wikipedia import build_world_kb
from repro.faults import RobustnessConfig, make_resilient
from repro.datagen.world import World, WorldConfig
from repro.kb.io import load_knowledge_base, save_knowledge_base
from repro.ner.classifier import NamedEntityClassifier
from repro.obs import (
    MetricsRegistry,
    Tracer,
    configure_logging,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.ner.recognizer import NamedEntityRecognizer
from repro.relatedness import (
    InlinkJaccardRelatedness,
    KoreRelatedness,
    MilneWittenRelatedness,
)
from repro.relatedness.base import filtered_relatedness
from repro.relatedness.lsh import lsh_geometry
from repro.text.tokenizer import tokenize
from repro.types import Document
from repro.weights.model import WeightModel

AIDA_VARIANTS = {
    "full": AidaConfig.full,
    "sim": AidaConfig.sim_only,
    "prior": AidaConfig.prior_only,
    "r-prior-sim": AidaConfig.robust_prior_sim,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "AIDA/KORE/NED-EE reproduction — named entity discovery and "
            "disambiguation"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser(
        "generate-kb", help="generate a synthetic world and save its KB"
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--clusters", type=int, default=4, help="clusters per domain"
    )

    dis = subparsers.add_parser(
        "disambiguate", help="disambiguate entities in a text"
    )
    dis.add_argument("--kb", required=True, help="saved KB directory")
    dis.add_argument("--text", help="input text")
    dis.add_argument("--file", help="read the input text from a file")
    dis.add_argument(
        "--variant",
        choices=sorted(AIDA_VARIANTS),
        default="full",
        help="AIDA configuration",
    )
    _add_relatedness_argument(dis)
    _add_prerank_arguments(dis)
    _add_obs_arguments(dis)
    _add_robustness_arguments(dis)

    rel = subparsers.add_parser(
        "relatedness", help="score the relatedness of entity pairs"
    )
    rel.add_argument("--kb", required=True)
    rel.add_argument(
        "--measure", "--relatedness",
        choices=("mw", "kore", "jaccard", "kore_lsh_g", "kore_lsh_f"),
        default="kore",
        help="relatedness measure; the kore_lsh_* variants run the "
        "two-stage LSH over the listed entities and prune non-colliding "
        "pairs to 0",
    )
    rel.add_argument(
        "entities", nargs="+", help="two or more entity ids (all pairs)"
    )

    cls = subparsers.add_parser(
        "classify", help="coarse-type the mentions of a text"
    )
    cls.add_argument("--kb", required=True)
    cls.add_argument("--text", required=True)

    corpus = subparsers.add_parser(
        "corpus", help="generate an annotated evaluation corpus"
    )
    corpus.add_argument("--out", required=True, help="output JSONL file")
    corpus.add_argument("--seed", type=int, default=7)
    corpus.add_argument(
        "--clusters", type=int, default=4, help="clusters per domain "
        "(must match the generate-kb call for aligned entity ids)"
    )
    corpus.add_argument(
        "--kind", choices=("conll", "kore50", "wp"), default="conll"
    )
    corpus.add_argument(
        "--scale", type=float, default=0.05,
        help="CoNLL split scale (conll kind only)",
    )
    corpus.add_argument(
        "--split", choices=("train", "testa", "testb", "all"),
        default="testb", help="CoNLL split to write (conll kind only)",
    )

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate a pipeline on a saved corpus"
    )
    evaluate.add_argument(
        "--kb", help="saved KB directory (or use --snapshot)"
    )
    _add_snapshot_argument(evaluate)
    evaluate.add_argument("--corpus", required=True)
    evaluate.add_argument(
        "--variant", choices=sorted(AIDA_VARIANTS), default="full"
    )
    evaluate.add_argument(
        "--workers", type=int, default=1,
        help="fan documents out over this many workers (1 = serial)",
    )
    evaluate.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="worker pool kind for --workers > 1 (process workers "
        "each load their own KB copy)",
    )
    _add_relatedness_argument(evaluate)
    _add_prerank_arguments(evaluate)
    _add_obs_arguments(evaluate)
    _add_robustness_arguments(evaluate)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived disambiguation service "
        "(admission control + micro-batching + load shedding)",
    )
    serve.add_argument(
        "--kb", help="saved KB directory (or use --snapshot)"
    )
    _add_snapshot_argument(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8400,
        help="TCP port for the HTTP front-end (0 = ephemeral)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="bound on outstanding admitted requests; at the bound new "
        "requests are rejected with 429 (shedding by degradation rung "
        "starts earlier)",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=1000.0,
        help="p99 latency objective driving the shed policy; also the "
        "default per-attempt soft deadline unless --deadline-ms is given",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=None,
        help="ignored: a micro-batch leaves as soon as the executor is "
        "free, with no age window",
    )
    serve.add_argument(
        "--batch-max-docs", type=int, default=16,
        help="most documents one micro-batch takes from the queue",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="worker threads of the per-batch runner",
    )
    serve.add_argument(
        "--executor", choices=("serial", "thread", "process"),
        default="thread",
        help="batch executor; 'process' rebuilds the pipeline in each "
        "worker and routes the admitted rung through trace-context "
        "baggage",
    )
    serve.add_argument(
        "--variant", choices=sorted(AIDA_VARIANTS), default="full"
    )
    serve.add_argument(
        "--trace-export", metavar="FILE",
        help="spool sampled span trees to this JSONL file (one span per "
        "line, grouped by trace_id; feed it to 'repro obs report')",
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=1.0, metavar="RATE",
        help="head-sampling rate in [0, 1] for healthy traces; "
        "SLO-breaching and erroring requests are always exported",
    )
    serve.add_argument(
        "--slo-objective", type=float, default=0.99, metavar="FRAC",
        help="good-request fraction the error budget is computed "
        "against (burn rate > 1 means the budget is being spent faster "
        "than it accrues)",
    )
    serve.add_argument(
        "--stdin", action="store_true",
        help="serve JSONL requests from stdin to stdout instead of "
        "listening on a TCP port; exits at EOF",
    )
    _add_relatedness_argument(serve)
    _add_prerank_arguments(serve)
    _add_obs_arguments(serve)
    _add_robustness_arguments(serve)

    snap = subparsers.add_parser(
        "snapshot",
        help="build or inspect zero-copy mmap KB snapshot images",
    )
    snap_sub = snap.add_subparsers(dest="snapshot_command", required=True)
    snap_build = snap_sub.add_parser(
        "build",
        help="compile a saved KB directory into one mmap-able image "
        "(vocabulary, compiled models, dictionary, CSR link graph, "
        "keyphrases, LSH sketches)",
    )
    snap_build.add_argument("--kb", required=True, help="saved KB directory")
    snap_build.add_argument("--out", required=True, help="snapshot file")
    snap_build.add_argument(
        "--scheme", choices=("npmi", "idf"), default="npmi",
        help="keyword weight scheme baked into the compiled arrays "
        "(must match the pipeline config the snapshot will serve)",
    )
    snap_build.add_argument(
        "--max-keyphrases", type=int, default=0,
        help="per-entity keyphrase cap baked into the compiled arrays "
        "(0 = unlimited)",
    )
    snap_build.add_argument(
        "--gearings", default="g,f", metavar="LIST",
        help="comma-separated LSH sketch tables to embed: g = "
        "recall-geared, f = fast (empty string = none)",
    )
    snap_build.add_argument(
        "--embeddings",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="train the joint word/entity embedding space and embed its "
        "matrices as snapshot sections, so pre-ranking needs no "
        "per-worker training at load time",
    )
    snap_build.add_argument(
        "--embedding-dim", type=int, default=48, metavar="D",
        help="embedding dimensionality for --embeddings",
    )
    snap_build.add_argument(
        "--embedding-seed", type=int, default=13, metavar="SEED",
        help="training seed for --embeddings (same seed + KB -> "
        "byte-identical matrices)",
    )
    snap_inspect = snap_sub.add_parser(
        "inspect",
        help="verify every checksum and print the manifest + section "
        "layout as JSON",
    )
    snap_inspect.add_argument("path", help="snapshot file")

    obs = subparsers.add_parser(
        "obs",
        help="telemetry analysis tools (trace reports)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="aggregate exported trace files into a per-stage "
        "critical-path latency breakdown",
    )
    report.add_argument(
        "traces", nargs="+", metavar="FILE",
        help="span JSONL files (from 'serve --trace-export' or "
        "'--trace-out file.jsonl')",
    )
    report.add_argument(
        "--slo-ms", type=float, default=None, metavar="MS",
        help="also count traces whose root span exceeds this budget",
    )

    return parser


def _add_relatedness_argument(sub: argparse.ArgumentParser) -> None:
    """The coherence-backend selector (``AidaConfig.relatedness_backend``)."""
    sub.add_argument(
        "--relatedness",
        choices=RELATEDNESS_BACKENDS,
        default="mw",
        help="entity-entity coherence backend: Milne-Witten inlink "
        "overlap (default), exact KORE, KORE behind two-stage "
        "min-hash/LSH pruning in the recall-geared (kore_lsh_g) or "
        "speed-geared (kore_lsh_f) parameterization",
    )


def _add_prerank_arguments(sub: argparse.ArgumentParser) -> None:
    """The dense pre-ranker flag."""
    group = sub.add_argument_group("dense pre-ranking")
    group.add_argument(
        "--prerank-topk", type=int, default=None, metavar="K",
        help="truncate each mention's candidate pool to its top-K "
        "entities by embedding cosine before keyphrase scoring and "
        "coherence (prior-top and pinned candidates always survive); "
        "omit to disable — the pipeline is then bit-identical to the "
        "unpruned path",
    )


def _pipeline_spec(args: argparse.Namespace) -> PipelineSpec:
    """The pipeline the flags describe; the parent, process workers and
    the server all build from it.  A bad combination becomes a clean CLI
    error instead of a traceback."""
    try:
        return PipelineSpec(
            dataclasses.replace(
                AIDA_VARIANTS[args.variant](),
                relatedness_backend=args.relatedness,
                prerank_topk=args.prerank_topk,
            ),
            kb_dir=args.kb,
            snapshot=getattr(args, "snapshot", None),
        )
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}")


def _add_snapshot_argument(sub: argparse.ArgumentParser) -> None:
    """The ``--snapshot`` image path (``repro snapshot build`` output)."""
    sub.add_argument(
        "--snapshot", metavar="FILE",
        help="serve models from this mmap snapshot image instead of "
        "loading --kb into memory; process workers attach to the image "
        "by path (near-zero startup, shared read-only pages)",
    )


def _add_obs_arguments(sub: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``disambiguate`` and ``evaluate``."""
    group = sub.add_argument_group("observability")
    group.add_argument(
        "--trace-out", metavar="FILE",
        help="record spans and write a trace file: Chrome trace_event "
        "JSON (open in chrome://tracing or Perfetto) unless FILE ends "
        "in .jsonl, which writes one span object per line",
    )
    group.add_argument(
        "--metrics-out", metavar="FILE",
        help="collect counters/gauges/histograms and write the registry "
        "snapshot as JSON",
    )
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="configure repro.* structured logging on stderr at this "
        "level (debug emits one event per pipeline stage)",
    )
    group.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of key=value text",
    )


def _add_robustness_arguments(sub: argparse.ArgumentParser) -> None:
    """Robustness flags shared by ``disambiguate`` and ``evaluate``."""
    group = sub.add_argument_group("robustness")
    group.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="soft per-attempt deadline; checked cooperatively at "
        "pipeline stage boundaries and solver iterations",
    )
    group.add_argument(
        "--degrade", action="store_true",
        help="on failure, walk the degradation ladder (full joint AIDA "
        "-> coherence-off -> prior-only) instead of failing the document",
    )


def _robustness_config(
    args: argparse.Namespace,
) -> Optional[RobustnessConfig]:
    """The RobustnessConfig the flags describe, or None when inert."""
    config = RobustnessConfig(
        deadline_ms=args.deadline_ms, degrade=args.degrade
    )
    return None if config.inert else config


class _ObsSession:
    """Per-command observability: enable on entry, export on exit."""

    def __init__(self, args: argparse.Namespace):
        self.trace_out = getattr(args, "trace_out", None)
        self.metrics_out = getattr(args, "metrics_out", None)
        log_level = getattr(args, "log_level", None)
        log_json = getattr(args, "log_json", False)
        if log_level or log_json:
            configure_logging(log_level or "info", json=log_json)
        self._prev_tracer = None
        self._prev_metrics = None
        if self.trace_out:
            self._prev_tracer = set_tracer(Tracer())
        if self.metrics_out:
            self._prev_metrics = set_metrics(MetricsRegistry())

    def finish(self) -> None:
        """Write the requested artifacts and restore global state."""
        if self.trace_out:
            tracer = get_tracer()
            if self.trace_out.endswith(".jsonl"):
                count = tracer.export_jsonl(self.trace_out)
            else:
                count = tracer.export_chrome(self.trace_out) // 2
            print(f"wrote {count} spans to {self.trace_out}")
            set_tracer(self._prev_tracer)
        if self.metrics_out:
            snapshot = get_metrics().snapshot()
            with open(self.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2)
                handle.write("\n")
            print(f"wrote metrics to {self.metrics_out}")
            set_metrics(self._prev_metrics)


def _input_text(args: argparse.Namespace) -> str:
    if args.text:
        return args.text
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    raise SystemExit("disambiguate requires --text or --file")


def _document(text: str, kb) -> Document:
    tokens = tuple(tokenize(text))
    recognizer = NamedEntityRecognizer(kb.dictionary)
    return recognizer.recognize(Document(doc_id="cli", tokens=tokens))


def cmd_generate_kb(args: argparse.Namespace) -> int:
    """Handle ``generate-kb``: build and save a synthetic KB."""
    world = World.generate(
        WorldConfig(seed=args.seed, clusters_per_domain=args.clusters)
    )
    kb, _wiki = build_world_kb(world, seed=args.seed + 94)
    save_knowledge_base(kb, args.out)
    stats = kb.describe()
    print(f"saved KB to {args.out}: {stats}")
    return 0


def cmd_disambiguate(args: argparse.Namespace) -> int:
    """Handle ``disambiguate``: NER + AIDA over the input text."""
    obs = _ObsSession(args)
    try:
        text = _input_text(args)
        pipeline = _pipeline_spec(args).build()
        kb = pipeline.kb
        document = _document(text, kb)
        if not document.mentions:
            print("no entity mentions recognized")
            return 0
        aida = make_resilient(pipeline, _robustness_config(args))
        result = aida.disambiguate(document)
        for assignment in result.assignments:
            target = (
                "<out of KB>"
                if assignment.is_out_of_kb
                else f"{assignment.entity} "
                f"({kb.entity(assignment.entity).canonical_name})"
            )
            print(f"{assignment.mention.surface!r} -> {target}")
        if result.degradation_rung != "full" or result.attempts > 1:
            print(
                f"robustness: rung={result.degradation_rung} "
                f"attempts={result.attempts}"
            )
        return 0
    finally:
        obs.finish()


def cmd_relatedness(args: argparse.Namespace) -> int:
    """Handle ``relatedness``: score all entity pairs."""
    kb = load_knowledge_base(args.kb)
    missing = [eid for eid in args.entities if eid not in kb]
    if missing:
        print(f"unknown entities: {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.measure == "mw":
        measure = MilneWittenRelatedness(kb.links, max(kb.entity_count, 2))
    elif args.measure == "jaccard":
        measure = InlinkJaccardRelatedness(kb.links)
    else:
        from repro.compiled import CompiledKeyphrases

        weights = WeightModel(kb.keyphrases, kb.links)
        compiled = CompiledKeyphrases(kb.keyphrases, weights)
        measure = KoreRelatedness(
            kb.keyphrases, weights, compiled=compiled
        )
        geometry = lsh_geometry(args.measure)
        if geometry is not None:
            from repro.relatedness import KoreLshRelatedness

            settings, name = geometry
            measure = KoreLshRelatedness(
                kb.keyphrases, measure, settings, name=name
            )
    entities: List[str] = args.entities
    # The listed entities are the task's candidate set: pairs the
    # measure's filter removes (no shared LSH bucket) print as 0.0000
    # uncomputed.
    survivors = measure.candidate_pairs(entities)
    for i, a in enumerate(entities):
        for b in entities[i + 1 :]:
            value = filtered_relatedness(measure, survivors, a, b)
            print(f"{a}  {b}  {value:.4f}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Handle ``classify``: coarse-type the recognized mentions."""
    kb = load_knowledge_base(args.kb)
    document = _document(args.text, kb)
    classifier = NamedEntityClassifier(kb)
    for mention, label in classifier.classify_document(document):
        print(f"{mention.surface!r} -> {label or '<unknown>'}")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    """Handle ``corpus``: generate an annotated corpus as JSONL."""
    from repro.datagen.conll import ConllConfig, generate_conll
    from repro.datagen.io import save_corpus
    from repro.datagen.kore50 import generate_kore50
    from repro.datagen.wpslice import generate_wp_slice

    world = World.generate(
        WorldConfig(seed=args.seed, clusters_per_domain=args.clusters)
    )
    if args.kind == "conll":
        corpus = generate_conll(world, ConllConfig(scale=args.scale))
        if args.split == "all":
            documents = corpus.all_documents()
        else:
            documents = getattr(corpus, args.split)
    elif args.kind == "kore50":
        documents = generate_kore50(world)
    else:
        documents = generate_wp_slice(world)
    written = save_corpus(documents, args.out)
    print(f"wrote {written} documents to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Handle ``evaluate``: score a pipeline on a saved corpus."""
    from repro.core.batch import BatchConfig, BatchRunner
    from repro.datagen.io import load_corpus
    from repro.eval.runner import run_disambiguator
    from repro.faults import ResilientFactory

    obs = _ObsSession(args)
    try:
        documents = load_corpus(args.corpus)
        spec = _pipeline_spec(args)
        robustness = _robustness_config(args)
        pipeline = spec.build()
        batch = None
        if args.workers > 1 and args.executor == "process":
            batch = BatchRunner(
                pipeline_factory=ResilientFactory(spec, robustness),
                config=BatchConfig(
                    workers=args.workers, executor="process"
                ),
            )
        run = run_disambiguator(
            pipeline,
            documents,
            kb=pipeline.kb,
            workers=args.workers,
            batch=batch,
            robustness=robustness,
        )
        print(f"documents: {len(documents)}")
        if run.failures:
            print(f"failed documents: {len(run.failures)}")
            for failure in run.failures:
                print(
                    f"  {failure.doc_id}: [{failure.kind}] "
                    f"{failure.error}",
                    file=sys.stderr,
                )
        rungs = run.rung_counts
        if any(rung != "full" for rung in rungs):
            summary = " ".join(
                f"{rung}={count}" for rung, count in sorted(rungs.items())
            )
            print(f"degradation rungs: {summary}")
        print(f"micro accuracy: {100 * run.micro:.2f}%")
        print(f"macro accuracy: {100 * run.macro:.2f}%")
        print(f"MAP:            {100 * run.map:.2f}%")
        # Every document counts its own memo lookups, process workers'
        # included (the counters ride back on each result).
        counters = run.stats.counters if run.stats is not None else {}
        pairs = counters.get("relatedness_pairs", 0)
        misses = counters.get("relatedness_computed", 0)
        hits = pairs - misses
        print(
            f"relatedness memo: {hits} hits, {misses} misses "
            f"({100 * hits / max(pairs, 1):.1f}% hit rate)"
        )
        return 0
    finally:
        obs.finish()


def _serving_robustness(args: argparse.Namespace) -> RobustnessConfig:
    """The serve command's robustness: degradation is always on (the
    shed ladder requires it) and the SLO doubles as the per-attempt
    deadline unless --deadline-ms overrides it."""
    return RobustnessConfig(
        deadline_ms=(
            args.deadline_ms if args.deadline_ms else args.slo_ms
        ),
        degrade=True,
    )


async def _serve_stdin(server) -> int:
    await server.start(listen=False)
    try:
        served = await server.run_jsonl(sys.stdin, sys.stdout)
    finally:
        await server.stop()
    stats = server.admission.stats()
    print(
        f"served {served} documents "
        f"(shed {stats['shed']}, rejected {stats['rejected']}, "
        f"p99 {stats['p99_ms']:.1f}ms)",
        file=sys.stderr,
    )
    return 0


async def _serve_forever(server) -> int:
    await server.start()
    print(
        f"serving on http://{server.config.host}:{server.port} "
        f"(POST /disambiguate, GET /healthz /stats /metrics)",
        flush=True,
    )
    # Like Ctrl-C, SIGTERM runs stop(): the pool is shut, not orphaned.
    terminated = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, terminated.set)
    try:
        await terminated.wait()
    finally:
        await server.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle ``serve``: the admission-controlled online service."""
    from repro.serving import DisambiguationServer, ServingConfig

    if args.batch_window_ms is not None:
        print(
            "--batch-window-ms is ignored: micro-batches leave as soon "
            "as the executor is free",
            file=sys.stderr,
        )
    obs = _ObsSession(args)
    # The /metrics endpoint and the shed counters need a live registry
    # even without --metrics-out, and --trace-export needs a live tracer
    # even without --trace-out.
    own_metrics = None
    if not get_metrics().enabled:
        own_metrics = set_metrics(MetricsRegistry())
    own_tracer = None
    if args.trace_export and not get_tracer().enabled:
        own_tracer = set_tracer(Tracer())
    try:
        server = DisambiguationServer(
            config=ServingConfig(
                host=args.host,
                port=args.port,
                max_queue=args.max_queue,
                slo_ms=args.slo_ms,
                batch_max_docs=args.batch_max_docs,
                workers=args.workers,
                executor=args.executor,
                trace_sample_rate=args.trace_sample_rate,
                trace_export=args.trace_export,
                slo_objective=args.slo_objective,
            ),
            robustness=_serving_robustness(args),
            pipeline_factory=_pipeline_spec(args),
        )
        runner = _serve_stdin(server) if args.stdin else _serve_forever(
            server
        )
        try:
            return asyncio.run(runner)
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
            return 0
    finally:
        if own_metrics is not None:
            set_metrics(own_metrics)
        if own_tracer is not None:
            set_tracer(own_tracer)
        obs.finish()


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Handle ``snapshot``: build or inspect mmap KB images."""
    from repro.kb.io import kb_fingerprint
    from repro.kb.snapshot import (
        SnapshotError,
        build_snapshot,
        inspect_snapshot,
    )

    if args.snapshot_command == "build":
        gearings = tuple(
            part for part in args.gearings.split(",") if part
        )
        kb = load_knowledge_base(args.kb)
        embeddings = None
        if args.embeddings:
            from repro.embeddings import EmbeddingConfig, train_embeddings

            embeddings = train_embeddings(
                kb,
                EmbeddingConfig(
                    dim=args.embedding_dim, seed=args.embedding_seed
                ),
            )
        manifest = build_snapshot(
            kb,
            args.out,
            scheme=args.scheme,
            max_keyphrases=args.max_keyphrases or None,
            gearings=gearings,
            source_fingerprint=kb_fingerprint(args.kb),
            embeddings=embeddings,
        )
        counts = manifest["counts"]
        emb_info = manifest.get("embeddings")
        emb_text = (
            f"embeddings: d={emb_info['dim']}" if emb_info else
            "embeddings: none"
        )
        print(
            f"wrote {args.out}: {os.path.getsize(args.out)} bytes, "
            f"{counts['entities']} entities, "
            f"{counts['vocabulary']} words, "
            f"{counts['link_edges']} link edges, "
            f"lsh gearings: "
            f"{', '.join(sorted(manifest['lsh'])) or 'none'}, "
            f"{emb_text}"
        )
        return 0
    if args.snapshot_command == "inspect":
        try:
            info = inspect_snapshot(args.path)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            print(json.dumps(info, indent=2))
        except BrokenPipeError:
            # Downstream consumer (e.g. ``| head``) closed the pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise SystemExit(
        f"unknown snapshot subcommand {args.snapshot_command!r}"
    )


def cmd_obs(args: argparse.Namespace) -> int:
    """Handle ``obs``: telemetry analysis subcommands."""
    from repro.obs.report import build_report, load_spans, render_report

    if args.obs_command == "report":
        try:
            spans = load_spans(args.traces)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not spans:
            print("no spans found", file=sys.stderr)
            return 1
        report = build_report(spans, slo_ms=args.slo_ms)
        try:
            print(render_report(report))
        except BrokenPipeError:
            # Downstream consumer (e.g. ``| head``) closed the pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise SystemExit(f"unknown obs subcommand {args.obs_command!r}")


_COMMANDS = {
    "generate-kb": cmd_generate_kb,
    "disambiguate": cmd_disambiguate,
    "relatedness": cmd_relatedness,
    "classify": cmd_classify,
    "corpus": cmd_corpus,
    "evaluate": cmd_evaluate,
    "serve": cmd_serve,
    "snapshot": cmd_snapshot,
    "obs": cmd_obs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
