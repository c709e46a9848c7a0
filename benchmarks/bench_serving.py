"""Closed-loop serving load test: max sustainable docs/s at a p99 SLO.

Drives a real :class:`repro.serving.DisambiguationServer` on a loopback
ephemeral port with N closed-loop HTTP clients (each sends, awaits, and
immediately sends again).  Client count is grown geometrically until the
observed p99 breaches the SLO, then binary-searched to the *knee*: the
largest client count whose p99 still meets the SLO.  The report records
throughput, latency quantiles, and — the serving-specific number — the
admission rung mix at the knee: how much of the sustained throughput was
bought by shedding coherence.

Runs two ways:

* as a script writing ``BENCH_serving.json``::

      PYTHONPATH=src:. python benchmarks/bench_serving.py \
          --out BENCH_serving.json

* with ``--check``: a fast CI smoke that asserts the serving path
  sustains a modest closed-loop load within the SLO, that overload is
  answered by shedding (degraded rungs / 429s), and that no request is
  ever silently dropped.  Exits non-zero on violation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import AidaDisambiguator
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.obs.metrics import nearest_rank
from repro.serving import DisambiguationServer, ServingConfig
from repro.types import Document

WORLD_SEED = 7
KB_SEED = 101
DOC_SEED = 55
NUM_DOCS = 12
MENTIONS_PER_DOC = 5


def corpus() -> Tuple[object, List[Document]]:
    """The small deterministic world and its request documents."""
    world = World.generate(
        WorldConfig(seed=WORLD_SEED, clusters_per_domain=4)
    )
    kb, _wiki = build_world_kb(world, seed=KB_SEED)
    generator = DocumentGenerator(world, seed=DOC_SEED)
    cluster_ids = sorted(world.clusters)
    documents = [
        generator.generate(
            DocumentSpec(
                doc_id=f"bench-{index}",
                cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                num_mentions=MENTIONS_PER_DOC,
            )
        ).document
        for index in range(NUM_DOCS)
    ]
    return kb, documents


def payload_bytes(document: Document) -> bytes:
    payload = {
        "doc_id": document.doc_id,
        "tokens": list(document.tokens),
        "mentions": [
            {
                "surface": mention.surface,
                "start": mention.start,
                "end": mention.end,
            }
            for mention in document.mentions
        ],
    }
    return json.dumps(payload).encode("utf-8")


async def one_request(port: int, body: bytes) -> Tuple[int, float]:
    """One closed-loop HTTP exchange; returns (status, latency_ms)."""
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            "POST /disambiguate HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    status = int(raw.split(b" ", 2)[1])
    return status, (time.perf_counter() - started) * 1000.0


def quantile(samples: List[float], q: float) -> float:
    """The nearest-rank q-quantile of *samples* (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[nearest_rank(q, len(ordered)) - 1]


async def run_trial(
    kb,
    documents: List[Document],
    clients: int,
    duration_s: float,
    slo_ms: float,
    max_queue: int,
) -> Dict:
    """One closed-loop trial at a fixed client count."""
    bodies = [payload_bytes(document) for document in documents]
    server = DisambiguationServer(
        AidaDisambiguator(kb),
        ServingConfig(
            port=0,
            max_queue=max_queue,
            slo_ms=slo_ms,
            batch_max_docs=8,
            workers=4,
        ),
        kb=kb,
    )
    await server.start()
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    deadline = time.perf_counter() + duration_s

    async def client(index: int) -> None:
        sent = index
        while time.perf_counter() < deadline:
            body = bodies[sent % len(bodies)]
            sent += clients
            try:
                status, latency_ms = await one_request(server.port, body)
            except (ConnectionError, asyncio.IncompleteReadError):
                statuses[-1] = statuses.get(-1, 0) + 1
                continue
            statuses[status] = statuses.get(status, 0) + 1
            if status == 200:
                latencies.append(latency_ms)

    try:
        await asyncio.gather(*(client(i) for i in range(clients)))
    finally:
        rung_mix = dict(server.admission.rung_mix)
        stats = server.admission.stats()
        await server.stop()
    completed = statuses.get(200, 0)
    return {
        "clients": clients,
        "duration_s": duration_s,
        "completed": completed,
        "docs_per_second": completed / duration_s,
        "p50_ms": quantile(latencies, 0.50),
        "p99_ms": quantile(latencies, 0.99),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "rung_mix": rung_mix,
        "shed": stats["shed"],
        "rejected": stats["rejected"],
        "met_slo": bool(latencies) and quantile(latencies, 0.99) <= slo_ms,
    }


async def find_knee(
    kb,
    documents: List[Document],
    slo_ms: float,
    duration_s: float,
    max_clients: int,
    max_queue: int,
) -> Tuple[List[Dict], Optional[Dict]]:
    """Geometric growth to bracket the SLO breach, then binary search."""
    trials: List[Dict] = []

    async def measure(clients: int) -> Dict:
        trial = await run_trial(
            kb, documents, clients, duration_s, slo_ms, max_queue
        )
        trials.append(trial)
        print(
            f"  clients={clients:3d}  "
            f"{trial['docs_per_second']:8.1f} docs/s  "
            f"p99={trial['p99_ms']:7.1f} ms  "
            f"rungs={trial['rung_mix']}",
            file=sys.stderr,
        )
        return trial

    good: Optional[Dict] = None
    clients = 1
    while clients <= max_clients:
        trial = await measure(clients)
        if not trial["met_slo"]:
            break
        good = trial
        clients *= 2
    else:
        return trials, good  # never breached within max_clients
    if good is None:
        return trials, None  # unsustainable even at 1 client
    lo, hi = good["clients"], clients  # met_slo at lo, breached at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = await measure(mid)
        if trial["met_slo"]:
            good, lo = trial, mid
        else:
            hi = mid
    return trials, good


def run_check(kb, documents: List[Document], duration_s: float) -> int:
    """CI smoke gates; returns a process exit code."""
    failures: List[str] = []

    # Gate 1: a modest closed-loop load is sustained within a lenient SLO.
    steady = asyncio.run(
        run_trial(
            kb,
            documents,
            clients=2,
            duration_s=duration_s,
            slo_ms=5000.0,
            max_queue=32,
        )
    )
    if steady["completed"] < 4:
        failures.append(
            f"steady trial served only {steady['completed']} documents"
        )
    if not steady["met_slo"]:
        failures.append(
            f"steady p99 {steady['p99_ms']:.1f} ms blew a 5000 ms SLO"
        )
    if steady["statuses"].get("-1", 0) or steady["statuses"].get("500", 0):
        failures.append(f"steady trial errors: {steady['statuses']}")

    # Gate 2: overload (clients >> queue) is answered by shedding —
    # degraded rungs and/or 429s — never by dropped connections or 500s.
    overload = asyncio.run(
        run_trial(
            kb,
            documents,
            clients=16,
            duration_s=duration_s,
            slo_ms=5.0,  # unmeetable: forces the latency shed signal
            max_queue=4,
        )
    )
    answered = sum(
        count
        for status, count in overload["statuses"].items()
        if status in ("200", "429")
    )
    total = sum(overload["statuses"].values())
    if answered != total:
        failures.append(
            f"overload had non-200/429 outcomes: {overload['statuses']}"
        )
    degraded = sum(
        count
        for rung, count in overload["rung_mix"].items()
        if rung != "full"
    )
    if degraded + overload["rejected"] == 0:
        failures.append(
            "overload triggered neither rung shedding nor rejection"
        )
    for line in failures:
        print(f"CHECK FAIL: {line}", file=sys.stderr)
    if not failures:
        print(
            f"serving check ok: steady {steady['docs_per_second']:.1f} "
            f"docs/s (p99 {steady['p99_ms']:.1f} ms); overload shed "
            f"{degraded} requests by rung, rejected "
            f"{overload['rejected']}, zero drops",
            file=sys.stderr,
        )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="JSON report path")
    parser.add_argument("--slo-ms", type=float, default=250.0)
    parser.add_argument("--duration-s", type=float, default=2.0)
    parser.add_argument("--max-clients", type=int, default=64)
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fast CI smoke: sustain + shed gates, no knee search",
    )
    args = parser.parse_args(argv)

    kb, documents = corpus()
    if args.check:
        return run_check(kb, documents, min(args.duration_s, 1.0))

    print(
        f"binary-searching the knee at p99 <= {args.slo_ms} ms",
        file=sys.stderr,
    )
    trials, knee = asyncio.run(
        find_knee(
            kb,
            documents,
            slo_ms=args.slo_ms,
            duration_s=args.duration_s,
            max_clients=args.max_clients,
            max_queue=args.max_queue,
        )
    )
    report = {
        "benchmark": "serving_closed_loop",
        "python": platform.python_version(),
        "slo_ms": args.slo_ms,
        "duration_s": args.duration_s,
        "max_clients": args.max_clients,
        "max_queue": args.max_queue,
        "corpus_documents": len(documents),
        "trials": trials,
        "knee": knee,
    }
    if knee is not None:
        print(
            f"knee: {knee['clients']} clients, "
            f"{knee['docs_per_second']:.1f} docs/s, "
            f"p99 {knee['p99_ms']:.1f} ms, rung mix {knee['rung_mix']}",
            file=sys.stderr,
        )
    else:
        print("no sustainable operating point found", file=sys.stderr)
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
