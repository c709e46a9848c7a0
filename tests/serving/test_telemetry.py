"""End-to-end serving telemetry: trace trees, scrapes, SLO accounting.

The acceptance path of the observability layer: a request entering
through a real loopback socket and executing on a **process-pool**
``BatchRunner`` must come back as one connected span tree under a single
``trace_id``, exported to the JSONL sink and digestible by
``repro obs report``.  The rest of the file covers the scrape surface
(``/metrics`` under concurrent recording, Prometheus exposition
validity), request ids on every error status, and the traced ≡ untraced
differential.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.core.pipeline import AidaDisambiguator
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.faults.resilient import RobustnessConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    set_metrics,
    set_tracer,
    validate_exposition,
)
from repro.obs.report import build_report, group_traces, load_spans
from repro.serving import DisambiguationServer, ServingConfig

from tests.obs.test_window import FakeClock
from tests.serving.conftest import (
    comparable,
    document_payload,
    drive,
    http_request,
    make_server,
)

#: Pipeline stage spans only workers record (the batch executor side of
#: the tree); any one of them proves the tree crosses the executor.
STAGE_SPANS = {
    "candidate_retrieval",
    "feature_computation",
    "coherence_test",
    "graph_build",
    "solve",
    "post_process",
}


def _small_world_pipeline():
    """Module-level factory: picklable for process-pool workers, which
    rebuild the conftest world/KB from the same seeds."""
    world = World.generate(WorldConfig(seed=7, clusters_per_domain=4))
    kb, _wiki = build_world_kb(world, seed=101)
    return AidaDisambiguator(kb)


@pytest.fixture
def live_obs():
    """A real tracer + registry installed for the duration of a test."""
    tracer = Tracer()
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)


async def raw_http_request(port, method, path):
    """Like ``http_request`` but returns the body as text (scrapes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Length: 0\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(head_blob.decode("latin-1").splitlines()[0].split()[1])
    return status, body_blob.decode("utf-8")


class TestProcessPoolTraceTree:
    def test_http_request_yields_one_connected_tree(
        self, serving_pipeline, kb, sample_docs, live_obs, tmp_path,
        capsys,
    ):
        """The acceptance path: HTTP loopback -> admission -> micro-batch
        -> process pool -> pipeline stages, one span tree per request."""
        tracer, registry = live_obs
        trace_path = str(tmp_path / "traces.jsonl")
        documents = [a.document for a in sample_docs[:4]]
        server = DisambiguationServer(
            serving_pipeline,
            ServingConfig(
                port=0,
                slo_ms=60_000.0,
                batch_max_docs=4,
                workers=2,
                executor="process",
                trace_export=trace_path,
            ),
            kb=kb,
            robustness=RobustnessConfig(degrade=True),
            pipeline_factory=_small_world_pipeline,
        )

        async def driver(server):
            # Hold the batch executor busy until every request is
            # admitted, so those queued behind the first batch leave
            # together as a multi-document pool batch.
            busy = threading.Event()
            server._executor.submit(busy.wait)
            requests = asyncio.gather(
                *(
                    http_request(
                        server.port,
                        "POST",
                        "/disambiguate",
                        document_payload(document),
                    )
                    for document in documents
                )
            )
            try:
                for _ in range(30_000):  # polls; gives up after ~30 s
                    if server.admission.depth >= len(documents):
                        break
                    await asyncio.sleep(0.001)
            finally:
                busy.set()
            return await requests

        responses = drive(server, driver)
        trace_ids = set()
        for status, body, _headers in responses:
            assert status == 200
            assert body["request_id"].startswith("req-")
            assert len(body["trace_id"]) == 32
            assert body["assignments"]
            trace_ids.add(body["trace_id"])
        assert len(trace_ids) == len(documents)

        spans = load_spans([trace_path])
        traces = group_traces(spans)
        assert set(traces) == trace_ids
        saw_pool_batch = False
        saw_worker_span = False
        for trace_id, trace in traces.items():
            ids = {span["span_id"] for span in trace}
            roots = [
                span for span in trace
                if span.get("parent_id") not in ids
            ]
            # One connected tree: a single root, the request span.
            assert [root["name"] for root in roots] == ["request"]
            assert all(
                span.get("trace_id") == trace_id for span in trace
            )
            names = {span["name"] for span in trace}
            assert {
                "request", "admission", "queue.wait", "batch.exec"
            } <= names
            assert any(name.startswith("rung.") for name in names)
            assert names & STAGE_SPANS
            for span in trace:
                if span["name"] == "batch.exec":
                    if span["args"]["batch_size"] >= 2:
                        saw_pool_batch = True
                # Worker spans live in a pid-offset id space.
                if span["span_id"] > 0xFFFFFFFF:
                    saw_worker_span = True
        # Requests queued behind a busy executor left as one batch, and
        # the process pool shipped its spans across the pickle wall.
        assert saw_pool_batch
        assert saw_worker_span

        # Admission's p99 is the exported windowed p99, live after
        # completions.
        window = registry.snapshot()["windows"]["histograms"]
        p99 = window["serving.request.seconds"]["p99"]
        assert p99 > 0.0
        assert server.admission.stats()["p99_ms"] == p99 * 1000.0

        # The exported file feeds the CLI report.
        capsys.readouterr()
        assert cli_main(["obs", "report", trace_path]) == 0
        out = capsys.readouterr().out
        assert f"traces: {len(documents)}" in out
        assert "request" in out
        assert "share" in out

    def test_tail_sampling_keeps_breaching_traces_only(
        self, serving_pipeline, kb, sample_docs, live_obs, tmp_path
    ):
        """With a zero head-sample rate, healthy traces are discarded;
        an SLO-breaching request's tree is still exported."""
        trace_path = str(tmp_path / "tail.jsonl")
        document = sample_docs[0].document
        server = make_server(
            serving_pipeline,
            kb=kb,
            slo_ms=60_000.0,
            trace_sample_rate=0.0,
            trace_export=trace_path,
        )

        async def driver(server):
            return await server.submit(document)

        drive(server, driver)
        assert server._trace_sink.stats()["traces_written"] == 0

        slow = make_server(
            serving_pipeline,
            kb=kb,
            slo_ms=0.001,  # everything breaches
            trace_sample_rate=0.0,
            trace_export=trace_path,
        )
        drive(slow, driver)
        spans = load_spans([trace_path])
        assert spans
        assert {span["name"] for span in spans} >= {"request"}


class TestScrapeSurface:
    def test_metrics_and_stats_under_concurrent_recording(
        self, serving_pipeline, kb, sample_docs, live_obs
    ):
        """Eight writer threads hammer the registry while the scrape
        endpoints snapshot it; every response stays well-formed."""
        tracer, registry = live_obs
        server = make_server(serving_pipeline, kb=kb)
        stop = threading.Event()

        def writer(index):
            counter = registry.windowed_counter(f"load.{index}")
            histogram = registry.windowed_histogram("load.seconds")
            plain = registry.counter("load.total")
            while not stop.is_set():
                counter.inc()
                histogram.observe(0.01 * index)
                plain.inc()

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]

        async def driver(server):
            await server.submit(sample_docs[0].document)
            scrapes = []
            for _ in range(5):
                scrapes.append(
                    await raw_http_request(
                        server.port, "GET", "/metrics?format=prometheus"
                    )
                )
                scrapes.append(
                    await http_request(server.port, "GET", "/metrics")
                )
                scrapes.append(
                    await http_request(server.port, "GET", "/stats")
                )
            return scrapes

        for thread in threads:
            thread.start()
        try:
            scrapes = drive(server, driver)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        for index, scrape in enumerate(scrapes):
            kind = index % 3
            if kind == 0:
                status, text = scrape
                assert status == 200
                assert validate_exposition(text) == []
                assert "serving_requests_total" in text
            elif kind == 1:
                status, body, _headers = scrape
                assert status == 200
                assert body["enabled"] is True
                assert "windows" in body
            else:
                status, body, _headers = scrape
                assert status == 200
                assert body["slo"]["objective"] == pytest.approx(0.99)
                assert body["telemetry"]["tracing"] is True
                assert body["telemetry"]["dropped_spans"] == 0

    def test_stats_p99_is_the_exported_window_p99(
        self, serving_pipeline, kb, sample_docs, live_obs
    ):
        """/stats p99_ms, the /metrics windowed p99 and the shed signal
        are one number: admission reads the registry's window, here on
        a fake clock so the samples can age out."""
        tracer, registry = live_obs
        clock = FakeClock()
        window = registry.windowed_histogram(
            "serving.request.seconds", clock=clock
        )
        server = make_server(serving_pipeline, kb=kb)
        assert server.admission.latencies is window
        documents = [a.document for a in sample_docs[:3]]

        async def scrape(server):
            _status, stats, _headers = await http_request(
                server.port, "GET", "/stats"
            )
            _status, metrics, _headers = await http_request(
                server.port, "GET", "/metrics"
            )
            exported = metrics["windows"]["histograms"][
                "serving.request.seconds"
            ]
            return stats["p99_ms"], exported["p99"], exported["count"]

        async def driver(server):
            for document in documents:
                status, _body, _headers = await http_request(
                    server.port,
                    "POST",
                    "/disambiguate",
                    document_payload(document),
                )
                assert status == 200
            live = await scrape(server)
            clock.advance(60.0)
            return live, await scrape(server)

        live, aged = drive(server, driver)
        p99_ms, exported_p99, count = live
        assert count == len(documents)
        assert p99_ms > 0.0
        assert p99_ms == exported_p99 * 1000.0
        assert aged == (0.0, 0.0, 0)

    def test_prometheus_scrape_disabled_metrics_is_empty(
        self, serving_pipeline, kb
    ):
        set_metrics(None)
        set_tracer(None)
        server = make_server(serving_pipeline, kb=kb)

        async def driver(server):
            return await raw_http_request(
                server.port, "GET", "/metrics?format=prometheus"
            )

        status, text = drive(server, driver)
        assert status == 200
        assert text == ""


class TestErrorRequestIds:
    def test_400_and_429_and_500_carry_request_ids(
        self, serving_pipeline, kb, sample_docs
    ):
        class BoomPipeline(AidaDisambiguator):
            """Fails at every rung, so the request 500s."""

            def disambiguate(self, document, **kwargs):
                raise ValueError("boom")

        payload = document_payload(sample_docs[0].document)
        server = make_server(BoomPipeline(kb), kb=kb, max_queue=1)

        async def driver(server):
            bad_json = await http_request(
                server.port, "POST", "/disambiguate", None
            )
            bad_doc = await http_request(
                server.port,
                "POST",
                "/disambiguate",
                {"doc_id": "x", "mentions": []},
            )
            failed = await http_request(
                server.port, "POST", "/disambiguate", payload
            )
            server.admission.admit()  # fill the queue: next is a 429
            try:
                rejected = await http_request(
                    server.port, "POST", "/disambiguate", payload
                )
            finally:
                server.admission.complete()
            return bad_json, bad_doc, failed, rejected

        bad_json, bad_doc, failed, rejected = drive(server, driver)
        assert bad_json[0] == 400
        assert bad_doc[0] == 400
        assert failed[0] == 500
        assert rejected[0] == 429
        for status, body, _headers in (
            bad_json, bad_doc, failed, rejected,
        ):
            assert body["request_id"].startswith("req-"), status
        assert failed[1]["doc_id"] == payload["doc_id"]
        assert rejected[1]["max_queue"] == 1

    def test_jsonl_error_rows_carry_request_ids(
        self, serving_pipeline, kb
    ):
        server = make_server(serving_pipeline, kb=kb)
        in_stream = io.StringIO('{"doc_id": "bad", "mentions": []}\n')
        out_stream = io.StringIO()

        async def driver(server):
            return await server.run_jsonl(in_stream, out_stream)

        served = drive(server, driver, listen=False)
        assert served == 1
        row = json.loads(out_stream.getvalue())
        assert "error" in row
        assert row["request_id"].startswith("req-")


class TestTracedUntracedDifferential:
    def test_bit_identical_over_loopback(
        self, serving_pipeline, kb, sample_docs, tmp_path
    ):
        """Full telemetry on or off, the HTTP responses carry exactly
        the same assignments — observability is pure measurement."""
        documents = [a.document for a in sample_docs[:4]]

        async def driver(server):
            return await asyncio.gather(
                *(
                    http_request(
                        server.port,
                        "POST",
                        "/disambiguate",
                        document_payload(document),
                    )
                    for document in documents
                )
            )

        def assignments(responses):
            out = {}
            for status, body, _headers in responses:
                assert status == 200
                out[body["doc_id"]] = body["assignments"]
            return out

        set_tracer(None)
        set_metrics(None)
        untraced = assignments(
            drive(make_server(serving_pipeline, kb=kb), driver)
        )

        previous_tracer = set_tracer(Tracer())
        previous_metrics = set_metrics(MetricsRegistry())
        try:
            traced_server = make_server(
                serving_pipeline,
                kb=kb,
                trace_export=str(tmp_path / "diff.jsonl"),
            )
            traced = assignments(drive(traced_server, driver))
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)

        assert traced == untraced

    def test_submit_path_matches_direct_pipeline(
        self, serving_pipeline, kb, sample_docs
    ):
        """Traced serving responses equal the bare pipeline's output."""
        document = sample_docs[0].document
        direct = comparable(serving_pipeline.disambiguate(document))

        previous_tracer = set_tracer(Tracer())
        previous_metrics = set_metrics(MetricsRegistry())
        try:
            server = make_server(serving_pipeline, kb=kb)

            async def driver(server):
                return await server.submit(document)

            response = drive(server, driver)
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)
        assert comparable(response.result) == direct
