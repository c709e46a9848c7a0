"""End-to-end loopback tests: real sockets, concurrent clients.

The server binds an ephemeral port on 127.0.0.1; clients are plain
asyncio stream connections speaking the minimal HTTP/1.1 the server
implements.  Every test asserts input↔output correspondence and the
per-request rung/attempts metadata the protocol promises.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.faults.resilient import RobustnessConfig
from repro.serving.admission import SHED_LADDER

from tests.faults.test_deadline import BudgetHog
from tests.serving.conftest import (
    comparable,
    document_payload,
    drive,
    http_request,
    make_server,
)


def test_single_request_round_trip(serving_pipeline, kb, sample_docs):
    annotated = sample_docs[0]
    payload = document_payload(annotated.document)
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return await http_request(
            server.port, "POST", "/disambiguate", payload
        )

    status, body, headers = drive(server, driver)
    assert status == 200
    assert headers["connection"] == "close"
    assert body["doc_id"] == annotated.document.doc_id
    assert body["admitted_rung"] == "full"
    assert body["rung"] in SHED_LADDER[:3]
    assert body["attempts"] >= 1
    assert body["latency_ms"] >= 0.0
    assert len(body["assignments"]) == len(annotated.document.mentions)
    for assignment, mention in zip(
        body["assignments"], annotated.document.mentions
    ):
        assert assignment["surface"] == mention.surface
        assert assignment["start"] == mention.start
        assert assignment["end"] == mention.end
        assert isinstance(assignment["entity"], (str, type(None)))


def test_concurrent_clients_get_their_own_documents(
    serving_pipeline, kb, sample_docs
):
    """N concurrent clients each send a distinct document; every client
    gets back exactly the answer for the document it sent."""
    documents = [annotated.document for annotated in sample_docs[:6]]
    expected = {
        doc.doc_id: comparable(serving_pipeline.disambiguate(doc))
        for doc in documents
    }
    server = make_server(serving_pipeline, kb=kb, max_queue=32)

    async def driver(server):
        return await asyncio.gather(
            *(
                http_request(
                    server.port,
                    "POST",
                    "/disambiguate",
                    document_payload(doc),
                )
                for doc in documents
            )
        )

    responses = drive(server, driver)
    assert len(responses) == len(documents)
    for doc, (status, body, _headers) in zip(documents, responses):
        assert status == 200
        assert body["doc_id"] == doc.doc_id
        got = [
            (a["surface"], a["entity"]) for a in body["assignments"]
        ]
        want = [
            (mention.surface, entity)
            for mention, entity, _score, _cands in expected[doc.doc_id]
        ]
        assert got == want
        assert body["attempts"] >= 1
        assert body["admitted_rung"] in SHED_LADDER[:3]


def test_text_payload_runs_ner(serving_pipeline, kb, sample_docs):
    """A payload with raw tokens and no mention spans goes through the
    server-side recognizer."""
    annotated = sample_docs[0]
    payload = {
        "doc_id": "text-mode",
        "tokens": list(annotated.document.tokens),
    }
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return await http_request(
            server.port, "POST", "/disambiguate", payload
        )

    status, body, _headers = drive(server, driver)
    assert status == 200
    assert body["doc_id"] == "text-mode"
    # The recognizer found at least the mentions the generator planted.
    assert len(body["assignments"]) >= 1


def test_healthz_stats_and_metrics_endpoints(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return (
            await http_request(server.port, "GET", "/healthz"),
            await http_request(server.port, "GET", "/stats"),
            await http_request(server.port, "GET", "/metrics"),
        )

    health, stats, metrics = drive(server, driver)
    assert health[0] == 200
    assert health[1]["status"] == "ok"
    assert health[1]["queue_depth"] == 0
    assert stats[0] == 200
    for key in ("admitted", "rejected", "shed", "depth", "p99_ms"):
        assert key in stats[1]
    assert metrics[0] == 200
    assert "enabled" in metrics[1]


def test_error_statuses(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        bad_json = await http_request(
            server.port, "POST", "/disambiguate", None
        )
        bad_doc = await http_request(
            server.port,
            "POST",
            "/disambiguate",
            {"doc_id": "x", "mentions": []},  # no tokens, no text
        )
        missing = await http_request(server.port, "GET", "/nowhere")
        wrong_method = await http_request(
            server.port, "GET", "/disambiguate"
        )
        return bad_json, bad_doc, missing, wrong_method

    bad_json, bad_doc, missing, wrong_method = drive(server, driver)
    assert bad_json[0] == 400
    assert bad_doc[0] == 400
    assert "error" in bad_doc[1]
    assert missing[0] == 404
    assert wrong_method[0] == 405


def test_overload_returns_429_with_retry_after(kb, sample_docs):
    """With a tiny queue and a slow pipeline, concurrent clients beyond
    the bound get 429 + Retry-After while admitted ones complete."""
    import time

    class SlowPipeline(AidaDisambiguator):
        """Same constructor signature, so degraded rungs rebuild fine."""

        def disambiguate(self, document, **kwargs):
            time.sleep(0.05)
            return super().disambiguate(document, **kwargs)

    pipeline = SlowPipeline(kb)
    document = sample_docs[0].document
    server = make_server(
        pipeline,
        kb=kb,
        max_queue=2,
        batch_max_docs=1,
        workers=1,
        executor="serial",
    )

    async def driver(server):
        return await asyncio.gather(
            *(
                http_request(
                    server.port,
                    "POST",
                    "/disambiguate",
                    document_payload(document),
                )
                for _ in range(10)
            )
        )

    responses = drive(server, driver)
    statuses = sorted(status for status, _body, _headers in responses)
    assert statuses.count(200) >= 2  # admitted work completes
    assert 429 in statuses  # the bound rejected the rest
    assert set(statuses) <= {200, 429}
    for status, body, headers in responses:
        if status == 429:
            assert headers["retry-after"] == "1"
            assert body["max_queue"] == 2
            assert body["queue_depth"] >= body["max_queue"]


def test_jsonl_mode_preserves_input_order(serving_pipeline, kb, sample_docs):
    """The stdin-JSONL pump answers every line, in order, no sockets."""
    import io
    import json

    documents = [annotated.document for annotated in sample_docs[:5]]
    in_stream = io.StringIO(
        "".join(
            json.dumps(document_payload(doc)) + "\n" for doc in documents
        )
    )
    out_stream = io.StringIO()
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return await server.run_jsonl(in_stream, out_stream)

    served = drive(server, driver, listen=False)
    assert served == len(documents)
    lines = out_stream.getvalue().strip().splitlines()
    assert len(lines) == len(documents)
    for doc, line in zip(documents, lines):
        body = json.loads(line)
        assert body["doc_id"] == doc.doc_id
        assert body["attempts"] >= 1


def test_shutdown_answers_all_inflight_requests(
    serving_pipeline, kb, sample_docs
):
    """stop() drains the batcher: requests still queued at shutdown all
    resolve, none hang or error."""
    documents = [annotated.document for annotated in sample_docs[:4]]
    # One document per batch: a flush needs an executor round trip, so
    # at most one request can have left the queue when stop() runs.
    server = make_server(serving_pipeline, kb=kb, batch_max_docs=1)

    async def main():
        await server.start(listen=False)
        tasks = [
            asyncio.ensure_future(server.submit(doc)) for doc in documents
        ]
        await asyncio.sleep(0)  # let submits enter the batcher
        queued = server.batcher.pending
        await server.stop()
        return queued, await asyncio.gather(*tasks)

    queued, responses = asyncio.run(main())
    assert queued >= len(documents) - 1
    assert [r.result.doc_id for r in responses] == [
        doc.doc_id for doc in documents
    ]
    assert server.admission.depth == 0
    assert server.batcher.flush_counts["close"] >= queued


def test_prior_only_admission_with_exhausted_budget_answers_200(
    kb, sample_docs
):
    """Latency pressure degrades a request but never rejects it: a
    request shed to the floor rung runs without a deadline."""
    document = sample_docs[0].document
    server = make_server(
        BudgetHog(kb),
        kb=kb,
        slo_ms=100.0,
        robustness=RobustnessConfig(degrade=True, deadline_ms=100.0),
    )

    async def driver(server):
        server.admission.latencies.observe(10.0)  # p99 100x the SLO
        return await http_request(
            server.port, "POST", "/disambiguate", document_payload(document)
        )

    status, body, _headers = drive(server, driver)
    assert status == 200, body
    assert body["admitted_rung"] == "prior_only"
    assert (body["rung"], body["attempts"]) == ("prior_only", 1)
    assert body["assignments"]
