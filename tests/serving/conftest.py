"""Shared serving-test plumbing: pipelines, servers, HTTP clients.

Everything runs on loopback and ephemeral ports; the session-scoped KB
fixtures come from the repository-root ``conftest``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.faults.resilient import RobustnessConfig
from repro.serving import DisambiguationServer, ServingConfig


@pytest.fixture(scope="module")
def serving_pipeline(kb):
    """One shared full-config pipeline over the session KB."""
    return AidaDisambiguator(kb)


@pytest.fixture(scope="module")
def plain_documents(sample_docs):
    """The bare documents (mentions attached) of the annotated samples."""
    return [annotated.document for annotated in sample_docs]


def make_server(
    pipeline,
    kb=None,
    robustness: Optional[RobustnessConfig] = None,
    pipeline_factory=None,
    **overrides,
) -> DisambiguationServer:
    """A server with test-friendly defaults (ephemeral port, small batches).

    The default robustness enables degradation but arms no deadline, so
    differential assertions cannot be perturbed by slow CI machines.
    """
    defaults = dict(port=0, batch_max_docs=4, workers=2)
    defaults.update(overrides)
    if robustness is None:
        robustness = RobustnessConfig(degrade=True)
    return DisambiguationServer(
        pipeline,
        ServingConfig(**defaults),
        kb=kb,
        robustness=robustness,
        pipeline_factory=pipeline_factory,
    )


def drive(server: DisambiguationServer, driver, listen: bool = True):
    """Start *server*, run the async *driver(server)*, always stop."""

    async def main():
        await server.start(listen=listen)
        try:
            return await driver(server)
        finally:
            await server.stop()

    return asyncio.run(main())


async def http_request(
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict] = None,
    host: str = "127.0.0.1",
) -> Tuple[int, Dict, Dict[str, str]]:
    """One HTTP exchange against the loopback server.

    Returns ``(status, json_body, headers)``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
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
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = head_blob.decode("latin-1").splitlines()
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(body_blob), headers


def document_payload(document) -> Dict:
    """The explicit-mentions request payload for *document*."""
    return {
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


def comparable(result) -> List:
    """Everything order- and value-relevant, minus the timing stats."""
    return [
        (
            assignment.mention,
            assignment.entity,
            assignment.score,
            sorted(assignment.candidate_scores.items()),
        )
        for assignment in result.assignments
    ]
