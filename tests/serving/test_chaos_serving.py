"""Chaos serving: faults must degrade answers, not drop them.

Mirrors the regimes of ``tests/faults/test_chaos_differential.py`` but
drives the full serving path over loopback HTTP, with the chaos fixture
(``tests/faults/chaos.py``) installed on the server's pipeline: under
capped transient faults every connection gets an answer, degraded where
a fault hit and the fault-free one elsewhere; under a permanent backend
loss every connection still gets *an* answer, with the ladder rung
recorded in the response metadata.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.faults.resilient import DEGRADATION_LADDER

from tests.faults.chaos import Chaos, Fault
from tests.serving.conftest import (
    document_payload,
    drive,
    http_request,
    make_server,
)

SEED = int(os.environ.get("CHAOS_BASE_SEED", "1307")) + 400

#: Capped transient faults.  ``kb`` fires on the first call and is then
#: spent, so a ``prior_only`` attempt never faults.
TRANSIENT_FAULTS = [
    Fault("kb", rate=1.0, kind="transient", max_faults=1),
    Fault("relatedness", rate=0.3, kind="transient", max_faults=3),
    Fault("similarity", rate=0.25, kind="transient", max_faults=3),
]


@pytest.fixture(scope="module")
def chaos_setup():
    world = World.generate(WorldConfig(seed=SEED, clusters_per_domain=2))
    kb, _wiki = build_world_kb(world, seed=SEED + 94)
    generator = DocumentGenerator(world, seed=SEED + 55)
    cluster_ids = sorted(world.clusters)
    documents = [
        generator.generate(
            DocumentSpec(
                doc_id=f"chaos-{index}",
                cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                num_mentions=4,
            )
        ).document
        for index in range(6)
    ]
    pipeline = AidaDisambiguator(kb)
    baseline = {
        doc.doc_id: [
            (a.mention.surface, a.entity)
            for a in pipeline.disambiguate(doc).assignments
        ]
        for doc in documents
    }
    return kb, documents, baseline


async def _post_all(server, documents):
    return await asyncio.gather(
        *(
            http_request(
                server.port, "POST", "/disambiguate", document_payload(doc)
            )
            for doc in documents
        )
    )


def test_transient_faults_degrade_not_drop(chaos_setup):
    """Every connection is answered; a document a transient fault hit
    is degraded, every other one gets its fault-free assignments."""
    kb, documents, baseline = chaos_setup
    server = make_server(AidaDisambiguator(kb), kb=kb, max_queue=32)

    with Chaos(server.pipeline, TRANSIENT_FAULTS, seed=SEED) as chaos:
        responses = drive(server, lambda s: _post_all(s, documents))

    assert chaos.triggers["kb"].fired == 1
    assert len(responses) == len(documents)  # no dropped connections
    rungs = []
    for doc, (status, body, _headers) in zip(documents, responses):
        assert status == 200
        assert body["doc_id"] == doc.doc_id
        walked = DEGRADATION_LADDER.index(body["rung"]) - (
            DEGRADATION_LADDER.index(body["admitted_rung"])
        )
        assert body["attempts"] == walked + 1  # one attempt per rung
        if body["rung"] == "full":
            got = [(a["surface"], a["entity"]) for a in body["assignments"]]
            assert got == baseline[doc.doc_id]
        rungs.append(body["rung"])
    assert set(rungs) - {"full"}  # the kb fault degraded one document


def test_permanent_backend_loss_walks_the_ladder(chaos_setup):
    """A dead relatedness backend degrades every answer to a cheaper
    rung; nothing is dropped, nothing 500s."""
    kb, documents, _baseline = chaos_setup
    server = make_server(AidaDisambiguator(kb), kb=kb, max_queue=32)

    with Chaos(
        server.pipeline, [Fault("relatedness", kind="permanent")], seed=SEED
    ):
        responses = drive(server, lambda s: _post_all(s, documents))

    assert len(responses) == len(documents)
    for doc, (status, body, _headers) in zip(documents, responses):
        assert status == 200, body
        assert body["doc_id"] == doc.doc_id
        # Coherence needs relatedness, so "full" cannot have produced
        # the answer on documents whose solve touched the backend; the
        # ladder rung is surfaced per response either way.
        assert body["rung"] in ("full", "no_coherence", "prior_only")
        assert body["assignments"]  # an answer, not an error
    rungs = {body["rung"] for _status, body, _h in responses}
    assert rungs & {"no_coherence", "prior_only"}  # degradation happened
