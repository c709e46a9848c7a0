"""Chaos in spawned process workers.

The fixture's picklable :class:`~tests.faults.chaos.ChaosFactory` builds
each worker's pipeline and installs the faults there, so chaos reaches
the spawned pools of :class:`~repro.core.batch.BatchRunner` and of the
serving front door.  With the relatedness backend permanently down,
every answer comes from the ``no_coherence`` rung, exactly as in
process, and no document is lost.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.batch import BatchConfig, BatchRunner
from repro.core.config import AidaConfig
from repro.core.spec import PipelineSpec
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.faults.resilient import (
    ResilientFactory,
    RobustnessConfig,
    make_resilient,
)
from repro.kb.io import save_knowledge_base
from repro.serving import DisambiguationServer, ServingConfig

from tests.faults.chaos import Chaos, ChaosFactory, Fault
from tests.serving.conftest import document_payload, drive, http_request

SEED = int(os.environ.get("CHAOS_BASE_SEED", "1307")) + 700

RELATEDNESS_DOWN = [Fault("relatedness", kind="permanent")]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A saved KB, its documents, and their in-process chaos rungs."""
    world = World.generate(WorldConfig(seed=SEED, clusters_per_domain=2))
    kb, _wiki = build_world_kb(world, seed=SEED + 94)
    kb_dir = str(tmp_path_factory.mktemp("chaos-process") / "kb")
    save_knowledge_base(kb, kb_dir)
    spec = PipelineSpec(AidaConfig.full(), kb_dir=kb_dir)
    generator = DocumentGenerator(world, seed=SEED + 55)
    cluster_ids = sorted(world.clusters)
    documents = [
        generator.generate(
            DocumentSpec(
                doc_id=f"proc-{index}",
                cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                num_mentions=4,
            )
        ).document
        for index in range(6)
    ]
    resilient = make_resilient(spec.build(), RobustnessConfig(degrade=True))
    with Chaos(resilient, RELATEDNESS_DOWN):
        rungs = [
            resilient.disambiguate(document).degradation_rung
            for document in documents
        ]
    return spec, documents, rungs


def test_in_process_rungs_are_all_no_coherence(world):
    """The reference the pools are held to: every document here needs
    coherence, so a dead relatedness backend degrades each one."""
    _spec, documents, rungs = world
    assert rungs == ["no_coherence"] * len(documents)


def test_batch_process_pool_degrades_every_document(world):
    spec, documents, rungs = world
    runner = BatchRunner(
        pipeline_factory=ResilientFactory(
            ChaosFactory(spec, RELATEDNESS_DOWN),
            RobustnessConfig(degrade=True),
        ),
        config=BatchConfig(workers=2, executor="process"),
    )
    runner.open()  # a spawned pool
    try:
        outcome = runner.run(documents)
    finally:
        runner.close()
    assert outcome.ok
    assert [r.doc_id for r in outcome.results] == [
        d.doc_id for d in documents
    ]
    assert [r.degradation_rung for r in outcome.results] == rungs
    assert all(r.attempts == 2 for r in outcome.results)


def test_serving_process_pool_degrades_every_answer(world):
    spec, documents, rungs = world
    server = DisambiguationServer(
        config=ServingConfig(
            port=0,
            executor="process",
            workers=2,
            batch_max_docs=4,
            slo_ms=60_000.0,
        ),
        robustness=RobustnessConfig(degrade=True),
        pipeline_factory=ChaosFactory(spec, RELATEDNESS_DOWN),
    )

    async def post_all(server):
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

    responses = drive(server, post_all)
    assert len(responses) == len(documents)  # no dropped connection
    for document, rung, (status, body, _headers) in zip(
        documents, rungs, responses
    ):
        assert status == 200, body
        assert body["doc_id"] == document.doc_id
        assert body["rung"] == rung
        assert body["assignments"]
        assert isinstance(body["request_id"], str) and body["request_id"]
