"""Differential: randomized co-batching changes no served answer.

Documents go through :meth:`DisambiguationServer.submit` in seeded
random bursts: groups of random size submitted within one loop tick,
separated by random small gaps.  The work-conserving micro-batcher then
forms batches of varying size and membership — a burst leaves together
when the executor is free, or queues behind a busy one and joins the
next batch.  Admission grants each request a seeded random rung of the
degradation ladder, so one batch mixes rungs.  Every answer must equal
the bare in-process pipeline's at its admitted rung, exactly: on the
thread executor with 2 and 4 workers and on the serial executor, over
the ten seeded worlds of ``tests/test_differential_serving.py`` and the
session corpus; and on the process executor with 2 spawned workers
building from a :class:`PipelineSpec` over the saved KB, on the session
corpus and two of the worlds (spawned pools are slow).  Each run must
have flushed batches of two or more documents, or it would not exercise
co-batching at all.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List

import pytest

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.core.spec import PipelineSpec
from repro.faults import DEGRADATION_LADDER, RobustnessConfig, make_resilient
from repro.kb.io import save_knowledge_base
from repro.types import Document

from tests.serving.conftest import comparable, drive, make_server
from tests.test_differential_serving import WORLD_SEEDS, ServedWorld

#: (executor, workers) pairs every input is served on.
EXECUTORS = [("thread", 2), ("thread", 4), ("serial", 1)]

#: The worlds the process executor serves.
PROCESS_WORLD_SEEDS = WORLD_SEEDS[:2]

#: Submissions per run, drawn with repetition from the input documents.
STREAM = 24

MAX_BURST = 6


async def submit_in_bursts(server, documents: List[Document], rng):
    """Submit *documents* in order as random bursts; responses in order."""
    tasks = []
    start = 0
    while start < len(documents):
        size = rng.randint(1, MAX_BURST)
        for document in documents[start : start + size]:
            tasks.append(asyncio.ensure_future(server.submit(document)))
        start += size
        gap = rng.choice(("none", "ticks", "sleep"))
        if gap == "ticks":
            for _ in range(rng.randint(1, 4)):
                await asyncio.sleep(0)
        elif gap == "sleep":
            await asyncio.sleep(rng.uniform(0.0, 0.003))
    return await asyncio.gather(*tasks)


def rung_baselines(kb, documents) -> Dict[str, List]:
    """rung -> the in-process answer of every document started there."""
    pipeline = make_resilient(
        AidaDisambiguator(kb), RobustnessConfig(degrade=True)
    )
    return {
        rung: [
            comparable(pipeline.disambiguate(document, start_rung=rung))
            for document in documents
        ]
        for rung in DEGRADATION_LADDER
    }


def grant_random_rungs(server, rng) -> None:
    """Admit through the real controller, so its slot accounting holds,
    then grant a seeded random rung of the ladder instead of its
    verdict."""
    admit = server.admission.admit

    def admit_at_random_rung():
        admit()
        return rng.choice(DEGRADATION_LADDER)

    server.admission.admit = admit_at_random_rung


def assert_cobatched_answers_equal(server, documents, baselines, seed):
    rng = random.Random(seed)
    picks = [rng.randrange(len(documents)) for _ in range(STREAM)]
    grant_random_rungs(server, rng)

    async def driver(server):
        return await submit_in_bursts(
            server, [documents[pick] for pick in picks], rng
        )

    responses = drive(server, driver, listen=False)
    assert len(responses) == STREAM
    for pick, response in zip(picks, responses):
        rung = response.admitted_rung
        assert response.result.doc_id == documents[pick].doc_id
        assert response.result.degradation_rung == rung
        assert comparable(response.result) == baselines[rung][pick]
    assert len({response.admitted_rung for response in responses}) > 1
    batcher = server.batcher
    assert batcher.items_flushed == STREAM
    flushes = sum(batcher.flush_counts.values())
    assert flushes < STREAM, "no batch carried two or more documents"


def in_process_server(kb, executor, workers):
    return make_server(
        AidaDisambiguator(kb),
        kb=kb,
        executor=executor,
        workers=workers,
        batch_max_docs=4,
    )


def process_server(kb, kb_dir):
    """Two spawned workers, each building its pipeline from the spec."""
    save_knowledge_base(kb, kb_dir)
    return make_server(
        None,
        pipeline_factory=PipelineSpec(AidaConfig.full(), kb_dir=kb_dir),
        executor="process",
        workers=2,
        batch_max_docs=4,
    )


@pytest.fixture(scope="module", params=WORLD_SEEDS)
def served_world(request) -> ServedWorld:
    return ServedWorld(request.param)


@pytest.fixture(scope="module")
def session_corpus(kb, sample_docs):
    documents = [annotated.document for annotated in sample_docs]
    return documents, rung_baselines(kb, documents)


@pytest.mark.parametrize(
    "executor,workers", EXECUTORS, ids=["thread2", "thread4", "serial"]
)
def test_cobatched_serving_bit_identical_per_world(
    served_world, executor, workers
):
    baselines = rung_baselines(served_world.kb, served_world.documents)
    assert baselines["full"] == served_world.baseline
    assert_cobatched_answers_equal(
        in_process_server(served_world.kb, executor, workers),
        served_world.documents,
        baselines,
        seed=served_world.seed,
    )


@pytest.mark.parametrize(
    "executor,workers", EXECUTORS, ids=["thread2", "thread4", "serial"]
)
def test_cobatched_serving_bit_identical_on_session_corpus(
    kb, session_corpus, executor, workers
):
    documents, baselines = session_corpus
    assert_cobatched_answers_equal(
        in_process_server(kb, executor, workers),
        documents,
        baselines,
        seed=7,
    )


@pytest.mark.parametrize("served_world", PROCESS_WORLD_SEEDS, indirect=True)
def test_cobatched_process_serving_bit_identical_per_world(
    served_world, tmp_path
):
    assert_cobatched_answers_equal(
        process_server(served_world.kb, str(tmp_path / "kb")),
        served_world.documents,
        rung_baselines(served_world.kb, served_world.documents),
        seed=served_world.seed,
    )


def test_cobatched_process_serving_bit_identical_on_session_corpus(
    kb, session_corpus, tmp_path
):
    documents, baselines = session_corpus
    assert_cobatched_answers_equal(
        process_server(kb, str(tmp_path / "kb")),
        documents,
        baselines,
        seed=7,
    )
