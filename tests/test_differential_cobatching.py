"""Differential: randomized co-batching changes no served answer.

Documents go through :meth:`DisambiguationServer.submit` in seeded
random bursts: groups of random size submitted within one loop tick,
separated by random small gaps.  The work-conserving micro-batcher then
forms batches of varying size and membership — a burst leaves together
when the executor is free, or queues behind a busy one and joins the
next batch.  Every answer must equal the bare pipeline's exactly, on the
thread executor with 2 and 4 workers and on the serial executor, over
the ten seeded worlds of ``tests/test_differential_serving.py`` and the
session corpus.  Each run must have flushed batches of two or more
documents, or it would not exercise co-batching at all.
"""

from __future__ import annotations

import asyncio
import random
from typing import List

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.types import Document

from tests.serving.conftest import comparable, drive, make_server
from tests.test_differential_serving import WORLD_SEEDS, ServedWorld

#: (executor, workers) pairs every input is served on.
EXECUTORS = [("thread", 2), ("thread", 4), ("serial", 1)]

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


def assert_cobatched_answers_equal(
    kb, documents, baseline, executor, workers, seed
):
    rng = random.Random(seed)
    picks = [rng.randrange(len(documents)) for _ in range(STREAM)]
    server = make_server(
        AidaDisambiguator(kb),
        kb=kb,
        executor=executor,
        workers=workers,
        batch_max_docs=4,
    )

    async def driver(server):
        return await submit_in_bursts(
            server, [documents[pick] for pick in picks], rng
        )

    responses = drive(server, driver, listen=False)
    assert len(responses) == STREAM
    for pick, response in zip(picks, responses):
        assert response.result.doc_id == documents[pick].doc_id
        assert response.admitted_rung == "full"
        assert response.result.degradation_rung == "full"
        assert comparable(response.result) == baseline[pick]
    batcher = server.batcher
    assert batcher.items_flushed == STREAM
    flushes = sum(batcher.flush_counts.values())
    assert flushes < STREAM, "no batch carried two or more documents"


@pytest.fixture(scope="module", params=WORLD_SEEDS)
def served_world(request) -> ServedWorld:
    return ServedWorld(request.param)


@pytest.mark.parametrize(
    "executor,workers", EXECUTORS, ids=["thread2", "thread4", "serial"]
)
def test_cobatched_serving_bit_identical_per_world(
    served_world, executor, workers
):
    assert_cobatched_answers_equal(
        served_world.kb,
        served_world.documents,
        served_world.baseline,
        executor,
        workers,
        seed=served_world.seed,
    )


@pytest.mark.parametrize(
    "executor,workers", EXECUTORS, ids=["thread2", "thread4", "serial"]
)
def test_cobatched_serving_bit_identical_on_session_corpus(
    kb, sample_docs, executor, workers
):
    documents = [annotated.document for annotated in sample_docs]
    pipeline = AidaDisambiguator(kb)
    baseline = [
        comparable(pipeline.disambiguate(document))
        for document in documents
    ]
    assert_cobatched_answers_equal(
        kb, documents, baseline, executor, workers, seed=7
    )
