"""Differential: batch evaluation is bit-identical to the serial path.

``run_disambiguator`` with a :class:`BatchRunner` (any worker count, any
executor) must produce exactly the per-mention assignments, scores,
per-document counters and evaluation metrics of the plain serial loop —
parallelism and the shared relatedness cache are pure throughput
optimizations.

Cross-document isolation: one ``kore_lsh_g`` pipeline and its one
:class:`CachingRelatedness` memo, shared by 2 and by 4 threads over
seeded worlds in a seeded shuffled order, must answer every document
exactly as a fresh serial run does.  That exercises the LSH measure's
stateless stage two, the shared memo and the solver's per-call counters.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest

from repro.core.batch import BatchConfig, BatchRunner
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.core.spec import assemble_pipeline
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.eval.runner import run_disambiguator
from repro.relatedness import CachingRelatedness, MilneWittenRelatedness

LSH_WORLD_SEEDS = (1307, 2293, 4421)
LSH_DOCS_PER_WORLD = 24


def _comparable(result):
    """Everything order- and value-relevant: the assignments and the
    document's counters.  Timings are left out, and so is
    ``relatedness_computed``: which document first computes a pair
    depends on what the shared memo saw before it."""
    assignments = [
        (
            assignment.mention,
            assignment.entity,
            assignment.score,
            sorted(assignment.candidate_scores.items()),
        )
        for assignment in result.assignments
    ]
    counters = sorted(
        (key, value)
        for key, value in result.stats.counters.items()
        if key != "relatedness_computed"
    )
    return assignments, counters


def _cached_pipeline(kb):
    return AidaDisambiguator(
        kb,
        relatedness=CachingRelatedness(
            MilneWittenRelatedness(kb.links, max(kb.entity_count, 2))
        ),
    )


@pytest.fixture(scope="module")
def serial_run(kb, sample_docs):
    return run_disambiguator(AidaDisambiguator(kb), sample_docs, kb=kb)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_batch_bit_identical_to_serial(kb, sample_docs, serial_run, workers):
    """Thread-pool evaluation equals the serial loop for 1, 2, 8 workers."""
    batch_run = run_disambiguator(
        _cached_pipeline(kb), sample_docs, kb=kb, workers=workers
    )
    assert not batch_run.failures
    assert len(batch_run.results) == len(serial_run.results)
    for serial_result, batch_result in zip(
        serial_run.results, batch_run.results
    ):
        assert serial_result.doc_id == batch_result.doc_id
        assert _comparable(serial_result) == _comparable(batch_result)
    assert batch_run.micro == serial_run.micro
    assert batch_run.macro == serial_run.macro
    assert batch_run.map == serial_run.map
    assert batch_run.link_records == serial_run.link_records


def test_explicit_batch_runner_equals_workers_argument(
    kb, sample_docs, serial_run
):
    """Passing a pre-built BatchRunner behaves like the workers knob."""
    runner = BatchRunner(
        pipeline=_cached_pipeline(kb),
        config=BatchConfig(workers=4, executor="thread", max_pending=3),
    )
    batch_run = run_disambiguator(
        None, sample_docs, kb=kb, batch=runner
    )
    for serial_result, batch_result in zip(
        serial_run.results, batch_run.results
    ):
        assert _comparable(serial_result) == _comparable(batch_result)
    assert batch_run.micro == serial_run.micro


def _small_world_pipeline():
    """Module-level factory: picklable for the process-pool differential.

    Rebuilds the conftest world/KB (same seeds) inside each worker
    process — processes share nothing, so determinism must come from the
    seeds alone.
    """
    world = World.generate(WorldConfig(seed=7, clusters_per_domain=4))
    kb, _wiki = build_world_kb(world, seed=101)
    return AidaDisambiguator(kb)


def test_process_pool_bit_identical_to_serial(kb, sample_docs, serial_run):
    """Process workers rebuild the KB from seeds yet agree bit-for-bit."""
    runner = BatchRunner(
        pipeline_factory=_small_world_pipeline,
        config=BatchConfig(workers=2, executor="process"),
    )
    batch_run = run_disambiguator(
        None, sample_docs, kb=kb, batch=runner
    )
    assert not batch_run.failures
    for serial_result, batch_result in zip(
        serial_run.results, batch_run.results
    ):
        assert serial_result.doc_id == batch_result.doc_id
        assert _comparable(serial_result) == _comparable(batch_result)
    assert batch_run.micro == serial_run.micro
    assert batch_run.macro == serial_run.macro


class LshWorld:
    """One seeded world, its documents, and their fresh serial answers."""

    def __init__(self, seed: int):
        self.seed = seed
        world = World.generate(WorldConfig(seed=seed, clusters_per_domain=2))
        self.kb, _wiki = build_world_kb(world, seed=seed + 94)
        generator = DocumentGenerator(world, seed=seed + 55)
        cluster_ids = sorted(world.clusters)
        self.documents = [
            generator.generate(
                DocumentSpec(
                    doc_id=f"w{seed}-d{index}",
                    cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                    num_mentions=5,
                )
            ).document
            for index in range(LSH_DOCS_PER_WORLD)
        ]
        self.config = dataclasses.replace(
            AidaConfig.full(), relatedness_backend="kore_lsh_g"
        )
        fresh = AidaDisambiguator(self.kb, config=self.config)
        self.expected = {
            document.doc_id: _comparable(fresh.disambiguate(document))
            for document in self.documents
        }


@pytest.fixture(scope="module", params=LSH_WORLD_SEEDS)
def lsh_world(request) -> LshWorld:
    return LshWorld(request.param)


@pytest.mark.parametrize("workers", [2, 4])
def test_shared_pipeline_answers_each_document_as_a_fresh_run(
    lsh_world, workers
):
    """No document's answer or counters depend on what ran beside it."""
    shared = assemble_pipeline(lsh_world.kb, lsh_world.config)
    order = list(lsh_world.documents)
    random.Random(lsh_world.seed + workers).shuffle(order)
    runner = BatchRunner(
        pipeline=shared,
        config=BatchConfig(workers=workers, executor="thread"),
    )
    # Frequent thread switches make documents interleave mid-stage.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcome = runner.run(order)
    finally:
        sys.setswitchinterval(previous)
    assert not outcome.failures
    assert isinstance(shared.relatedness, CachingRelatedness)
    assert shared.relatedness.cache_stats().hits > 0
    for document, result in zip(order, outcome.results):
        assert result.doc_id == document.doc_id
        assert _comparable(result) == lsh_world.expected[document.doc_id]
