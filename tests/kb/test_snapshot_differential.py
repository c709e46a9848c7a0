"""Differential: snapshot-backed pipelines are bit-identical to in-memory.

Twenty seeded synthetic worlds (override the base seed with
``SNAPSHOT_DIFF_BASE_SEED``): each is compiled into an mmap snapshot
image, and the snapshot-backed pipeline must reproduce the in-memory
pipeline exactly — same entities, same scores, same candidate score
tables.  A three-world subset crosses every relatedness backend (mw,
kore, kore_lsh_g, kore_lsh_f); the golden fixture corpus then runs the
full executor × backend grid (serial, thread pool, process pool) against
the session KB's snapshot.
"""

from __future__ import annotations

import os

import pytest

from repro.core.batch import BatchConfig, BatchRunner
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.core.spec import PipelineSpec
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.io import load_corpus
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.eval.runner import run_disambiguator
from repro.kb.snapshot import build_snapshot, load_snapshot

BASE_SEED = int(os.environ.get("SNAPSHOT_DIFF_BASE_SEED", "3100"))
WORLD_SEEDS = [BASE_SEED + i for i in range(20)]
CROSS_BACKEND_SEEDS = WORLD_SEEDS[:3]
BACKENDS = ("mw", "kore", "kore_lsh_g", "kore_lsh_f")

DOCS_PER_WORLD = 2
MENTIONS_PER_DOC = 4

GOLDEN_CORPUS = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    "fixtures",
    "golden",
    "corpus.jsonl",
)


def _comparable(result):
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


def _config(backend: str) -> AidaConfig:
    config = AidaConfig.full()
    config.relatedness_backend = backend
    return config


class SnapWorld:
    """One seeded world, its documents, and its snapshot image."""

    def __init__(self, seed: int, directory: str):
        self.seed = seed
        world = World.generate(
            WorldConfig(seed=seed, clusters_per_domain=2)
        )
        self.kb, _wiki = build_world_kb(world, seed=seed + 94)
        generator = DocumentGenerator(world, seed=seed + 55)
        cluster_ids = sorted(world.clusters)
        self.documents = [
            generator.generate(
                DocumentSpec(
                    doc_id=f"w{seed}-d{index}",
                    cluster_ids=[cluster_ids[index % len(cluster_ids)]],
                    num_mentions=MENTIONS_PER_DOC,
                )
            ).document
            for index in range(DOCS_PER_WORLD)
        ]
        self.path = os.path.join(directory, f"w{seed}.snap")
        build_snapshot(self.kb, self.path)
        self.snapshot = load_snapshot(self.path)


_WORLDS = {}


def _snap_world(seed: int, tmp_path_factory) -> SnapWorld:
    if seed not in _WORLDS:
        directory = str(tmp_path_factory.mktemp(f"snapdiff-{seed}"))
        _WORLDS[seed] = SnapWorld(seed, directory)
    return _WORLDS[seed]


@pytest.fixture(params=WORLD_SEEDS)
def snap_world(request, tmp_path_factory) -> SnapWorld:
    return _snap_world(request.param, tmp_path_factory)


@pytest.fixture(params=CROSS_BACKEND_SEEDS)
def cross_world(request, tmp_path_factory) -> SnapWorld:
    return _snap_world(request.param, tmp_path_factory)


def test_snapshot_bit_identical_per_world(snap_world):
    """Snapshot pipeline equals in-memory on every seeded world."""
    config = _config("mw")
    memory = AidaDisambiguator(snap_world.kb, config=_config("mw"))
    mapped = snap_world.snapshot.pipeline(config)
    for document in snap_world.documents:
        assert _comparable(mapped.disambiguate(document)) == _comparable(
            memory.disambiguate(document)
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_bit_identical_across_backends(cross_world, backend):
    """Every relatedness backend agrees on the cross-check worlds."""
    memory = AidaDisambiguator(cross_world.kb, config=_config(backend))
    mapped = cross_world.snapshot.pipeline(_config(backend))
    for document in cross_world.documents:
        assert _comparable(mapped.disambiguate(document)) == _comparable(
            memory.disambiguate(document)
        )


# ----------------------------------------------------------------------
# Golden corpus × executors × backends (session KB)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session_snapshot(kb, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("snapdiff-golden") / "kb.snap")
    build_snapshot(kb, path)
    snapshot = load_snapshot(path)
    yield snapshot, path
    snapshot.close()


@pytest.fixture(scope="module")
def golden_docs():
    return load_corpus(GOLDEN_CORPUS)


_BASELINES = {}


def _golden_baseline(kb, documents, backend):
    if backend not in _BASELINES:
        pipeline = AidaDisambiguator(kb, config=_config(backend))
        run = run_disambiguator(pipeline, documents, kb=kb)
        assert not run.failures
        _BASELINES[backend] = run
    return _BASELINES[backend]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("executor", ("serial", "thread", "process"))
def test_snapshot_golden_corpus_executor_grid(
    kb, golden_docs, session_snapshot, executor, backend
):
    """Golden corpus: every executor × backend equals the in-memory
    serial baseline, assignment for assignment."""
    snapshot, path = session_snapshot
    baseline = _golden_baseline(kb, golden_docs, backend)
    config = _config(backend)
    pipeline = snapshot.pipeline(config)
    if executor == "serial":
        run = run_disambiguator(
            pipeline, golden_docs, kb=snapshot.kb
        )
    elif executor == "thread":
        run = run_disambiguator(
            pipeline, golden_docs, kb=snapshot.kb, workers=4
        )
    else:
        runner = BatchRunner(
            pipeline_factory=PipelineSpec(config, snapshot=path),
            config=BatchConfig(workers=2, executor="process"),
        )
        run = run_disambiguator(
            pipeline, golden_docs, kb=snapshot.kb, batch=runner
        )
    assert not run.failures
    assert len(run.results) == len(baseline.results)
    for mapped_result, memory_result in zip(
        run.results, baseline.results
    ):
        assert mapped_result.doc_id == memory_result.doc_id
        assert _comparable(mapped_result) == _comparable(memory_result)
    assert run.micro == baseline.micro
    assert run.macro == baseline.macro
    assert run.map == baseline.map
