"""Serving from a PipelineSpec.

* ``executor="process"`` keeps one process pool from ``start()`` to
  ``stop()``: micro-batches of any size — one-document batches included
  — run in that pool, so each worker builds its pipeline exactly once,
  and the server process builds exactly one (introspection) pipeline.
* ``/stats`` reports the spec's ``source`` under every executor.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import AidaConfig
from repro.core.spec import PipelineSpec
from repro.faults import RobustnessConfig
from repro.kb.io import save_knowledge_base
from repro.kb.snapshot import build_snapshot
from repro.serving import DisambiguationServer, ServingConfig

from tests.serving.conftest import comparable, drive, http_request


@pytest.fixture(scope="module")
def sources(kb, tmp_path_factory):
    root = tmp_path_factory.mktemp("spec-serving")
    kb_dir = str(root / "kb")
    save_knowledge_base(kb, kb_dir)
    snap_path = str(root / "kb.snap")
    build_snapshot(kb, snap_path)
    return {"kb_dir": kb_dir, "snapshot": snap_path}


class _LoggedSpec:
    """A spec that appends the building process's pid to a file on
    every build; picklable, so pool workers log too."""

    def __init__(self, spec: PipelineSpec, log_path: str):
        self.spec = spec
        self.log_path = log_path

    @property
    def source(self) -> str:
        return self.spec.source

    def __call__(self):
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return self.spec.build()


def _server(factory, executor: str) -> DisambiguationServer:
    return DisambiguationServer(
        config=ServingConfig(
            port=0,
            executor=executor,
            workers=2,
            batch_max_docs=4,
            batch_window_ms=20.0,
            slo_ms=60_000.0,
        ),
        robustness=RobustnessConfig(degrade=True),
        pipeline_factory=factory,
    )


def test_process_serving_builds_each_pipeline_once(
    sources, sample_docs, tmp_path
):
    spec = PipelineSpec(AidaConfig.full(), snapshot=sources["snapshot"])
    log_path = tmp_path / "builds.log"
    server = _server(_LoggedSpec(spec, str(log_path)), "process")
    documents = [annotated.document for annotated in sample_docs]
    sizes = (1, 3, 1, 2, 4, 1, 1)
    groups, start = [], 0
    for size in sizes:
        groups.append(
            [documents[(start + i) % len(documents)] for i in range(size)]
        )
        start += size

    async def driver(server):
        responses = []
        for group in groups:
            responses += await server.process(group, concurrency=len(group))
        return responses

    responses = drive(server, driver, listen=False)
    builds = [int(pid) for pid in log_path.read_text().split()]
    worker_builds = [pid for pid in builds if pid != os.getpid()]
    assert builds.count(os.getpid()) == 1  # the introspection pipeline
    assert len(worker_builds) == len(set(worker_builds))
    assert 1 <= len(worker_builds) <= 2

    direct = spec.build()
    sent = [document for group in groups for document in group]
    assert len(responses) == len(sent)
    for response, document in zip(responses, sent):
        assert response.result.doc_id == document.doc_id
        assert response.result.degradation_rung == "full"
        assert comparable(response.result) == comparable(
            direct.disambiguate(document)
        )


@pytest.mark.parametrize("source", ("kb_dir", "snapshot"))
@pytest.mark.parametrize("executor", ("serial", "thread", "process"))
def test_stats_reports_the_spec_source(sources, source, executor):
    spec = PipelineSpec(AidaConfig.full(), **{source: sources[source]})
    server = _server(spec, executor)

    async def driver(server):
        return await http_request(server.port, "GET", "/stats")

    status, stats, _headers = drive(server, driver)
    assert status == 200
    assert stats["pipeline_source"] == spec.source
    prefix = "kb" if source == "kb_dir" else "snapshot"
    assert stats["pipeline_source"] == f"{prefix}:{sources[source]}"


def test_ready_built_pipeline_reports_memory(serving_pipeline):
    server = DisambiguationServer(serving_pipeline)
    assert server.pipeline_source == "memory"
