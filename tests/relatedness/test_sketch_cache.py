"""Regression: repeated serve/evaluate starts do not re-sketch the KB.

The latent pickle-wall asymmetry: every process-executor start used to
re-export the LSH sketch table (and every worker re-ran the KB-wide
stage-one pass) even when the on-disk KB had not changed.  A
:class:`~repro.core.spec.PipelineSpec` build over a KB directory now
caches the export process-wide by (KB fingerprint, LSH geometry), marked
``complete``, which short-circuits :meth:`KoreLshRelatedness.precompute`;
a pickled spec carries the table to its workers.  Asserted here via the
``relatedness.lsh.precompute_ms`` / ``relatedness.lsh.prepare_ms``
metric counts, which must not grow on the second start or worker spawn.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import AidaConfig
from repro.core.spec import PipelineSpec
from repro.kb.io import kb_fingerprint, save_knowledge_base
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.relatedness.caching import CachingRelatedness
from repro.relatedness.lsh import (
    CompleteSketches,
    KoreLshRelatedness,
    LshSettings,
    cached_sketch_export,
    clear_sketch_export_cache,
)


@pytest.fixture()
def kb_dir(kb, tmp_path):
    directory = str(tmp_path / "kb")
    save_knowledge_base(kb, directory)
    return directory


@pytest.fixture(autouse=True)
def metrics():
    clear_sketch_export_cache()
    previous = set_metrics(MetricsRegistry())
    yield get_metrics()
    set_metrics(previous)
    clear_sketch_export_cache()


def _spec(kb_dir: str) -> PipelineSpec:
    config = AidaConfig.full()
    config.relatedness_backend = "kore_lsh_g"
    return PipelineSpec(config, kb_dir=kb_dir)


def _cached_export(kb_dir: str):
    return cached_sketch_export(
        kb_fingerprint(kb_dir), LshSettings.recall_geared()
    )


def _lsh_counts(metrics):
    snapshot = metrics.snapshot()
    histograms = snapshot["histograms"]
    return {
        "precompute": histograms.get(
            "relatedness.lsh.precompute_ms", {}
        ).get("count", 0),
        "prepare": histograms.get("relatedness.lsh.prepare_ms", {}).get(
            "count", 0
        ),
        "sketched": snapshot["counters"].get(
            "relatedness.lsh.sketched", 0
        ),
    }


def test_second_start_reuses_the_cached_export(kb_dir, metrics):
    """Start #1 sketches the KB and publishes the export; start #2 finds
    it by fingerprint and does zero stage-one work."""
    spec = _spec(kb_dir)
    assert _cached_export(kb_dir) is None

    # -- first serve/evaluate start: pays the pass, caches the export.
    spec.build()
    exported = _cached_export(kb_dir)
    assert isinstance(exported, CompleteSketches)
    after_first = _lsh_counts(metrics)
    assert after_first["precompute"] >= 1
    assert after_first["sketched"] > 0

    # -- second start: the cache hit feeds the parent pipeline...
    spec.build()
    # ...and the export is the same object, not a re-export.
    assert _cached_export(kb_dir) is exported
    after_second = _lsh_counts(metrics)
    assert after_second["precompute"] == after_first["precompute"]
    assert after_second["sketched"] == after_first["sketched"]
    assert after_second["prepare"] == after_first["prepare"]


def test_cache_wrapped_start_publishes_the_export(kb_dir, metrics):
    """The export is found under the pipeline's memo, which wraps every
    pipeline's measure."""
    pipeline = _spec(kb_dir).build()
    assert isinstance(pipeline.relatedness, CachingRelatedness)
    assert isinstance(_cached_export(kb_dir), CompleteSketches)
    baseline = _lsh_counts(metrics)
    _spec(kb_dir).build()
    assert _lsh_counts(metrics) == baseline


def test_worker_spawn_with_complete_sketches_skips_the_pass(
    kb_dir, kb, metrics
):
    """A worker built from the pickled spec runs zero stage-one work — no
    precompute observation, no prepare, no sketches computed — even in a
    fresh process whose own export cache is empty (spawn, not fork)."""
    spec = _spec(kb_dir)
    spec.build()  # the parent start
    shipped = pickle.dumps(spec)  # what crosses the pickle wall
    baseline = _lsh_counts(metrics)

    clear_sketch_export_cache()  # a spawned worker starts with none
    worker_spec = pickle.loads(shipped)
    assert worker_spec == spec
    worker = worker_spec.build()  # what each pool process runs at spawn
    after_spawn = _lsh_counts(metrics)
    assert after_spawn == baseline, "worker spawn recomputed sketches"

    lsh = worker.relatedness.inner
    assert isinstance(lsh, KoreLshRelatedness)
    assert lsh.precompute() == 0  # complete table: guaranteed no-op

    # The worker still *works*: sketches resolve through the shared
    # table and stage two runs normally (which may observe prepare_ms —
    # that is per-request work, not spawn work).
    entities = sorted(kb.entity_ids())[:8]
    lsh.candidate_pairs(entities)
    assert _lsh_counts(metrics)["sketched"] == baseline["sketched"]


def test_incomplete_sketches_still_precompute():
    """A plain (incomplete) dict of sketches keeps the old behaviour —
    the KB-wide pass runs and fills the gaps."""
    from repro.relatedness.kore import KoreRelatedness
    from repro.weights.model import WeightModel
    from repro.datagen.stress import StressConfig, generate_stress_kb

    kb = generate_stress_kb(StressConfig(entities=30))
    store = kb.keyphrases
    weights = WeightModel(store, kb.links)
    measure = KoreLshRelatedness(
        store,
        KoreRelatedness(store, weights),
        LshSettings.recall_geared(),
        sketches={},
    )
    assert not measure._sketches_complete
    assert measure.precompute() == 30
    assert len(measure.export_sketches()) == 30
