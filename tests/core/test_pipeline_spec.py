"""PipelineSpec: one picklable description, one way to build a pipeline.

Covers the value's own contract (exactly one source, the ``source``
string, pickle round trips, config ownership), that both sources build
the same pipeline through the one assembly path, and the degradation
rungs of a built pipeline: they come from
:meth:`AidaDisambiguator.with_config` and share every model of the base
pipeline — in particular a snapshot's embedded embedding matrices, which
rungs used to retrain on the first degraded or shed request.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.config import AidaConfig
from repro.core.spec import PipelineSpec
from repro.embeddings import EmbeddingConfig, train_embeddings
from repro.errors import ConfigurationError
from repro.faults import RobustnessConfig, make_resilient
from repro.kb.io import save_knowledge_base
from repro.kb.snapshot import build_snapshot
from repro.relatedness.caching import CachingRelatedness


@pytest.fixture(scope="module")
def kb_dir(kb, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("spec") / "kb")
    save_knowledge_base(kb, directory)
    return directory


@pytest.fixture(scope="module")
def snap_path(kb, tmp_path_factory):
    """An image with embedded embedding matrices (``emb/*`` sections)."""
    path = str(tmp_path_factory.mktemp("spec") / "kb.snap")
    build_snapshot(
        kb,
        path,
        embeddings=train_embeddings(kb, EmbeddingConfig(dim=16, seed=3)),
    )
    return path


def _comparable(result):
    return [
        (
            assignment.mention,
            assignment.entity,
            assignment.score,
            sorted(assignment.candidate_scores.items()),
        )
        for assignment in result.assignments
    ]


class TestValue:
    def test_needs_exactly_one_source(self, kb_dir, snap_path):
        config = AidaConfig.full()
        with pytest.raises(ConfigurationError, match="exactly one"):
            PipelineSpec(config)
        with pytest.raises(ConfigurationError, match="exactly one"):
            PipelineSpec(config, kb_dir=kb_dir, snapshot=snap_path)
        with pytest.raises(ConfigurationError, match="cache_size"):
            PipelineSpec(config, kb_dir=kb_dir, cache_size=-1)

    def test_source_names_the_source(self, kb_dir, snap_path):
        config = AidaConfig.full()
        assert PipelineSpec(config, kb_dir=kb_dir).source == f"kb:{kb_dir}"
        assert (
            PipelineSpec(config, snapshot=snap_path).source
            == f"snapshot:{snap_path}"
        )

    def test_frozen(self, kb_dir):
        spec = PipelineSpec(AidaConfig.full(), kb_dir=kb_dir)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.kb_dir = "elsewhere"

    @pytest.mark.parametrize("source", ("kb_dir", "snapshot"))
    def test_pickle_round_trip_is_equal(self, kb_dir, snap_path, source):
        config = dataclasses.replace(
            AidaConfig.sim_only(),
            relatedness_backend="kore_lsh_f",
            prerank_topk=5,
        )
        where = {"kb_dir": kb_dir, "snapshot": snap_path}[source]
        spec = PipelineSpec(
            config, cache_relatedness=True, cache_size=9, **{source: where}
        )
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert copy.source == spec.source

    def test_build_owns_its_config(self, kb_dir):
        spec = PipelineSpec(AidaConfig.full(), kb_dir=kb_dir)
        pipeline = spec.build()
        assert pipeline.config == spec.config
        assert pipeline.config is not spec.config
        pipeline.config.gamma = 0.1
        assert spec.config.gamma == AidaConfig.full().gamma


class TestBuild:
    @pytest.mark.parametrize("cache_size", (0, 64))
    def test_cache_setting_wraps_relatedness(self, snap_path, cache_size):
        pipeline = PipelineSpec(
            AidaConfig.full(),
            snapshot=snap_path,
            cache_relatedness=True,
            cache_size=cache_size,
        ).build()
        assert isinstance(pipeline.relatedness, CachingRelatedness)
        assert pipeline.relatedness.maxsize == (cache_size or None)

    @pytest.mark.parametrize("backend", ("mw", "kore_lsh_g"))
    def test_both_sources_build_the_same_pipeline(
        self, kb_dir, snap_path, sample_docs, backend
    ):
        config = dataclasses.replace(
            AidaConfig.full(), relatedness_backend=backend
        )
        from_dir = PipelineSpec(
            config, kb_dir=kb_dir, cache_relatedness=True
        ).build()
        from_image = PipelineSpec(
            config, snapshot=snap_path, cache_relatedness=True
        ).build()
        for annotated in sample_docs[:4]:
            assert _comparable(
                from_dir.disambiguate(annotated.document)
            ) == _comparable(from_image.disambiguate(annotated.document))

    def test_spec_is_its_own_factory(self, snap_path):
        spec = PipelineSpec(AidaConfig.full(), snapshot=snap_path)
        assert spec().config == spec.build().config


class TestDegradedRungs:
    @pytest.mark.parametrize("rung", ("no_coherence", "prior_only"))
    def test_rungs_share_the_base_models_and_train_nothing(
        self, snap_path, sample_docs, monkeypatch, rung
    ):
        """A snapshot's embedded matrices serve every rung: building a
        rung reuses the base pipeline's embeddings, compiled models and
        relatedness measure, and never calls the trainer."""
        config = dataclasses.replace(AidaConfig.full(), prerank_topk=8)
        base = PipelineSpec(config, snapshot=snap_path).build()
        assert base.embeddings is not None

        def no_training(*args, **kwargs):
            raise AssertionError("a degraded rung retrained embeddings")

        monkeypatch.setattr(
            "repro.embeddings.training.train_embeddings", no_training
        )
        robust = make_resilient(base, RobustnessConfig(degrade=True))
        pipeline = robust.pipeline_for(rung)
        assert pipeline is not base
        assert pipeline.config != base.config
        assert pipeline.embeddings is base.embeddings
        assert pipeline.compiled is base.compiled
        assert pipeline.relatedness is base.relatedness
        assert pipeline.store is base.store
        assert pipeline.weights is base.weights
        assert pipeline.kb is base.kb
        result = robust.disambiguate(
            sample_docs[0].document, start_rung=rung
        )
        assert result.degradation_rung == rung
