"""One pipeline description, one way to build it.

:meth:`PipelineSpec.build` is how the CLI, process workers and the
server get a pipeline, so a worker that unpickles its parent's spec
builds the parent's exact configuration.  Both model sources end in
:func:`assemble_pipeline`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.errors import ConfigurationError, KnowledgeBaseError
from repro.relatedness.lsh import (
    LshSettings,
    cached_sketch_export,
    lsh_geometry,
    store_sketch_export,
)
from repro.weights.model import WeightModel


@dataclass(frozen=True)
class PipelineSpec:
    """Everything a pipeline is built from: the complete config and
    exactly one source.  Calling a spec is :meth:`build`, so it is also
    a picklable pipeline factory.

    On a KB directory with an LSH backend, a build caches the whole-KB
    sketch table process-wide and a pickled spec carries it along, so
    later builds and (spawned or forked) workers skip stage one.
    """

    config: AidaConfig
    #: A saved KB directory (``repro generate-kb`` output) ...
    kb_dir: Optional[str] = None
    #: ... or a snapshot image (``repro snapshot build`` output).
    snapshot: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.kb_dir is None) == (self.snapshot is None):
            raise ConfigurationError(
                "a pipeline needs exactly one source: a KB directory or "
                "a snapshot image"
            )

    @property
    def source(self) -> str:
        """``kb:<dir>`` or ``snapshot:<path>`` (serving ``/stats``)."""
        if self.snapshot is not None:
            return f"snapshot:{self.snapshot}"
        return f"kb:{self.kb_dir}"

    def build(self) -> AidaDisambiguator:
        """Load the source and assemble the pipeline this spec names."""
        # The pipeline's own copy: mutating it cannot reach the spec.
        config = copy.deepcopy(self.config)
        key = self._sketch_key()
        if self.snapshot is not None:
            from repro.kb.snapshot import load_snapshot

            snapshot = load_snapshot(self.snapshot)
            kb, parts = snapshot.kb, snapshot.pipeline_parts(config)
        else:
            from repro.kb.io import load_knowledge_base

            kb = load_knowledge_base(self.kb_dir)
            parts = {"sketches": cached_sketch_export(*key) if key else None}
        pipeline = assemble_pipeline(kb, config, **parts)
        if key and parts["sketches"] is None:
            chain = pipeline._relatedness_chain()
            lsh = next(m for m in chain if hasattr(m, "export_sketches"))
            store_sketch_export(*key, lsh.export_sketches())
        return pipeline

    __call__ = build

    def _sketch_key(self) -> Optional[Tuple[str, LshSettings]]:
        """The (KB fingerprint, LSH geometry) keying this spec's sketch
        table; None unless a KB directory meets an LSH backend."""
        geometry = lsh_geometry(self.config.relatedness_backend)
        if self.kb_dir is None or geometry is None:
            return None
        from repro.kb.io import kb_fingerprint

        try:
            fingerprint = kb_fingerprint(self.kb_dir)
        except KnowledgeBaseError:
            return None
        return fingerprint, geometry[0]

    def __getstate__(self):
        key = self._sketch_key()
        table = cached_sketch_export(*key) if key else None
        return dict(self.__dict__, _sketches=(key, table) if table else None)

    def __setstate__(self, state) -> None:
        shipped = state.pop("_sketches", None)
        self.__dict__.update(state)
        if shipped and cached_sketch_export(*shipped[0]) is None:
            store_sketch_export(*shipped[0], shipped[1])


def assemble_pipeline(
    kb,
    config: AidaConfig,
    *,
    sketches=None,
    keyphrase_store=None,
    weight_model=None,
    compiled_keyphrases=None,
    embedding_model=None,
) -> AidaDisambiguator:
    """The assembly both sources share: the relatedness measure over
    *sketches* (an LSH table or None), which the pipeline wraps in its
    memo.  Models passed in (a snapshot's facades) are used as given;
    the rest are built from *kb* as the :class:`AidaDisambiguator`
    constructor does.
    """
    if keyphrase_store is None:
        keyphrase_store = kb.keyphrases
    if weight_model is None:
        weight_model = WeightModel(keyphrase_store, kb.links)
    relatedness = AidaDisambiguator.build_relatedness(
        kb,
        config,
        store=keyphrase_store,
        weights=weight_model,
        sketches=sketches,
    )
    return AidaDisambiguator(
        kb,
        relatedness=relatedness,
        config=config,
        keyphrase_store=keyphrase_store,
        weight_model=weight_model,
        compiled_keyphrases=compiled_keyphrases,
        embedding_model=embedding_model,
    )
