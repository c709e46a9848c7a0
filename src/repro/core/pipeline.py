"""The AIDA disambiguation pipeline (Chapter 3).

Stages, per document:

1. candidate retrieval for every mention via the KB dictionary;
1b. (optional) dense pre-ranking: each mention's pool is truncated to its
   top-K candidates by embedding cosine before any scoring runs
   (:mod:`repro.embeddings.prerank`);
2. keyphrase cover-matching similarity and popularity prior per candidate;
3. the prior robustness test decides per mention whether the prior enters
   the mention-entity edge weight;
4. the coherence robustness test pre-fixes mentions on which prior and
   similarity agree, keeping only the winning candidate;
5. the mention-entity graph is built (coherence edges only between entities
   that are candidates of different mentions), rescaled and γ-balanced;
6. the greedy dense-subgraph algorithm selects one entity per mention.

Each document is one pass: its context is indexed once, and its
coherence edges come from one ``coherence_edges`` call on the pipeline's
memo.  The graph lists mentions in span order, so answers do not depend
on the order of the mention list.

The pipeline also exposes the hooks Chapter 5 needs: restricting to a
mention subset, force-mapping mentions to chosen entities (both used by the
perturbation confidence assessors), injecting extra candidates (the
emerging-entity placeholders) and damping edge weights of selected entities
(the EE balance factor).
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compiled.keyphrases import CompiledKeyphrases
from repro.core.config import AidaConfig, PriorMode
from repro.core.robustness import passes_prior_test, should_fix_mention
from repro.faults.deadline import check_budget
from repro.graph.dense_subgraph import GreedyDenseSubgraph, SolverStats
from repro.graph.mention_entity_graph import MentionEntityGraph
from repro.kb.keyphrases import KeyphraseStore
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import get_metrics, get_tracer, log_event
from repro.relatedness.base import (
    EntityRelatedness,
    Pair,
    filtered_relatedness,
)
from repro.relatedness.caching import memoized
from repro.relatedness.milne_witten import MilneWittenRelatedness
from repro.similarity.context import DocumentContext
from repro.similarity.keyphrase_match import KeyphraseSimilarity
from repro.types import (
    Document,
    DisambiguationResult,
    EntityId,
    Mention,
    MentionAssignment,
    OUT_OF_KB,
)
from repro.utils.timing import PipelineStats, Stopwatch
from repro.weights.model import WeightModel

_LOG = logging.getLogger("repro.pipeline")

#: One document's coherence pass: the edge map and the filter survivors
#: (None when the measure compares every pair).
Coherence = Tuple[Dict[Pair, float], Optional[Set[Pair]]]


class AidaDisambiguator:
    """Joint named-entity disambiguation with robustness tests."""

    def __init__(
        self,
        kb: KnowledgeBase,
        relatedness: Optional[EntityRelatedness] = None,
        config: Optional[AidaConfig] = None,
        keyphrase_store: Optional[KeyphraseStore] = None,
        weight_model: Optional[WeightModel] = None,
        compiled_keyphrases=None,
        embedding_model=None,
    ):
        self.kb = kb
        self.config = config if config is not None else AidaConfig.full()
        self.store = (
            keyphrase_store if keyphrase_store is not None else kb.keyphrases
        )
        self.weights = (
            weight_model
            if weight_model is not None
            else WeightModel(self.store, kb.links)
        )
        #: The joint word/entity embedding model of the dense pre-ranker,
        #: or None when ``prerank_topk`` is unset.  An explicitly passed
        #: model (snapshot sections) wins; otherwise one is trained
        #: deterministically from the KB and shared across pipelines over
        #: the same KB object.
        self.embeddings = embedding_model
        if self.embeddings is None and self.config.needs_embeddings:
            from repro.embeddings import shared_model

            self.embeddings = shared_model(kb)
        #: The pipeline's one memo of exact pair values (shared with its
        #: rungs, and with a batch run that passes one in).
        self.relatedness = memoized(
            relatedness
            if relatedness is not None
            else self.build_relatedness(
                kb, self.config, store=self.store, weights=self.weights
            )
        )
        max_kp = self.config.max_keyphrases or None
        #: The shared compiled keyphrase model.  An explicitly passed
        #: model (a snapshot's, or a sibling rung's) wins; otherwise one
        #: is built here, and a failure to build it fails construction.
        self.compiled = compiled_keyphrases
        if self.compiled is None:
            self.compiled = CompiledKeyphrases(
                self.store,
                self.weights,
                scheme=self.config.keyword_weight_scheme,
                max_keyphrases=max_kp,
            )
        self.similarity = KeyphraseSimilarity(
            self.store,
            self.weights,
            weight_scheme=self.config.keyword_weight_scheme,
            max_keyphrases=max_kp,
            compiled=self.compiled,
        )
        self._attach_compiled_relatedness(self.compiled)
        #: Dense candidate pre-ranker, or None when ``prerank_topk`` is
        #: unset (the stage is then skipped entirely — not entered with
        #: a no-op — so the unpruned pipeline's stage list and stats are
        #: byte-for-byte unchanged).
        self.preranker = None
        if self.config.prerank_topk is not None:
            from repro.embeddings import DensePreRanker

            self.preranker = DensePreRanker(
                self.embeddings, self.config.prerank_topk
            )
        # Stage one of the LSH scheme runs offline over the whole KB (the
        # paper's precomputation); eager here so worker threads/processes
        # share the finished read-only sketch table.
        self._precompute_lsh_sketches()
        self._solver = GreedyDenseSubgraph(self.config.graph)

    def with_config(self, config: AidaConfig) -> "AidaDisambiguator":
        """This pipeline under another configuration (a degradation rung),
        sharing every model and the relatedness memo: nothing is rebuilt,
        retrained or recomputed."""
        return type(self)(
            self.kb,
            relatedness=self.relatedness,
            config=config,
            keyphrase_store=self.store,
            weight_model=self.weights,
            compiled_keyphrases=self.compiled,
            embedding_model=self.embeddings,
        )

    @staticmethod
    def build_relatedness(
        kb: KnowledgeBase,
        config: AidaConfig,
        store: Optional[KeyphraseStore] = None,
        weights: Optional[WeightModel] = None,
        sketches=None,
    ) -> EntityRelatedness:
        """The coherence measure ``config.relatedness_backend`` names.

        Shared by the pipeline constructor and
        :func:`repro.core.spec.assemble_pipeline`, which passes a
        precomputed *sketches* table so a build skips the KB-wide
        stage-one pass.
        """
        backend = config.relatedness_backend
        if backend == "mw":
            return MilneWittenRelatedness(
                kb.links, max(kb.entity_count, 2)
            )
        from repro.relatedness.kore import KoreRelatedness
        from repro.relatedness.lsh import KoreLshRelatedness, lsh_geometry

        store = store if store is not None else kb.keyphrases
        weights = (
            weights if weights is not None else WeightModel(store, kb.links)
        )
        kore = KoreRelatedness(store, weights)
        geometry = lsh_geometry(backend)
        if geometry is None:
            return kore
        settings, name = geometry
        return KoreLshRelatedness(
            store, kore, settings, name=name, sketches=sketches
        )

    def _relatedness_chain(self) -> List[EntityRelatedness]:
        """The measure plus every ``inner`` it wraps, outermost first."""
        chain: List[EntityRelatedness] = []
        measure = self.relatedness
        while measure is not None and measure not in chain:
            chain.append(measure)
            measure = getattr(measure, "inner", None)
        return chain

    def _attach_compiled_relatedness(self, compiled) -> None:
        """Point compilable measures (KORE, possibly inside the LSH
        wrapper) at the compiled models; others are untouched."""
        for measure in self._relatedness_chain():
            if (
                hasattr(measure, "attach_compiled")
                and getattr(measure, "compiled", None) is None
            ):
                measure.attach_compiled(compiled)

    def _precompute_lsh_sketches(self) -> None:
        """Run LSH stage one KB-wide for any LSH measure in the chain."""
        for measure in self._relatedness_chain():
            precompute = getattr(measure, "precompute", None)
            if callable(precompute):
                precompute()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def disambiguate(
        self,
        document: Document,
        restrict_to: Optional[Sequence[int]] = None,
        fixed: Optional[Mapping[int, EntityId]] = None,
        extra_candidates: Optional[Mapping[int, Sequence[EntityId]]] = None,
        entity_edge_factor: Optional[Mapping[EntityId, float]] = None,
    ) -> DisambiguationResult:
        """Disambiguate all (or a subset of) the document's mentions.

        Parameters
        ----------
        restrict_to:
            Mention indices to disambiguate; others are dropped from the
            problem (mention perturbation, Section 5.4.2).
        fixed:
            Mention index → entity to pin: the mention's candidate set
            becomes that single entity (entity perturbation, Section 5.4.3).
        extra_candidates:
            Mention index → additional candidate entities (the emerging-
            entity placeholders of Section 5.5.2).  They must have
            keyphrases in this pipeline's store to score.
        entity_edge_factor:
            Entity → multiplier applied to every graph edge incident to
            that entity after rescaling (the EE balance γ of Section 5.6).
        """
        mentions = list(document.mentions)
        active = self._active_indices(mentions, restrict_to)
        fixed = dict(fixed) if fixed else {}
        extra_candidates = dict(extra_candidates) if extra_candidates else {}
        watch = Stopwatch()
        tracer = get_tracer()
        debug = _LOG.isEnabledFor(logging.DEBUG)
        hits_before, misses_before = self.relatedness.thread_counts()

        def stage(name: str):
            return self._stage(
                watch, tracer, name, debug, document.doc_id
            )

        with tracer.span(
            "document",
            category="pipeline",
            doc_id=document.doc_id,
            mentions=len(active),
        ):
            with stage("candidate_retrieval"):
                candidates = self._collect_candidates(
                    document, mentions, active, fixed, extra_candidates
                )
            prerank_pruned: Optional[int] = None
            prerank_survived = 0
            if self.preranker is not None:
                with stage("prerank"):
                    protected = self.preranker.protected_sets(
                        self.kb, mentions, candidates, extra_candidates
                    )
                    candidates, prerank_pruned, prerank_survived = (
                        self.preranker.prune(
                            document, candidates, protected
                        )
                    )
            with stage("feature_computation"):
                features = self._compute_features(
                    document, mentions, active, candidates
                )
                edge_weights = self._edge_weights(features)
                if entity_edge_factor:
                    self._apply_entity_factors(
                        edge_weights, entity_edge_factor
                    )
            with stage("coherence_test"):
                pool = self._apply_coherence_test(
                    features, edge_weights, candidates
                )

            counters: Dict[str, object] = {
                "mentions": len(active),
                "candidates": sum(len(pool[index]) for index in active),
            }
            if prerank_pruned is not None:
                counters["prerank_pruned"] = prerank_pruned
                counters["prerank_survived"] = prerank_survived
            coherence: Optional[Coherence] = None
            pruned = 0  # pairs the measure's filter removed
            if self.config.use_coherence:
                with stage("graph_build"):
                    order, graph, coherence = self._build_graph(
                        mentions,
                        active,
                        pool,
                        edge_weights,
                        entity_edge_factor,
                    )
                entities = counters["graph_entities"] = graph.entity_count()
                if coherence[1] is not None:
                    pruned = entities * (entities - 1) // 2
                    pruned -= len(coherence[1])
                solver_stats = SolverStats()
                with stage("solve"):
                    local_assignment = self._solver.solve(
                        graph, solver_stats
                    )
                assignment = {
                    order[local]: entity_id
                    for local, entity_id in local_assignment.items()
                }
                for key, value in solver_stats.as_dict().items():
                    counters[f"solver_{key}"] = value
            else:
                with stage("solve"):
                    assignment = self._solve_local(
                        active, pool, edge_weights
                    )

            with stage("post_process"):
                result = self._build_result(
                    document,
                    mentions,
                    active,
                    candidates,
                    edge_weights,
                    assignment,
                    coherence,
                )
        hits, misses = self.relatedness.thread_counts()
        counters["relatedness_pairs"] = (
            hits + misses - hits_before - misses_before
        )
        counters["relatedness_computed"] = misses - misses_before
        counters["relatedness_pruned"] = pruned
        stats = PipelineStats.from_stopwatch(watch, counters)
        result.stats = stats
        self._publish_observations(stats, document.doc_id, debug)
        return result

    @staticmethod
    @contextmanager
    def _stage(
        watch: Stopwatch,
        tracer,
        name: str,
        debug: bool,
        doc_id: str,
    ):
        """One pipeline stage: a single clock read feeds the Stopwatch
        (``PipelineStats.phase_seconds``), the tracer span, and the
        per-stage debug event.  Stage entry is a cooperative deadline
        checkpoint (see :mod:`repro.faults.deadline`)."""
        check_budget(f"stage:{name}")
        start = time.perf_counter()
        with tracer.span(name, category="stage"):
            yield
        elapsed = time.perf_counter() - start
        watch.record(name, elapsed)
        if debug:
            log_event(
                _LOG,
                "pipeline.stage",
                stage=name,
                doc_id=doc_id,
                seconds=elapsed,
            )

    def _publish_observations(
        self, stats: PipelineStats, doc_id: str, debug: bool
    ) -> None:
        """Fold this document's stats into the global metrics registry."""
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("pipeline.documents").inc()
            metrics.counter("pipeline.mentions").inc(
                int(stats.counters.get("mentions", 0))
            )
            metrics.counter("pipeline.candidates").inc(
                int(stats.counters.get("candidates", 0))
            )
            if "prerank_pruned" in stats.counters:
                metrics.counter("pipeline.prerank.pruned").inc(
                    int(stats.counters["prerank_pruned"])
                )
                metrics.counter("pipeline.prerank.survived").inc(
                    int(stats.counters["prerank_survived"])
                )
            computed = int(stats.counters["relatedness_computed"])
            metrics.counter("relatedness.cache.hits").inc(
                int(stats.counters["relatedness_pairs"]) - computed
            )
            metrics.counter("relatedness.cache.misses").inc(computed)
            metrics.gauge("relatedness.cache.size").set(
                self.relatedness.size
            )
            metrics.histogram("pipeline.document.seconds").observe(
                stats.total_seconds
            )
            for phase, seconds in stats.phase_seconds.items():
                metrics.histogram(
                    f"pipeline.stage.{phase}.seconds"
                ).observe(seconds)
        if debug:
            log_event(
                _LOG,
                "pipeline.document",
                doc_id=doc_id,
                mentions=stats.counters.get("mentions", 0),
                candidates=stats.counters.get("candidates", 0),
                seconds=stats.total_seconds,
            )

    # ------------------------------------------------------------------
    # Candidate retrieval
    # ------------------------------------------------------------------
    @staticmethod
    def _active_indices(
        mentions: Sequence[Mention], restrict_to: Optional[Sequence[int]]
    ) -> List[int]:
        if restrict_to is None:
            return list(range(len(mentions)))
        return sorted(set(restrict_to))

    def _collect_candidates(
        self,
        document: Document,
        mentions: Sequence[Mention],
        active: Sequence[int],
        fixed: Mapping[int, EntityId],
        extra: Mapping[int, Sequence[EntityId]],
    ) -> Dict[int, List[EntityId]]:
        restrictions: Mapping[int, List[EntityId]] = {}
        if self.config.use_name_coreference:
            from repro.ner.coref import coreference_candidate_restriction

            restrictions = coreference_candidate_restriction(
                document, self.kb.candidates
            )
        candidates: Dict[int, List[EntityId]] = {}
        for index in active:
            if index in fixed:
                candidates[index] = [fixed[index]]
                continue
            surface = mentions[index].surface
            if index in restrictions:
                found = list(restrictions[index])
            else:
                found = list(self.kb.candidates(surface))
            for entity_id in extra.get(index, ()):
                if entity_id not in found:
                    found.append(entity_id)
            candidates[index] = sorted(found)
        return candidates

    # ------------------------------------------------------------------
    # Feature computation
    # ------------------------------------------------------------------
    def _compute_features(
        self,
        document: Document,
        mentions: Sequence[Mention],
        active: Sequence[int],
        candidates: Mapping[int, List[EntityId]],
    ) -> Dict[int, Tuple[Dict[EntityId, float], Dict[EntityId, float]]]:
        """Per mention: (prior distribution, normalized similarity scores).

        Similarity is normalized per mention by its maximum so it becomes
        commensurable with the prior probability inside the linear edge
        combination; the graph rescales both families again afterwards.

        The document is indexed once; each mention scores against the
        index's ``masked`` view, without the mention's own tokens.

        Under the pure prior baseline (``PriorMode.ONLY`` without
        coherence) similarity scores are never consumed — neither by the
        edge weights nor by the coherence test — so their computation is
        skipped entirely.  That makes the ``prior_only`` degradation rung
        genuinely cheaper and independent of the similarity subsystem.
        """
        needs_similarity = (
            self.config.prior_mode is not PriorMode.ONLY
            or self.config.use_coherence
        )
        features: Dict[
            int, Tuple[Dict[EntityId, float], Dict[EntityId, float]]
        ] = {}
        indexed = None
        for index in active:
            pool = candidates[index]
            if not pool:
                features[index] = ({}, {})
                continue
            sims: Dict[EntityId, float] = {}
            if needs_similarity:
                if indexed is None:
                    indexed = self.similarity.index(
                        DocumentContext(document)
                    )
                view = indexed.masked(mentions[index])
                sims = self.similarity.simscores(view, pool)
                if self.config.normalize_similarity:
                    max_sim = max(sims.values()) if sims else 0.0
                    if max_sim > 0.0:
                        sims = {
                            eid: s / max_sim for eid, s in sims.items()
                        }
            priors = {
                eid: self.kb.prior(mentions[index].surface, eid)
                for eid in pool
            }
            features[index] = (priors, sims)
        return features

    def _edge_weights(
        self,
        features: Mapping[
            int, Tuple[Dict[EntityId, float], Dict[EntityId, float]]
        ],
    ) -> Dict[int, Dict[EntityId, float]]:
        """Mention-entity edge weights under the configured prior mode."""
        mode = self.config.prior_mode
        mix = self.config.prior_mix
        weights: Dict[int, Dict[EntityId, float]] = {}
        for index, (priors, sims) in features.items():
            pool = set(priors) | set(sims)
            if mode is PriorMode.ONLY:
                weights[index] = {
                    eid: priors.get(eid, 0.0) for eid in pool
                }
                continue
            use_prior = mode is PriorMode.ALWAYS or (
                mode is PriorMode.TEST
                and passes_prior_test(priors, self.config.prior_threshold)
            )
            if use_prior:
                weights[index] = {
                    eid: mix * priors.get(eid, 0.0)
                    + (1.0 - mix) * sims.get(eid, 0.0)
                    for eid in pool
                }
            else:
                weights[index] = {eid: sims.get(eid, 0.0) for eid in pool}
        return weights

    @staticmethod
    def _apply_entity_factors(
        edge_weights: Dict[int, Dict[EntityId, float]],
        factors: Mapping[EntityId, float],
    ) -> None:
        """Multiply mention-entity weights of selected entities (the EE
        balance γ of Section 5.6) — applied in both inference modes."""
        for weights in edge_weights.values():
            for entity_id, factor in factors.items():
                if entity_id in weights:
                    weights[entity_id] *= factor

    def _apply_coherence_test(
        self,
        features: Mapping[
            int, Tuple[Dict[EntityId, float], Dict[EntityId, float]]
        ],
        edge_weights: Mapping[int, Dict[EntityId, float]],
        candidates: Mapping[int, List[EntityId]],
    ) -> Dict[int, List[EntityId]]:
        """Fix agreeing mentions to their local winner (Section 3.5.2)."""
        pool: Dict[int, List[EntityId]] = {
            index: list(cands) for index, cands in candidates.items()
        }
        if not (self.config.use_coherence and self.config.use_coherence_test):
            return pool
        for index, cands in pool.items():
            if len(cands) <= 1:
                continue
            priors, sims = features[index]
            if should_fix_mention(
                priors, sims, self.config.coherence_threshold
            ):
                winner = max(
                    cands,
                    key=lambda eid: (edge_weights[index].get(eid, 0.0), eid),
                )
                pool[index] = [winner]
        return pool

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _solve_local(
        self,
        active: Sequence[int],
        pool: Mapping[int, List[EntityId]],
        edge_weights: Mapping[int, Dict[EntityId, float]],
    ) -> Dict[int, EntityId]:
        """Mention-by-mention argmax (no coherence)."""
        assignment: Dict[int, EntityId] = {}
        for index in active:
            cands = pool[index]
            if not cands:
                continue
            assignment[index] = max(
                cands,
                key=lambda eid: (edge_weights[index].get(eid, 0.0), eid),
            )
        return assignment

    def _build_graph(
        self,
        mentions: Sequence[Mention],
        active: Sequence[int],
        pool: Mapping[int, List[EntityId]],
        edge_weights: Mapping[int, Dict[EntityId, float]],
        entity_edge_factor: Optional[Mapping[EntityId, float]],
    ) -> Tuple[List[int], MentionEntityGraph, Coherence]:
        """The mention indices in graph (span) order, the graph, and the
        document's coherence pass.  Span order makes the solver's
        tie-breaks independent of the mention list order."""
        order = sorted(
            active,
            key=lambda index: (mentions[index].start, mentions[index].end),
        )
        graph = MentionEntityGraph([mentions[i] for i in order])
        entity_mentions: Dict[EntityId, Set[int]] = {}
        for local, original in enumerate(order):
            for entity_id in pool[original]:
                graph.add_mention_entity_edge(
                    local,
                    entity_id,
                    edge_weights[original].get(entity_id, 0.0),
                )
                entity_mentions.setdefault(entity_id, set()).add(local)
        # Candidates of one and the same single mention are mutually
        # exclusive: no coherence edge between them (Section 4.6.4).
        sole_mention = {
            entity_id: next(iter(of_entity))
            for entity_id, of_entity in entity_mentions.items()
            if len(of_entity) == 1
        }
        coherence = self.relatedness.coherence_edges(
            entity_mentions, sole_mention
        )
        for (a, b), weight in coherence[0].items():
            if weight > 0.0:
                graph.add_entity_entity_edge(a, b, weight)
        graph.rescale_and_balance(self.config.gamma)
        if entity_edge_factor:
            self._dampen_entities(graph, entity_edge_factor)
        return order, graph, coherence

    @staticmethod
    def _dampen_entities(
        graph: MentionEntityGraph, factors: Mapping[EntityId, float]
    ) -> None:
        """Dampen coherence edges of selected entities.  Mention-entity
        weights were already dampened before graph construction, so only
        the entity-entity family is touched here."""
        active = set(graph.active_entities())
        for entity_id, factor in sorted(factors.items()):
            if entity_id not in active:
                continue
            for other in graph.ee_neighbors(entity_id):
                graph.add_entity_entity_edge(
                    entity_id,
                    other,
                    graph.ee_weight(entity_id, other) * factor,
                )

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _build_result(
        self,
        document: Document,
        mentions: Sequence[Mention],
        active: Sequence[int],
        candidates: Mapping[int, List[EntityId]],
        edge_weights: Mapping[int, Dict[EntityId, float]],
        assignment: Mapping[int, EntityId],
        coherence: Optional[Coherence],
    ) -> DisambiguationResult:
        chosen_by_index = dict(assignment)
        assignments: List[MentionAssignment] = []
        for index in active:
            mention = mentions[index]
            pool = candidates[index]
            if not pool:
                assignments.append(
                    MentionAssignment(
                        mention=mention, entity=OUT_OF_KB, score=0.0
                    )
                )
                continue
            chosen = chosen_by_index.get(index)
            if chosen is None:
                chosen = max(
                    pool,
                    key=lambda eid: (edge_weights[index].get(eid, 0.0), eid),
                )
            scores = self._candidate_scores(
                index, pool, edge_weights, chosen_by_index, coherence
            )
            assignments.append(
                MentionAssignment(
                    mention=mention,
                    entity=chosen,
                    score=scores.get(chosen, 0.0),
                    candidate_scores=scores,
                )
            )
        return DisambiguationResult(
            doc_id=document.doc_id, assignments=assignments
        )

    def _candidate_scores(
        self,
        index: int,
        pool: Sequence[EntityId],
        edge_weights: Mapping[int, Dict[EntityId, float]],
        assignment: Mapping[int, EntityId],
        coherence: Optional[Coherence],
    ) -> Dict[EntityId, float]:
        """Weighted-degree scores for every candidate of a mention.

        The score combines the mention-entity edge weight with the
        candidate's coherence to the entities *chosen* for the other
        mentions — the "weighted-degree" score that the confidence
        assessors of Section 5.4 normalize.
        """
        others = sorted(
            {
                entity_id
                for other_index, entity_id in assignment.items()
                if other_index != index
            }
        )
        scores: Dict[EntityId, float] = {}
        for entity_id in pool:
            score = edge_weights[index].get(entity_id, 0.0)
            if coherence is not None:
                score += self.config.gamma * sum(
                    self._pair_value(coherence, entity_id, other)
                    for other in others
                    if other != entity_id
                )
            scores[entity_id] = score
        return scores

    def _pair_value(
        self, coherence: Coherence, a: EntityId, b: EntityId
    ) -> float:
        """The pair's coherence edge; a pair missing there (a candidate
        the coherence test removed, or two of one mention) goes through
        the memo unless the measure's filter removed it (0.0)."""
        edges, survivors = coherence
        value = edges.get((a, b) if a <= b else (b, a))
        if value is None:
            value = filtered_relatedness(self.relatedness, survivors, a, b)
        return value
