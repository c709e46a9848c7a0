"""The three fixed workloads, generated from the workload seed.

Every constant here is frozen: a change to one is a change to the
benchmark, not to the program.  The seed varies only which documents are
drawn; the worlds, KBs and configurations stay fixed, so two seeds cost
about the same.  All frozen constants are echoed into each result's
provenance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.core.config import AidaConfig
from repro.datagen.conll import (
    TESTA_SIZE,
    TESTB_SIZE,
    TRAIN_SIZE,
    ConllConfig,
    generate_conll,
)
from repro.datagen.stress import StressConfig, generate_stress_kb
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.types import Annotation, AnnotatedDocument, Document, Mention

WORKLOADS = ("conll-batch", "pool40-prerank", "serve-http")

#: The default workload seed, and a second one reserved for confirming a
#: claim on inputs it was not tuned on.
DEFAULT_SEED = 1
CONFIRM_SEED = 2

# ----------------------------------------------------------------------
# conll-batch: the calibrated benchmark world (the same settings as
# benchmarks.common.BENCH_WORLD_CONFIG) at the paper's full split.
# ----------------------------------------------------------------------
CONLL_WORLD = dict(
    seed=7,
    clusters_per_domain=8,
    family_sharing=0.7,
    title_place_collision=0.45,
    topic_vocabulary_size=20,
    first_name_pool=18,
    family_name_pool=45,
    place_name_pool=40,
    title_word_pool=50,
)
CONLL_KB_SEED = 101
CONLL_CORPUS = dict(scale=1.0, heterogeneous_fraction=0.25, context_prob=0.45)
CONLL_RELATEDNESS = "kore_lsh_g"

# ----------------------------------------------------------------------
# pool40-prerank: the stress KB with 40-candidate pools.
# ----------------------------------------------------------------------
POOL_STRESS = dict(
    entities=1600, seed=17, candidate_pool=40, ambiguous_fraction=0.0
)
POOL_MENTIONS_PER_DOC = 6
POOL_CONTEXT_WORDS = 9
POOL_TOPK = 8
POOL_RELATEDNESS = "mw"
#: Documents per round; a run repeats the round.
POOL_ROUND_DOCS = 200

# ----------------------------------------------------------------------
# Both batch workloads.
# ----------------------------------------------------------------------
#: Thread workers of a batch round.  Both batch workloads use two: a
#: serial round measures the speed of whichever CPU of a shared host it
#: runs on, which spread 30-40% from run to run on a 2-vCPU host.
BATCH_WORKERS = 2
#: Documents of the serial pass, run after every round, that gives a
#: batch workload's ``p50_ms.low``.
LOW_DOCS = {"conll-batch": 200, "pool40-prerank": 60}
#: Fewest rounds per batch run, so ``docs_per_s`` spans several.
MIN_ROUNDS = {"conll-batch": 3, "pool40-prerank": 5}

# ----------------------------------------------------------------------
# serve-http: `repro serve --snapshot` over the golden world.
# ----------------------------------------------------------------------
SERVE_WORLD = dict(seed=7, clusters_per_domain=4)
SERVE_KB_SEED = 101
#: Server flags beyond the defaults: the micro-batch geometry of
#: benchmarks/bench_serving.py (2 ms window, 8 documents).
SERVE_FLAGS = ("--batch-window-ms", "2", "--batch-max-docs", "8")
#: Open-loop send rates (docs/s): about 1/4 and 2/3 of the ~190 docs/s
#: that two closed-loop connections sustained against this server on a
#: 2-core Xeon host.
SERVE_RATE_LOW = 50.0
SERVE_RATE_HIGH = 125.0
#: Share of the run's seconds spent in the low phase.
SERVE_LOW_SHARE = 0.25
#: Seconds the server gets to answer /healthz before the run fails.
SERVE_BOOT_TIMEOUT_S = 60.0

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"conll-batch": 15, "pool40-prerank": 3, "serve-http": 4}


def frozen_constants(workload: str) -> Dict[str, object]:
    """Every frozen constant of *workload*, for provenance."""
    common = {"setup_repeats": SETUP_REPEATS[workload]}
    if workload != "serve-http":
        common.update(
            workers=BATCH_WORKERS,
            executor="thread",
            low_docs=LOW_DOCS[workload],
            min_rounds=MIN_ROUNDS[workload],
        )
    if workload == "conll-batch":
        return dict(
            common,
            world=CONLL_WORLD,
            kb_seed=CONLL_KB_SEED,
            corpus=CONLL_CORPUS,
            relatedness=CONLL_RELATEDNESS,
            cache_relatedness=True,
        )
    if workload == "pool40-prerank":
        return dict(
            common,
            stress=POOL_STRESS,
            mentions_per_doc=POOL_MENTIONS_PER_DOC,
            context_words=POOL_CONTEXT_WORDS,
            prerank_topk=POOL_TOPK,
            relatedness=POOL_RELATEDNESS,
            round_docs=POOL_ROUND_DOCS,
        )
    return dict(
        common,
        world=SERVE_WORLD,
        kb_seed=SERVE_KB_SEED,
        rate_low=SERVE_RATE_LOW,
        rate_high=SERVE_RATE_HIGH,
        low_share=SERVE_LOW_SHARE,
        flags=" ".join(SERVE_FLAGS),
        variant="full",
        loop="open, evenly spaced sends, at most nproc in flight",
    )


@dataclass(frozen=True)
class Switches:
    """Layers the ablation report can turn off one at a time."""

    solver_heaps: bool = True
    compiled: bool = True
    cache: bool = True
    lsh: bool = True
    prerank: bool = True
    snapshot: bool = True

    def apply(self, config):
        if not self.solver_heaps:
            config.graph = replace(config.graph, exact_reference=True)
        if not self.compiled:
            config.use_compiled = False
        if not self.lsh and config.relatedness_backend == "kore_lsh_g":
            config.relatedness_backend = "kore"
        if not self.prerank:
            config.prerank_topk = None
        config.validate()
        return config


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def conll_inputs(seed: int) -> Tuple[object, List[AnnotatedDocument]]:
    """The conll-batch KB and its 946/216/231 corpus."""
    world = World.generate(WorldConfig(**CONLL_WORLD))
    kb, _wiki = build_world_kb(world, seed=CONLL_KB_SEED)
    corpus = generate_conll(world, ConllConfig(seed=seed, **CONLL_CORPUS))
    return kb, corpus.all_documents()


def conll_config() -> AidaConfig:
    config = AidaConfig.full()
    config.relatedness_backend = CONLL_RELATEDNESS
    config.validate()
    return config


def pool_kb():
    return generate_stress_kb(StressConfig(**POOL_STRESS))


def pool_config() -> AidaConfig:
    config = AidaConfig.full()
    config.relatedness_backend = POOL_RELATEDNESS
    config.prerank_topk = POOL_TOPK
    config.validate()
    return config


def pool_documents(kb, seed: int, count: int) -> List[AnnotatedDocument]:
    """Documents over the pooled surfaces, drawn with the workload seed.

    Built as ``bench_prerank.build_speed_documents`` builds its documents,
    except that a seeded generator (not the document index, whose formula
    yields only 40 distinct documents) picks each document's six distinct
    pools and each mention's pool member: the mention names the
    ``Pool#####`` surface, its context is keyphrase words of that member,
    and the member is the mention's gold entity.
    """
    stress = StressConfig(**POOL_STRESS)
    n_pools = stress.entities // stress.candidate_pool
    rng = random.Random(seed)
    documents: List[AnnotatedDocument] = []
    for d in range(count):
        tokens: List[str] = []
        gold: List[Annotation] = []
        for pool in rng.sample(range(n_pools), POOL_MENTIONS_PER_DOC):
            surface = f"Pool{pool:05d}"
            members = sorted(kb.candidates(surface))
            entity = members[rng.randrange(len(members))]
            words = [
                word
                for phrase, _count in sorted(
                    kb.keyphrases.keyphrase_counts(entity).items()
                )
                for word in phrase
            ]
            tokens.extend(words[:POOL_CONTEXT_WORDS])
            mention = Mention(
                surface=surface, start=len(tokens), end=len(tokens) + 1
            )
            tokens.append(surface)
            gold.append(Annotation(mention=mention, entity=entity))
        documents.append(
            AnnotatedDocument(
                document=Document(
                    doc_id=f"pool-{seed}-{d:04d}",
                    tokens=tuple(tokens),
                    mentions=tuple(a.mention for a in gold),
                ),
                gold=tuple(gold),
            )
        )
    return documents


def serve_world():
    world = World.generate(WorldConfig(**SERVE_WORLD))
    kb, _wiki = build_world_kb(world, seed=SERVE_KB_SEED)
    return world, kb


@dataclass(frozen=True)
class ServePlan:
    """How many requests each open-loop phase sends."""

    low: int
    high: int


def serve_plan(seconds: float, min_high: int) -> ServePlan:
    low = max(1, round(SERVE_RATE_LOW * seconds * SERVE_LOW_SHARE))
    high = max(
        min_high,
        round(SERVE_RATE_HIGH * seconds * (1.0 - SERVE_LOW_SHARE)),
    )
    return ServePlan(low=low, high=high)


def serve_documents(world, seed: int, count: int) -> List[AnnotatedDocument]:
    """*count* distinct CoNLL-style documents of the golden world."""
    full_split = TRAIN_SIZE + TESTA_SIZE + TESTB_SIZE
    corpus = generate_conll(
        world, ConllConfig(seed=seed, scale=count / full_split + 0.05)
    )
    documents = corpus.all_documents()
    if len(documents) < count:
        raise RuntimeError(
            f"serve-http needs {count} documents, corpus has {len(documents)}"
        )
    return documents[:count]
