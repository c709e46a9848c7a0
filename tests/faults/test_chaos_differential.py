"""Chaos differential: faulted runs versus the fault-free pipeline.

Twenty seeded synthetic worlds (override the base seed with
``CHAOS_BASE_SEED``), each disambiguated fault-free once, then re-run
through the resilient wrapper with the chaos fixture installed
(``tests/faults/chaos.py``):

(a) the fixture installed with **zero** rate changes nothing — the
    wrapper and the wrapped entry points are pure plumbing on the happy
    path;
(b) **transient** faults capped by ``max_faults`` degrade the documents
    they hit, and a failed attempt leaves no state behind: every
    document that meets no fault, and every document run after the caps
    are spent, equals the fault-free baseline at the ``full`` rung;
(c) **permanent** faults with degradation enabled lose no document:
    every document reports the ladder rung that produced it.
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.datagen.documents import DocumentGenerator, DocumentSpec
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.faults.resilient import (
    DEGRADATION_LADDER,
    RobustnessConfig,
    make_resilient,
)

from tests.faults.chaos import TARGETS, Chaos, Fault

BASE_SEED = int(os.environ.get("CHAOS_BASE_SEED", "1307"))
WORLD_SEEDS = [BASE_SEED + i for i in range(20)]

DOCS_PER_WORLD = 4
MENTIONS_PER_DOC = 4

#: Transient regime for test (b).  ``kb`` fires on the run's first call
#: and is then spent, so a ``prior_only`` attempt (which calls nothing
#: else here) never faults and no document is lost.  ``relatedness``
#: fires on about half the memo misses, so a fault can cut a document's
#: coherence pass after the memo took some of its values.
TRANSIENT_FAULTS = [
    Fault("kb", rate=1.0, kind="transient", max_faults=1),
    Fault("similarity", rate=0.25, kind="transient", max_faults=3),
    Fault("relatedness", rate=0.5, kind="transient", max_faults=2),
    Fault("solver", rate=0.5, kind="transient", max_faults=2),
]

#: Passes over a world's documents before the caps must be spent.
MAX_PASSES = 4


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


class ChaosWorld:
    """One synthetic world with its fault-free baseline run."""

    def __init__(self, seed: int):
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
        pipeline = AidaDisambiguator(self.kb)
        self.baseline = [
            _comparable(pipeline.disambiguate(document))
            for document in self.documents
        ]

    def resilient(self):
        return make_resilient(
            AidaDisambiguator(self.kb), RobustnessConfig(degrade=True)
        )


@pytest.fixture(scope="module", params=WORLD_SEEDS)
def chaos_world(request) -> ChaosWorld:
    return ChaosWorld(request.param)


def _assert_answered(result, document) -> None:
    assert result.doc_id == document.doc_id
    assert len(result.assignments) == len(document.mentions)
    assert result.attempts == (
        DEGRADATION_LADDER.index(result.degradation_rung) + 1
    )


def test_zero_faults_bit_identical(chaos_world):
    """(a) The fixture installed at rate 0 changes nothing."""
    resilient = chaos_world.resilient()
    faults = [Fault(target, rate=0.0) for target in TARGETS]
    with Chaos(resilient, faults, seed=chaos_world.seed) as chaos:
        for document, expected in zip(
            chaos_world.documents, chaos_world.baseline
        ):
            result = resilient.disambiguate(document)
            assert _comparable(result) == expected
            assert result.degradation_rung == "full"
            assert result.attempts == 1
    triggers = chaos.triggers
    assert triggers["worker"].calls == len(chaos_world.documents)
    assert triggers["kb"].calls > 0 and triggers["similarity"].calls > 0
    assert not any(trigger.fired for trigger in triggers.values())


def test_transient_faults_converge_to_fault_free(chaos_world):
    """(b) A failed attempt leaves no state behind: once the capped
    transient faults are spent, every answer is the fault-free one."""
    resilient = chaos_world.resilient()
    documents = list(zip(chaos_world.documents, chaos_world.baseline))
    with Chaos(resilient, TRANSIENT_FAULTS, seed=chaos_world.seed) as chaos:
        triggers = list(chaos.triggers.values())

        def fired():
            return sum(trigger.fired for trigger in triggers)

        for _ in range(MAX_PASSES + 1):
            spent = all(trigger.spent for trigger in triggers)
            for document, expected in documents:
                before = fired()
                result = resilient.disambiguate(document)
                _assert_answered(result, document)
                if fired() == before:
                    # Met no fault: exactly the fault-free answer.
                    assert _comparable(result) == expected
                    assert result.degradation_rung == "full"
                else:
                    # A transient fault degrades like a permanent one.
                    assert result.degradation_rung != "full"
            if spent:
                break  # a whole pass ran after the caps were spent
    assert spent, f"caps not spent within {MAX_PASSES} passes"


def test_permanent_relatedness_degrades_not_fails(chaos_world):
    """(c) Coherence-backend loss drops to ``no_coherence``, loses nothing."""
    resilient = chaos_world.resilient()
    rungs = []
    with Chaos(
        resilient,
        [Fault("relatedness", kind="permanent")],
        seed=chaos_world.seed,
    ):
        for document in chaos_world.documents:
            result = resilient.disambiguate(document)
            _assert_answered(result, document)
            rungs.append(result.degradation_rung)
    assert set(rungs) <= {"full", "no_coherence"}
    assert "no_coherence" in rungs


def test_permanent_similarity_reaches_prior_only(chaos_world):
    """(c) Losing similarity *and* relatedness lands every document on the
    ``prior_only`` rung — still no document lost."""
    resilient = chaos_world.resilient()
    faults = [
        Fault("similarity", kind="permanent"),
        Fault("relatedness", kind="permanent"),
    ]
    with Chaos(resilient, faults, seed=chaos_world.seed):
        for document in chaos_world.documents:
            result = resilient.disambiguate(document)
            _assert_answered(result, document)
            assert result.degradation_rung == "prior_only"
            assert result.attempts == 3  # walked the whole ladder
