"""The correctness gate: the golden corpus through batch and HTTP paths.

``tests/fixtures/golden/`` freezes a small corpus and the ``full``
variant's per-mention answers on the golden world.  Before any timing,
each run replays that corpus through the batch runner (and, on
``serve-http``, through the live server) and compares every answer with
the frozen one: spans and entities exactly, scores within 1e-9.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

from repro.core.batch import BatchConfig, BatchRunner
from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.datagen.io import load_corpus
from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.types import AnnotatedDocument, DisambiguationResult

SCORE_TOLERANCE = 1e-9
EXACT_FIELDS = ("surface", "start", "end", "entity")
GOLDEN_DIR = os.path.join("tests", "fixtures", "golden")


def load_golden(root: str):
    """(annotated documents, doc_id -> expected ``full`` records, seeds)."""
    directory = os.path.join(root, GOLDEN_DIR)
    documents = load_corpus(os.path.join(directory, "corpus.jsonl"))
    with open(
        os.path.join(directory, "expected.json"), "r", encoding="utf-8"
    ) as handle:
        frozen = json.load(handle)
    return documents, frozen["expected"]["full"], frozen


def golden_kb(frozen: Dict[str, object]):
    """The golden world's KB, from the seeds the fixture records."""
    world = World.generate(
        WorldConfig(
            seed=frozen["world_seed"],
            clusters_per_domain=frozen["clusters_per_domain"],
        )
    )
    kb, _wiki = build_world_kb(world, seed=frozen["kb_seed"])
    return kb


def records(result: DisambiguationResult) -> List[Dict[str, object]]:
    """A result's assignments in the fixture's (and the wire's) shape."""
    return [
        {
            "surface": a.mention.surface,
            "start": a.mention.start,
            "end": a.mention.end,
            "entity": a.entity,
            "score": a.score,
        }
        for a in result.assignments
    ]


def mismatches(
    label: str,
    documents: Sequence[AnnotatedDocument],
    answers: Iterable[List[Dict[str, object]]],
    expected: Dict[str, List[Dict[str, object]]],
) -> List[str]:
    """Human-readable differences between answers and the fixture."""
    problems: List[str] = []
    for annotated, got in zip(documents, answers):
        want = expected[annotated.doc_id]
        where = f"{label} {annotated.doc_id}"
        if got is None:
            problems.append(f"{where}: no answer")
            continue
        if len(got) != len(want):
            problems.append(
                f"{where}: {len(got)} assignments, expected {len(want)}"
            )
            continue
        for a, b in zip(got, want):
            same = all(a[k] == b[k] for k in EXACT_FIELDS)
            if not same or abs(a["score"] - b["score"]) > SCORE_TOLERANCE:
                problems.append(f"{where}: got {a}, expected {b}")
    return problems


def batch_gate(kb, documents, expected) -> List[str]:
    """Replay the golden corpus through a two-thread BatchRunner."""
    runner = BatchRunner(
        pipeline=AidaDisambiguator(kb, config=AidaConfig.full()),
        config=BatchConfig(workers=2, executor="thread"),
    )
    outcome = runner.run([annotated.document for annotated in documents])
    answers = [
        records(result) if result is not None else None
        for result in outcome.results
    ]
    return mismatches("batch", documents, answers, expected)
