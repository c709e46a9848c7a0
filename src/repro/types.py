"""Core value types shared across the library.

The paper's task definitions (Section 2.2.1) work with *documents* containing
*mentions* (surface forms recognized by NER), a knowledge base providing
*candidate entities* per mention, and *annotations* mapping each mention to
either an in-KB entity or the out-of-knowledge-base marker ``OOE``.

Everything here is a small immutable dataclass; the heavyweight state lives in
:mod:`repro.kb` and the algorithm packages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.timing import PipelineStats

#: Canonical identifier of an entity in the knowledge base.  Entity ids are
#: opaque strings such as ``"Bob_Dylan"``; uniqueness is enforced by the KB.
EntityId = str

#: Marker assigned to a mention whose true entity is not in the knowledge
#: base — the paper's out-of-KB entity "OOE" (Section 2.2.1), also called an
#: emerging entity "EE" in Chapter 5.
OUT_OF_KB: EntityId = "--OOE--"


def is_out_of_kb(entity_id: Optional[EntityId]) -> bool:
    """Return True if *entity_id* denotes the out-of-KB placeholder."""
    return entity_id == OUT_OF_KB


@dataclass(frozen=True)
class Mention:
    """A surface form in a document that potentially denotes a named entity.

    Offsets are token offsets into the owning document's token list: the
    mention covers ``tokens[start:end]``.  ``surface`` is the exact text of
    the mention as it appears (tokens joined by single spaces).
    """

    surface: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"mention span must be non-empty: [{self.start}, {self.end})"
            )

    @property
    def length(self) -> int:
        """Number of tokens the mention covers."""
        return self.end - self.start


@dataclass(frozen=True)
class Annotation:
    """A mention together with its (gold or predicted) entity."""

    mention: Mention
    entity: EntityId

    @property
    def is_out_of_kb(self) -> bool:
        """Whether this refers to the out-of-KB placeholder."""
        return is_out_of_kb(self.entity)


@dataclass(frozen=True)
class Document:
    """An input text: a token sequence plus recognized mentions.

    ``doc_id`` identifies the document within its corpus.  ``timestamp`` is an
    integer day index used by the news-stream experiments of Chapter 5 (0 for
    corpora without temporal structure).
    """

    doc_id: str
    tokens: Tuple[str, ...]
    mentions: Tuple[Mention, ...] = ()
    timestamp: int = 0

    @property
    def text(self) -> str:
        """The document text (tokens joined by spaces)."""
        return " ".join(self.tokens)

    def mention_surface(self, mention: Mention) -> str:
        """Return the surface string of *mention* recomputed from tokens."""
        return " ".join(self.tokens[mention.start : mention.end])

    def with_mentions(self, mentions: Sequence[Mention]) -> "Document":
        """A copy of this document with the given mentions attached."""
        return Document(
            doc_id=self.doc_id,
            tokens=self.tokens,
            mentions=tuple(mentions),
            timestamp=self.timestamp,
        )


@dataclass(frozen=True)
class AnnotatedDocument:
    """A document paired with gold-standard annotations for every mention."""

    document: Document
    gold: Tuple[Annotation, ...]

    @property
    def doc_id(self) -> str:
        """The underlying document id."""
        return self.document.doc_id

    def gold_map(self) -> Dict[Mention, EntityId]:
        """Gold entity per mention (unique mentions, as in Section 3.6.1)."""
        return {ann.mention: ann.entity for ann in self.gold}

    def in_kb_gold(self) -> List[Annotation]:
        """Gold annotations whose entity is registered in the KB."""
        return [ann for ann in self.gold if not ann.is_out_of_kb]

    def out_of_kb_gold(self) -> List[Annotation]:
        """Gold annotations referring to emerging / out-of-KB entities."""
        return [ann for ann in self.gold if ann.is_out_of_kb]


@dataclass
class MentionAssignment:
    """The result of disambiguating one mention.

    ``score`` is the method's raw score for the chosen entity; ``confidence``
    (if computed) is a normalized [0, 1] confidence as per Section 5.4.
    ``candidate_scores`` optionally records the raw score of every candidate,
    which the confidence assessors need.
    """

    mention: Mention
    entity: EntityId
    score: float = 0.0
    confidence: Optional[float] = None
    candidate_scores: Dict[EntityId, float] = field(default_factory=dict)

    @property
    def is_out_of_kb(self) -> bool:
        """Whether this refers to the out-of-KB placeholder."""
        return is_out_of_kb(self.entity)


@dataclass
class DisambiguationResult:
    """Disambiguation output for one document.

    ``stats`` carries per-stage timing and effort counters when the
    producing pipeline instruments its run (see
    :class:`repro.utils.timing.PipelineStats`); baselines may leave it
    unset.

    ``degradation_rung`` records which rung of the graceful-degradation
    ladder produced this result (see :mod:`repro.faults.resilient`);
    pipelines outside the robustness layer always report ``"full"``.
    ``attempts`` counts pipeline attempts, one per ladder rung tried (1
    when nothing went wrong).
    """

    doc_id: str
    assignments: List[MentionAssignment]
    stats: Optional[PipelineStats] = None
    degradation_rung: str = "full"
    attempts: int = 1

    def as_map(self) -> Dict[Mention, EntityId]:
        """Mention -> chosen entity mapping."""
        return {a.mention: a.entity for a in self.assignments}

    def assignment_for(self, mention: Mention) -> Optional[MentionAssignment]:
        """The assignment of *mention*, or None if absent."""
        for assignment in self.assignments:
            if assignment.mention == mention:
                return assignment
        return None

    @property
    def entities(self) -> List[EntityId]:
        """The chosen entities in mention order."""
        return [a.entity for a in self.assignments]
