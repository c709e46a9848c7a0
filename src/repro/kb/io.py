"""Knowledge-base serialization.

Saves a :class:`~repro.kb.knowledge_base.KnowledgeBase` to a directory of
TSV files and loads it back — the interchange format real KB tooling
(YAGO's own distribution is TSV triples) uses, so a generated KB can be
inspected, versioned, and reused without regenerating the world.

Layout::

    <dir>/entities.tsv     entity_id  canonical_name  types(|-sep)  domain  popularity
    <dir>/names.tsv        name  entity_id  source  anchor_count
    <dir>/links.tsv        source_id  target_id
    <dir>/keyphrases.tsv   entity_id  phrase(space-sep tokens)  count
    <dir>/triples.tsv      subject  predicate  object
    <dir>/taxonomy.tsv     type  parent

Fields are tab-separated; tabs and newlines never occur in generated
values, and loading validates the column counts.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

from repro.errors import KnowledgeBaseError
from repro.kb.entity import Entity
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.schema import ROOT_TYPE, Taxonomy

_FILES = (
    "entities.tsv",
    "names.tsv",
    "links.tsv",
    "keyphrases.tsv",
    "triples.tsv",
    "taxonomy.tsv",
)


def _write_rows(path: str, rows: Iterable[Tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            for field in row:
                if "\t" in field or "\n" in field:
                    raise KnowledgeBaseError(
                        f"field contains a separator: {field!r}"
                    )
            handle.write("\t".join(row) + "\n")


def _read_rows(path: str, columns: int) -> List[Tuple[str, ...]]:
    rows: List[Tuple[str, ...]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = tuple(line.split("\t"))
            if len(parts) != columns:
                raise KnowledgeBaseError(
                    f"{path}:{line_number}: expected {columns} columns, "
                    f"got {len(parts)}"
                )
            rows.append(parts)
    return rows


def save_knowledge_base(kb: KnowledgeBase, directory: str) -> None:
    """Write the KB to *directory* (created if missing)."""
    os.makedirs(directory, exist_ok=True)

    _write_rows(
        os.path.join(directory, "entities.tsv"),
        (
            (
                entity.entity_id,
                entity.canonical_name,
                "|".join(entity.types),
                entity.domain,
                repr(entity.popularity),
            )
            for entity in kb.entities()
        ),
    )

    def name_rows():
        for name in kb.dictionary.all_names():
            record = kb.dictionary.record_for(name)
            if record is None:
                continue
            for entity_id in sorted(record.entities):
                for source in sorted(record.entities[entity_id]):
                    # The anchor tally is a per-(name, entity) value;
                    # emit it on the "anchor" row only, so loading does
                    # not multiply it by the number of sources.
                    count = (
                        record.anchor_counts.get(entity_id, 0)
                        if source == "anchor"
                        else 0
                    )
                    yield (record.name, entity_id, source, str(count))

    _write_rows(os.path.join(directory, "names.tsv"), name_rows())

    def link_rows():
        for source in kb.links.nodes():
            for target in sorted(kb.links.outlinks(source)):
                yield (source, target)

    _write_rows(os.path.join(directory, "links.tsv"), link_rows())

    def keyphrase_rows():
        for entity_id in kb.keyphrases.entity_ids():
            counts = kb.keyphrases.keyphrase_counts(entity_id)
            for phrase in sorted(counts):
                yield (entity_id, " ".join(phrase), str(counts[phrase]))

    _write_rows(
        os.path.join(directory, "keyphrases.tsv"), keyphrase_rows()
    )

    _write_rows(
        os.path.join(directory, "triples.tsv"),
        (triple.as_tuple() for triple in kb.triples.match()),
    )

    def taxonomy_rows():
        for type_name in kb.taxonomy.types:
            if type_name == ROOT_TYPE:
                continue
            for parent in kb.taxonomy.parents(type_name):
                yield (type_name, parent)

    _write_rows(os.path.join(directory, "taxonomy.tsv"), taxonomy_rows())


def load_knowledge_base(directory: str) -> KnowledgeBase:
    """Load a KB previously written by :func:`save_knowledge_base`."""
    for filename in _FILES:
        path = os.path.join(directory, filename)
        if not os.path.exists(path):
            raise KnowledgeBaseError(f"missing KB file: {path}")

    hierarchy: Dict[str, List[str]] = {}
    for type_name, parent in _read_rows(
        os.path.join(directory, "taxonomy.tsv"), 2
    ):
        hierarchy.setdefault(type_name, []).append(parent)
    taxonomy = Taxonomy(
        {name: tuple(parents) for name, parents in hierarchy.items()}
    )

    kb = KnowledgeBase(taxonomy=taxonomy)
    for entity_id, name, types, domain, popularity in _read_rows(
        os.path.join(directory, "entities.tsv"), 5
    ):
        kb.add_entity(
            Entity(
                entity_id=entity_id,
                canonical_name=name,
                types=tuple(t for t in types.split("|") if t),
                domain=domain,
                popularity=float(popularity),
            )
        )

    for name, entity_id, source, anchor_count in _read_rows(
        os.path.join(directory, "names.tsv"), 4
    ):
        kb.dictionary.add_name(
            name, entity_id, source=source, anchor_count=int(anchor_count)
        )

    for source, target in _read_rows(
        os.path.join(directory, "links.tsv"), 2
    ):
        kb.links.add_link(source, target)

    for entity_id, phrase_text, count in _read_rows(
        os.path.join(directory, "keyphrases.tsv"), 3
    ):
        kb.keyphrases.add_keyphrase(
            entity_id, tuple(phrase_text.split(" ")), int(count)
        )

    for subject, predicate, obj in _read_rows(
        os.path.join(directory, "triples.tsv"), 3
    ):
        kb.triples.add(subject, predicate, obj)

    return kb


def kb_fingerprint(directory: str) -> str:
    """A cheap content fingerprint of a TSV knowledge-base directory.

    Hashes the (name, size, mtime_ns) of every KB file — enough to detect
    any regeneration or edit without reading the data.  Used to key
    caches of KB-derived artifacts (LSH sketch exports, snapshots).
    """
    import hashlib

    digest = hashlib.sha256()
    for filename in _FILES:
        path = os.path.join(directory, filename)
        try:
            info = os.stat(path)
        except OSError as exc:
            raise KnowledgeBaseError(
                f"missing knowledge base file: {path}"
            ) from exc
        digest.update(
            f"{filename}:{info.st_size}:{info.st_mtime_ns}\n".encode()
        )
    return digest.hexdigest()


# Snapshot support lives in its own module; re-exported here so that
# ``repro.kb.io`` remains the single entry point for KB persistence.
# The import sits at the bottom to keep the module graph acyclic
# (snapshot.py never imports io.py).
from repro.kb.snapshot import (  # noqa: E402  (deliberate re-export)
    Snapshot,
    SnapshotError,
    build_snapshot,
    inspect_snapshot,
    load_snapshot,
)
