"""Zero-copy mmap-able knowledge-base snapshots.

A snapshot is a single, versioned, checksummed file holding everything a
serving worker needs — the entity repository, mention dictionary with
anchor priors, link graph (CSR), keyphrase store, the interned
:class:`~repro.compiled.vocabulary.Vocabulary`, the compiled flat-array
keyphrase models of :mod:`repro.compiled` (sim and KORE), and the
precomputed LSH sketch tables — laid out so that N workers or replicas
``mmap`` one read-only image and share its pages.  Attaching to a
snapshot is O(header + table-of-contents); entity records, dictionary
rows, link sets, and compiled models are decoded lazily on first touch
and the backing arrays are served directly from the mapping as
``memoryview`` windows, so per-worker private memory stays near zero.

File layout::

    [64-byte header] [section]* [TOC]

    header   magic "RKBSNAP\\0", format version, flags,
             TOC offset/length/CRC32, header CRC32
    section  64-byte-aligned named byte range, CRC32-checksummed
    TOC      JSON: [{name, offset, length, crc32}, ...]

Writes are atomic: the image is assembled in a temp file in the target
directory, fsynced, and ``os.rename``d over the destination — readers
either see the old complete image or the new complete image, never a
torn one (existing mappings keep serving the old inode).  Loading
verifies the header, TOC, and every section checksum by default; any
mismatch raises :class:`SnapshotError`, which is classified permanent —
a corrupt snapshot can never produce a silently wrong answer.

All variable-order content is serialized in sorted order, which is also
the order every in-memory consumer iterates in, so a build → load →
rebuild round trip is byte-stable and snapshot-backed pipelines are
bit-identical to in-memory ones.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Mapping as MappingABC
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple

from repro.compiled.context import IndexedContext
from repro.compiled.keyphrases import (
    CompiledKeyphrases,
    KoreEntityModel,
    SimEntityModel,
)
from repro.compiled.scoring import HAVE_NUMPY
from repro.compiled.vocabulary import UNKNOWN, Vocabulary
from repro.errors import KnowledgeBaseError, PermanentError, UnknownEntityError
from repro.faults.injector import get_injector
from repro.kb.dictionary import (
    SOURCE_ANCHOR,
    SOURCE_DISAMBIGUATION,
    SOURCE_REDIRECT,
    SOURCE_TITLE,
    Dictionary,
    NameRecord,
    match_key,
)
from repro.kb.entity import Entity
from repro.kb.keyphrases import KeyphraseStore, Phrase
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.links import LinkGraph
from repro.kb.schema import ROOT_TYPE, Taxonomy
from repro.kb.triples import TripleStore
from repro.types import EntityId
from repro.weights.model import WeightModel

MAGIC = b"RKBSNAP\x00"
#: Version written by this build.  Version 2 added the optional ``emb/*``
#: embedding sections; images carrying none are byte-compatible with
#: version 1, so the reader accepts both.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

#: ``magic, version, flags, toc_offset, toc_length, toc_crc, header_crc``.
_HEADER = struct.Struct("<8sIIQQII")
HEADER_SIZE = 64
_ALIGN = 64

#: Dictionary provenance sources as stable bitmask positions.
_SOURCE_BITS = (
    (SOURCE_TITLE, 1),
    (SOURCE_REDIRECT, 2),
    (SOURCE_DISAMBIGUATION, 4),
    (SOURCE_ANCHOR, 8),
)

#: LSH gearings a snapshot can embed: short key -> backend name.
GEARINGS = {"g": "kore_lsh_g", "f": "kore_lsh_f"}

#: Entity-flag bits in the ``ids/flags`` section.
_FLAG_ENTITY = 1
_FLAG_STORE = 2


class SnapshotError(KnowledgeBaseError, PermanentError):
    """A snapshot is missing, malformed, corrupt, or read-only.

    Classified permanent: retrying cannot repair a bad image, and the
    loader refuses to serve from one rather than risk a wrong answer.
    """


def _fail(path: str, problem: str) -> "SnapshotError":
    return SnapshotError(f"snapshot {path}: {problem}")


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class _SectionWriter:
    """Appends named, aligned, checksummed sections to an open file."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self._offset = HEADER_SIZE
        self.sections: List[Dict[str, Any]] = []

    def add(self, name: str, data: bytes) -> None:
        injector = get_injector()
        if injector.enabled:
            injector.fire("snapshot.write")
        pad = (-self._offset) % _ALIGN
        if pad:
            self._handle.write(b"\x00" * pad)
            self._offset += pad
        self._handle.write(data)
        self.sections.append(
            {
                "name": name,
                "offset": self._offset,
                "length": len(data),
                "crc32": zlib.crc32(data) & 0xFFFFFFFF,
            }
        )
        self._offset += len(data)

    def add_array(self, name: str, values: array) -> None:
        self.add(name, values.tobytes())

    def add_json(self, name: str, payload: Any) -> None:
        self.add(
            name,
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            ),
        )

    @property
    def offset(self) -> int:
        return self._offset


def _string_table(strings: Sequence[str]) -> Tuple[bytes, array]:
    """Concatenated UTF-8 blob plus ``int64`` prefix offsets."""
    offsets = array("q", [0])
    chunks: List[bytes] = []
    total = 0
    for text in strings:
        raw = text.encode("utf-8")
        chunks.append(raw)
        total += len(raw)
        offsets.append(total)
    return b"".join(chunks), offsets


def build_snapshot(
    kb: KnowledgeBase,
    path: str,
    scheme: str = "npmi",
    max_keyphrases: Optional[int] = None,
    backend: str = "auto",
    gearings: Sequence[str] = ("g", "f"),
    source_fingerprint: str = "",
    embeddings=None,
) -> Dict[str, Any]:
    """Compile *kb* into a snapshot image at *path*, atomically.

    ``scheme``/``max_keyphrases``/``backend`` mirror
    :class:`~repro.compiled.keyphrases.CompiledKeyphrases` and must match
    the pipeline config the snapshot will serve.  ``gearings`` selects
    which LSH sketch tables to embed (``"g"`` recall-geared, ``"f"``
    fast).  ``embeddings`` optionally embeds a trained
    :class:`~repro.embeddings.model.EmbeddingModel` as zero-copy
    ``emb/*`` sections (the dense pre-ranker and embedding measures then
    attach without training).  Returns the manifest.  The write is
    temp-file + rename: the destination is never left torn, even on
    crash or injected fault.
    """
    for gearing in gearings:
        if gearing not in GEARINGS:
            raise SnapshotError(f"unknown LSH gearing {gearing!r}")
    store = kb.keyphrases
    weights = WeightModel(store, kb.links)
    compiled = CompiledKeyphrases(
        store,
        weights,
        scheme=scheme,
        max_keyphrases=max_keyphrases,
        backend=backend,
    )

    # -- the shared id table: every id any component mentions, sorted.
    ids = sorted(
        set(kb.entity_ids())
        | set(kb.dictionary.entity_ids())
        | set(kb.links.nodes())
        | set(store.entity_ids())
    )
    index_of = {eid: i for i, eid in enumerate(ids)}
    n = len(ids)
    flags = bytearray(n)
    for i, eid in enumerate(ids):
        if eid in kb:
            flags[i] |= _FLAG_ENTITY
        if eid in store:
            flags[i] |= _FLAG_STORE

    # -- compile every store entity up front (also fixes the vocabulary).
    store_ids = [eid for i, eid in enumerate(ids) if flags[i] & _FLAG_STORE]
    for eid in store_ids:
        compiled.sim_model(eid)
        compiled.kore_model(eid)
    vocab = compiled.vocabulary
    vocab_words = [vocab.word_of(wid) for wid in range(len(vocab))]
    vocab_perm = array(
        "i", sorted(range(len(vocab_words)), key=vocab_words.__getitem__)
    )

    # -- LSH sketch tables per requested gearing.
    sketch_tables: Dict[str, Dict[EntityId, Tuple[int, ...]]] = {}
    lsh_settings: Dict[str, Any] = {}
    if gearings:
        from repro.relatedness.kore import KoreRelatedness
        from repro.relatedness.lsh import KoreLshRelatedness, LshSettings

        kore = KoreRelatedness(store, weights)
        for gearing in gearings:
            settings = (
                LshSettings.recall_geared()
                if gearing == "g"
                else LshSettings.fast()
            )
            lsh = KoreLshRelatedness(store, kore, settings)
            lsh.attach_compiled(compiled)
            lsh.precompute()
            sketch_tables[gearing] = lsh.export_sketches()
            lsh_settings[gearing] = {
                "phrase_sketch_len": settings.phrase_sketch_len,
                "phrase_bands": settings.phrase_bands,
                "phrase_rows": settings.phrase_rows,
                "entity_bands": settings.entity_bands,
                "entity_rows": settings.entity_rows,
                "seed": settings.seed,
                "sketch_len": settings.entity_sketch_len,
            }

    manifest: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "scheme": scheme,
        "max_keyphrases": max_keyphrases,
        "backend": backend,
        "source_fingerprint": source_fingerprint,
        "lsh": lsh_settings,
        "embeddings": (
            None
            if embeddings is None
            else {
                "dim": embeddings.dim,
                "words": len(embeddings.words),
                "entities": len(embeddings.entity_ids),
            }
        ),
        "counts": {
            "ids": n,
            "entities": kb.entity_count,
            "store_entities": len(store_ids),
            "vocabulary": len(vocab_words),
            "dictionary_names": len(kb.dictionary),
            "link_edges": kb.links.edge_count,
            "triples": len(kb.triples),
        },
    }

    directory = os.path.dirname(os.path.abspath(path)) or "."
    temp_path = os.path.join(
        directory, f".{os.path.basename(path)}.tmp.{os.getpid()}"
    )
    try:
        with open(temp_path, "wb") as handle:
            handle.write(b"\x00" * HEADER_SIZE)
            writer = _SectionWriter(handle)
            writer.add_json("manifest", manifest)

            blob, offsets = _string_table(vocab_words)
            writer.add("vocab/blob", blob)
            writer.add_array("vocab/offsets", offsets)
            writer.add_array("vocab/perm", vocab_perm)
            word_df = array("q", (store.word_df(word) for word in vocab_words))
            writer.add_array("kp/word_df", word_df)

            blob, offsets = _string_table(ids)
            writer.add("ids/blob", blob)
            writer.add_array("ids/offsets", offsets)
            writer.add("ids/flags", bytes(flags))

            _write_entities(writer, kb, ids, flags)
            writer.add_json(
                "taxonomy",
                {
                    type_name: list(kb.taxonomy.parents(type_name))
                    for type_name in kb.taxonomy.types
                    if type_name != ROOT_TYPE
                },
            )
            writer.add_json(
                "triples",
                [list(triple.as_tuple()) for triple in kb.triples.match()],
            )
            _write_dictionary(writer, kb.dictionary, ids, index_of)
            _write_links(writer, kb.links, ids, index_of)
            _write_keyphrases(writer, store, vocab, ids, flags)
            _write_compiled(writer, compiled, ids, flags)
            for gearing in gearings:
                _write_sketches(
                    writer,
                    gearing,
                    sketch_tables[gearing],
                    lsh_settings[gearing]["sketch_len"],
                    ids,
                )
            if embeddings is not None:
                _write_embeddings(writer, embeddings)

            toc = json.dumps(
                {"sections": writer.sections},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            toc_offset = writer.offset
            pad = (-toc_offset) % _ALIGN
            handle.write(b"\x00" * pad)
            toc_offset += pad
            handle.write(toc)

            header = bytearray(HEADER_SIZE)
            packed = _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                0,
                toc_offset,
                len(toc),
                zlib.crc32(toc) & 0xFFFFFFFF,
                0,
            )
            header[: len(packed)] = packed
            crc = zlib.crc32(bytes(header[: _HEADER.size - 4])) & 0xFFFFFFFF
            header[_HEADER.size - 4 : _HEADER.size] = struct.pack("<I", crc)
            handle.seek(0)
            handle.write(bytes(header))
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return manifest


def _write_entities(
    writer: _SectionWriter,
    kb: KnowledgeBase,
    ids: Sequence[EntityId],
    flags: bytearray,
) -> None:
    names: List[str] = []
    domains: List[str] = []
    popularity = array("d")
    type_set: Set[str] = set()
    entities: List[Optional[Entity]] = []
    for i, eid in enumerate(ids):
        entity = kb.maybe_entity(eid) if flags[i] & _FLAG_ENTITY else None
        entities.append(entity)
        names.append(entity.canonical_name if entity else "")
        domains.append(entity.domain if entity else "")
        popularity.append(entity.popularity if entity else 0.0)
        if entity:
            type_set.update(entity.types)
    type_table = sorted(type_set)
    type_index = {name: i for i, name in enumerate(type_table)}
    type_offsets = array("q", [0])
    type_ids = array("i")
    for entity in entities:
        if entity:
            type_ids.extend(type_index[t] for t in entity.types)
        type_offsets.append(len(type_ids))

    blob, offsets = _string_table(names)
    writer.add("ent/name_blob", blob)
    writer.add_array("ent/name_offsets", offsets)
    blob, offsets = _string_table(domains)
    writer.add("ent/domain_blob", blob)
    writer.add_array("ent/domain_offsets", offsets)
    writer.add_array("ent/popularity", popularity)
    blob, offsets = _string_table(type_table)
    writer.add("types/blob", blob)
    writer.add_array("types/offsets", offsets)
    writer.add_array("ent/type_offsets", type_offsets)
    writer.add_array("ent/type_ids", type_ids)


def _write_dictionary(
    writer: _SectionWriter,
    dictionary: Dictionary,
    ids: Sequence[EntityId],
    index_of: Dict[EntityId, int],
) -> None:
    entries = sorted(
        (match_key(name), name) for name in dictionary.all_names()
    )
    ent_offsets = array("q", [0])
    ent_ids = array("i")
    ent_sources = bytearray()
    ent_anchors = array("q")
    for _key, name in entries:
        record = dictionary.record_for(name)
        for eid in sorted(record.entities):
            mask = 0
            for source, bit in _SOURCE_BITS:
                if source in record.entities[eid]:
                    mask |= bit
            ent_ids.append(index_of[eid])
            ent_sources.append(mask)
            ent_anchors.append(record.anchor_counts.get(eid, 0))
        ent_offsets.append(len(ent_ids))

    blob, offsets = _string_table([key for key, _name in entries])
    writer.add("dict/key_blob", blob)
    writer.add_array("dict/key_offsets", offsets)
    blob, offsets = _string_table([name for _key, name in entries])
    writer.add("dict/name_blob", blob)
    writer.add_array("dict/name_offsets", offsets)
    writer.add_array("dict/ent_offsets", ent_offsets)
    writer.add_array("dict/ent_ids", ent_ids)
    writer.add("dict/ent_sources", bytes(ent_sources))
    writer.add_array("dict/ent_anchors", ent_anchors)

    names_idx = array("q", [0])
    all_names: List[str] = []
    for eid in ids:
        all_names.extend(dictionary.names_of(eid))
        names_idx.append(len(all_names))
    writer.add_array("dict/names_idx", names_idx)
    blob, offsets = _string_table(all_names)
    writer.add("dict/names_blob", blob)
    writer.add_array("dict/names_offsets", offsets)


def _write_links(
    writer: _SectionWriter,
    links: LinkGraph,
    ids: Sequence[EntityId],
    index_of: Dict[EntityId, int],
) -> None:
    for prefix, neighbours in (
        ("out", links.outlinks),
        ("in", links.inlinks),
    ):
        offsets = array("q", [0])
        targets = array("i")
        for eid in ids:
            targets.extend(sorted(index_of[t] for t in neighbours(eid)))
            offsets.append(len(targets))
        writer.add_array(f"links/{prefix}_offsets", offsets)
        writer.add_array(f"links/{prefix}_ids", targets)


def _write_keyphrases(
    writer: _SectionWriter,
    store: KeyphraseStore,
    vocab: Vocabulary,
    ids: Sequence[EntityId],
    flags: bytearray,
) -> None:
    ent_offsets = array("q", [0])
    phrase_offsets = array("q", [0])
    tokens = array("i")
    counts = array("q")
    for i, eid in enumerate(ids):
        if flags[i] & _FLAG_STORE:
            phrase_counts = store.keyphrase_counts(eid)
            for phrase in sorted(phrase_counts):
                for word in phrase:
                    wid = vocab.id_of(word)
                    if wid == UNKNOWN:
                        raise SnapshotError(
                            f"keyphrase word {word!r} missing from the "
                            f"compiled vocabulary"
                        )
                    tokens.append(wid)
                phrase_offsets.append(len(tokens))
                counts.append(phrase_counts[phrase])
        ent_offsets.append(len(counts))
    writer.add_array("kp/ent_offsets", ent_offsets)
    writer.add_array("kp/phrase_offsets", phrase_offsets)
    writer.add_array("kp/tokens", tokens)
    writer.add_array("kp/counts", counts)


def _write_compiled(
    writer: _SectionWriter,
    compiled: CompiledKeyphrases,
    ids: Sequence[EntityId],
    flags: bytearray,
) -> None:
    sim_pools = {
        "idx_phrase": array("q", [0]),
        "off_idx": array("q", [0]),
        "idx_tok": array("q", [0]),
        "idx_word": array("q", [0]),
        "wpoff_idx": array("q", [0]),
        "idx_wp": array("q", [0]),
        "phrase_offsets": array("q"),
        "tok_ids": array("i"),
        "tok_weights": array("d"),
        "totals": array("d"),
        "word_ids": array("i"),
        "word_weights": array("d"),
        "wp_offsets": array("q"),
        "wp_ids": array("i"),
    }
    kore_pools = {
        "idx_phrase": array("q", [0]),
        "pwoff_idx": array("q", [0]),
        "idx_pw": array("q", [0]),
        "idx_wtp_w": array("q", [0]),
        "idx_wtp_p": array("q", [0]),
        "wtpoff_idx": array("q", [0]),
        "idx_wg": array("q", [0]),
        "pw_offsets": array("q"),
        "pw_ids": array("i"),
        "pw_gammas": array("d"),
        "phi": array("d"),
        "wtp_wids": array("i"),
        "wtp_offsets": array("q"),
        "wtp_pids": array("i"),
        "wg_wids": array("i"),
        "wg_vals": array("d"),
    }
    for i, eid in enumerate(ids):
        if flags[i] & _FLAG_STORE:
            sim = compiled.sim_model(eid)
            sim_pools["totals"].extend(sim.phrase_totals)
            sim_pools["phrase_offsets"].extend(sim.phrase_offsets)
            sim_pools["tok_ids"].extend(sim.phrase_token_ids)
            sim_pools["tok_weights"].extend(sim.phrase_token_weights)
            sim_pools["word_ids"].extend(sim.word_ids)
            sim_pools["word_weights"].extend(sim.word_weights)
            sim_pools["wp_offsets"].extend(sim.word_phrase_offsets)
            sim_pools["wp_ids"].extend(sim.word_phrase_ids)

            kore = compiled.kore_model(eid)
            kore_pools["phi"].extend(kore.phi)
            kore_pools["pw_offsets"].extend(kore.phrase_word_offsets)
            kore_pools["pw_ids"].extend(kore.phrase_word_ids)
            kore_pools["pw_gammas"].extend(kore.phrase_word_gammas)
            # Inverted index and γ map as sorted-id CSR / pair windows;
            # offsets are entity-local, mirroring SimEntityModel's.
            cursor = 0
            kore_pools["wtp_offsets"].append(0)
            for wid in sorted(kore.word_to_phrases):
                kore_pools["wtp_wids"].append(wid)
                kore_pools["wtp_pids"].extend(kore.word_to_phrases[wid])
                cursor += len(kore.word_to_phrases[wid])
                kore_pools["wtp_offsets"].append(cursor)
            for wid in sorted(kore.word_gammas):
                kore_pools["wg_wids"].append(wid)
                kore_pools["wg_vals"].append(kore.word_gammas[wid])
        _append_sim_indexes(sim_pools)
        _append_kore_indexes(kore_pools)
    for name, pool in sim_pools.items():
        writer.add_array(f"sim/{name}", pool)
    for name, pool in kore_pools.items():
        writer.add_array(f"kore/{name}", pool)


def _append_sim_indexes(sim_pools: Dict[str, array]) -> None:
    sim_pools["idx_phrase"].append(len(sim_pools["totals"]))
    sim_pools["off_idx"].append(len(sim_pools["phrase_offsets"]))
    sim_pools["idx_tok"].append(len(sim_pools["tok_ids"]))
    sim_pools["idx_word"].append(len(sim_pools["word_ids"]))
    sim_pools["wpoff_idx"].append(len(sim_pools["wp_offsets"]))
    sim_pools["idx_wp"].append(len(sim_pools["wp_ids"]))


def _append_kore_indexes(kore_pools: Dict[str, array]) -> None:
    kore_pools["idx_phrase"].append(len(kore_pools["phi"]))
    kore_pools["pwoff_idx"].append(len(kore_pools["pw_offsets"]))
    kore_pools["idx_pw"].append(len(kore_pools["pw_ids"]))
    kore_pools["idx_wtp_w"].append(len(kore_pools["wtp_wids"]))
    kore_pools["idx_wtp_p"].append(len(kore_pools["wtp_pids"]))
    kore_pools["wtpoff_idx"].append(len(kore_pools["wtp_offsets"]))
    kore_pools["idx_wg"].append(len(kore_pools["wg_wids"]))


def _write_sketches(
    writer: _SectionWriter,
    gearing: str,
    sketches: Mapping[EntityId, Tuple[int, ...]],
    sketch_len: int,
    ids: Sequence[EntityId],
) -> None:
    mask = bytearray(len(ids))
    row_of = array("q", [-1]) * len(ids)
    rows = array("q")
    count = 0
    for i, eid in enumerate(ids):
        sketch = sketches.get(eid)
        if sketch is None:
            continue
        if len(sketch) == 0:
            mask[i] = 1
            continue
        if len(sketch) != sketch_len:
            raise SnapshotError(
                f"LSH sketch for {eid!r} has length {len(sketch)}, "
                f"expected {sketch_len}"
            )
        mask[i] = 2
        row_of[i] = count
        rows.extend(sketch)
        count += 1
    writer.add(f"lsh/{gearing}/mask", bytes(mask))
    writer.add_array(f"lsh/{gearing}/row_of", row_of)
    writer.add_array(f"lsh/{gearing}/rows", rows)


def _write_embeddings(writer: _SectionWriter, model) -> None:
    """The joint embedding space as optional (version-2) sections.

    Matrices land as raw float32 row-major bytes on the container's
    64-byte alignment, so the reader reconstructs them with one
    ``np.frombuffer`` over the mapped window — no copy, shared pages
    across workers like every other section.
    """
    blob, offsets = _string_table(model.words)
    writer.add("emb/word_blob", blob)
    writer.add_array("emb/word_offsets", offsets)
    blob, offsets = _string_table(model.entity_ids)
    writer.add("emb/ent_blob", blob)
    writer.add_array("emb/ent_offsets", offsets)
    writer.add("emb/word_vecs", model.word_vectors.tobytes())
    writer.add("emb/ent_vecs", model.entity_vectors.tobytes())
    writer.add_json("emb/meta", {"dim": model.dim, "meta": model.meta})


# ----------------------------------------------------------------------
# Reader core
# ----------------------------------------------------------------------
class _Image:
    """An open, verified snapshot file serving memoryview windows."""

    def __init__(self, path: str, verify: bool = True) -> None:
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise _fail(path, f"cannot open ({exc})") from exc
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < HEADER_SIZE:
                raise _fail(
                    path, f"file too short ({size} bytes) to hold a header"
                )
            self._mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except SnapshotError:
            self._file.close()
            raise
        except (OSError, ValueError) as exc:
            self._file.close()
            raise _fail(path, f"cannot map ({exc})") from exc
        self._view = memoryview(self._mmap)
        try:
            self._sections = self._parse(size, verify)
        except SnapshotError:
            self.close()
            raise

    def _parse(self, size: int, verify: bool) -> Dict[str, Tuple[int, int]]:
        header = bytes(self._view[: _HEADER.size])
        magic, version, _flags, toc_offset, toc_length, toc_crc, header_crc = (
            _HEADER.unpack(header)
        )
        if magic != MAGIC:
            raise _fail(self.path, f"bad magic {magic!r} (not a snapshot)")
        actual_crc = zlib.crc32(header[:-4]) & 0xFFFFFFFF
        if actual_crc != header_crc:
            raise _fail(
                self.path,
                f"header checksum mismatch "
                f"(stored {header_crc:#x}, computed {actual_crc:#x})",
            )
        if version not in SUPPORTED_VERSIONS:
            raise _fail(
                self.path,
                f"unsupported format version {version} "
                f"(this build reads versions "
                f"{', '.join(map(str, SUPPORTED_VERSIONS))})",
            )
        if toc_offset + toc_length > size:
            raise _fail(
                self.path,
                f"table of contents [{toc_offset}, "
                f"{toc_offset + toc_length}) lies beyond the "
                f"{size}-byte file (truncated?)",
            )
        toc_raw = bytes(self._view[toc_offset : toc_offset + toc_length])
        actual_crc = zlib.crc32(toc_raw) & 0xFFFFFFFF
        if actual_crc != toc_crc:
            raise _fail(
                self.path,
                f"table-of-contents checksum mismatch "
                f"(stored {toc_crc:#x}, computed {actual_crc:#x})",
            )
        try:
            toc = json.loads(toc_raw.decode("utf-8"))
            entries = toc["sections"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise _fail(
                self.path, f"unreadable table of contents ({exc})"
            ) from exc
        sections: Dict[str, Tuple[int, int]] = {}
        self.toc = entries
        for entry in entries:
            name = entry["name"]
            offset, length = int(entry["offset"]), int(entry["length"])
            if offset + length > size:
                raise _fail(
                    self.path,
                    f"section {name!r} [{offset}, {offset + length}) lies "
                    f"beyond the {size}-byte file (truncated?)",
                )
            if verify:
                actual = (
                    zlib.crc32(self._view[offset : offset + length])
                    & 0xFFFFFFFF
                )
                if actual != int(entry["crc32"]):
                    raise _fail(
                        self.path,
                        f"section {name!r} checksum mismatch (stored "
                        f"{int(entry['crc32']):#x}, computed {actual:#x}) "
                        f"— the image is corrupt",
                    )
            sections[name] = (offset, length)
        return sections

    def raw(self, name: str) -> memoryview:
        try:
            offset, length = self._sections[name]
        except KeyError:
            raise _fail(self.path, f"missing section {name!r}") from None
        return self._view[offset : offset + length]

    def arr(self, name: str, code: str) -> memoryview:
        view = self.raw(name)
        try:
            return view.cast(code)
        except (TypeError, ValueError) as exc:
            raise _fail(
                self.path,
                f"section {name!r} is not a whole number of "
                f"{code!r} elements ({exc})",
            ) from exc

    def js(self, name: str) -> Any:
        raw = bytes(self.raw(name))
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _fail(
                self.path, f"section {name!r} is not valid JSON ({exc})"
            ) from exc

    def has(self, name: str) -> bool:
        return name in self._sections

    def close(self) -> None:
        """Best-effort unmap; exported views keep the mapping alive."""
        try:
            self._view.release()
        except BufferError:
            return
        try:
            self._mmap.close()
        except BufferError:
            pass
        self._file.close()


class _StringTable:
    """Lazily decoded string table over blob + offset windows."""

    __slots__ = ("_blob", "_offsets", "_cache")

    def __init__(self, blob: memoryview, offsets: memoryview) -> None:
        self._blob = blob
        self._offsets = offsets
        self._cache: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def raw(self, index: int) -> bytes:
        return bytes(
            self._blob[self._offsets[index] : self._offsets[index + 1]]
        )

    def get(self, index: int) -> str:
        cached = self._cache.get(index)
        if cached is None:
            cached = self.raw(index).decode("utf-8")
            self._cache[index] = cached
        return cached

    def find(self, text: str) -> int:
        """Binary search (UTF-8 byte order == code-point order)."""
        target = text.encode("utf-8")
        lo, hi = 0, len(self)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.raw(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self) and self.raw(lo) == target:
            return lo
        return -1


class _IdTable:
    """The shared sorted id table with per-id component flags."""

    __slots__ = ("strings", "flags")

    def __init__(self, strings: _StringTable, flags: memoryview) -> None:
        self.strings = strings
        self.flags = flags

    def __len__(self) -> int:
        return len(self.strings)

    def find(self, entity_id: EntityId) -> int:
        return self.strings.find(entity_id)

    def get(self, index: int) -> EntityId:
        return self.strings.get(index)


class SnapshotVocabulary:
    """Read-only :class:`Vocabulary` twin backed by the snapshot.

    ``intern`` resolves existing words but refuses to grow the table —
    nothing on the serving path interns new words (the compile step
    interned the full store vocabulary eagerly).
    """

    __slots__ = ("_strings", "_perm", "_ids")

    def __init__(self, strings: _StringTable, perm: memoryview) -> None:
        self._strings = strings
        self._perm = perm
        self._ids: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, word: str) -> bool:
        return self.id_of(word) != UNKNOWN

    def id_of(self, word: str) -> int:
        cached = self._ids.get(word)
        if cached is not None:
            return cached
        target = word.encode("utf-8")
        strings, perm = self._strings, self._perm
        lo, hi = 0, len(perm)
        while lo < hi:
            mid = (lo + hi) // 2
            if strings.raw(perm[mid]) < target:
                lo = mid + 1
            else:
                hi = mid
        wid = UNKNOWN
        if lo < len(perm) and strings.raw(perm[lo]) == target:
            wid = perm[lo]
        self._ids[word] = wid
        return wid

    def word_of(self, wid: int) -> str:
        if wid < 0 or wid >= len(self._strings):
            raise IndexError(f"unknown word id {wid}")
        return self._strings.get(wid)

    def intern(self, word: str) -> int:
        wid = self.id_of(word)
        if wid == UNKNOWN:
            raise SnapshotError(
                f"cannot intern new word {word!r} into a read-only "
                f"snapshot vocabulary"
            )
        return wid

    def intern_all(self, words: Iterable[str]) -> None:
        for word in words:
            self.intern(word)

    def words(self) -> List[str]:
        """All words in interning order."""
        return [self._strings.get(i) for i in range(len(self._strings))]


# ----------------------------------------------------------------------
# Component facades
# ----------------------------------------------------------------------
def _read_only(what: str) -> SnapshotError:
    return SnapshotError(
        f"snapshot-backed {what} is read-only; use editable_copy() / "
        f"materialize() for a mutable in-memory copy"
    )


class _EntityTable(MappingABC):
    """Lazy ``Mapping[EntityId, Entity]`` over the snapshot id table."""

    def __init__(self, image: _Image, ids: _IdTable) -> None:
        self._ids = ids
        self._names = _StringTable(
            image.raw("ent/name_blob"), image.arr("ent/name_offsets", "q")
        )
        self._domains = _StringTable(
            image.raw("ent/domain_blob"), image.arr("ent/domain_offsets", "q")
        )
        self._popularity = image.arr("ent/popularity", "d")
        self._types = _StringTable(
            image.raw("types/blob"), image.arr("types/offsets", "q")
        )
        self._type_offsets = image.arr("ent/type_offsets", "q")
        self._type_ids = image.arr("ent/type_ids", "i")
        self._cache: Dict[int, Entity] = {}
        self._count: Optional[int] = None

    def _row(self, entity_id: EntityId) -> int:
        index = self._ids.find(entity_id)
        if index < 0 or not self._ids.flags[index] & _FLAG_ENTITY:
            return -1
        return index

    def _entity(self, index: int) -> Entity:
        cached = self._cache.get(index)
        if cached is None:
            lo = self._type_offsets[index]
            hi = self._type_offsets[index + 1]
            cached = Entity(
                entity_id=self._ids.get(index),
                canonical_name=self._names.get(index),
                types=tuple(
                    self._types.get(self._type_ids[i]) for i in range(lo, hi)
                ),
                domain=self._domains.get(index),
                popularity=self._popularity[index],
            )
            self._cache[index] = cached
        return cached

    def __getitem__(self, entity_id: EntityId) -> Entity:
        index = self._row(entity_id)
        if index < 0:
            raise KeyError(entity_id)
        return self._entity(index)

    def __contains__(self, entity_id: object) -> bool:
        return isinstance(entity_id, str) and self._row(entity_id) >= 0

    def get(self, entity_id: EntityId, default: Any = None) -> Any:
        index = self._row(entity_id)
        return self._entity(index) if index >= 0 else default

    def __iter__(self) -> Iterator[EntityId]:
        flags = self._ids.flags
        for index in range(len(self._ids)):
            if flags[index] & _FLAG_ENTITY:
                yield self._ids.get(index)

    def __len__(self) -> int:
        if self._count is None:
            flags = self._ids.flags
            self._count = sum(
                1 for i in range(len(self._ids)) if flags[i] & _FLAG_ENTITY
            )
        return self._count


class SnapshotDictionary(Dictionary):
    """Read-only, lazily decoded mention dictionary."""

    def __init__(self, image: _Image, ids: _IdTable) -> None:
        # Deliberately no super().__init__(): state lives in the image.
        self._ids = ids
        self._keys = _StringTable(
            image.raw("dict/key_blob"), image.arr("dict/key_offsets", "q")
        )
        self._names = _StringTable(
            image.raw("dict/name_blob"), image.arr("dict/name_offsets", "q")
        )
        self._ent_offsets = image.arr("dict/ent_offsets", "q")
        self._ent_ids = image.arr("dict/ent_ids", "i")
        self._ent_sources = image.raw("dict/ent_sources")
        self._ent_anchors = image.arr("dict/ent_anchors", "q")
        self._names_idx = image.arr("dict/names_idx", "q")
        self._names_of = _StringTable(
            image.raw("dict/names_blob"), image.arr("dict/names_offsets", "q")
        )
        self._record_cache: Dict[int, NameRecord] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def add_name(self, name, entity_id, source, anchor_count=0):
        raise _read_only("dictionary")

    def merge_counts(self, counts):
        raise _read_only("dictionary")

    def record_for(self, name: str) -> Optional[NameRecord]:
        index = self._keys.find(match_key(name))
        if index < 0:
            return None
        record = self._record_cache.get(index)
        if record is None:
            entities: Dict[EntityId, Set[str]] = {}
            anchor_counts: Dict[EntityId, int] = {}
            for i in range(
                self._ent_offsets[index], self._ent_offsets[index + 1]
            ):
                eid = self._ids.get(self._ent_ids[i])
                mask = self._ent_sources[i]
                entities[eid] = {
                    source for source, bit in _SOURCE_BITS if mask & bit
                }
                anchors = self._ent_anchors[i]
                if anchors:
                    anchor_counts[eid] = anchors
            record = NameRecord(
                name=self._names.get(index),
                entities=entities,
                anchor_counts=anchor_counts,
            )
            record = self._record_cache.setdefault(index, record)
        return record

    def names_of(self, entity_id: EntityId) -> List[str]:
        index = self._ids.find(entity_id)
        if index < 0:
            return []
        return [
            self._names_of.get(i)
            for i in range(self._names_idx[index], self._names_idx[index + 1])
        ]

    def all_names(self) -> List[str]:
        return sorted(self._names.get(i) for i in range(len(self._names)))

    def entity_ids(self) -> List[EntityId]:
        return [
            self._ids.get(i)
            for i in range(len(self._ids))
            if self._names_idx[i + 1] > self._names_idx[i]
        ]

    def materialize(self) -> Dictionary:
        """A mutable in-memory :class:`Dictionary` with identical content."""
        dictionary = Dictionary()
        for name in self.all_names():
            record = self.record_for(name)
            for eid in sorted(record.entities):
                anchors = record.anchor_counts.get(eid, 0)
                for source in sorted(record.entities[eid]):
                    dictionary.add_name(
                        name,
                        eid,
                        source,
                        anchor_count=anchors
                        if source == SOURCE_ANCHOR
                        else 0,
                    )
        return dictionary


class SnapshotLinkGraph(LinkGraph):
    """Read-only CSR link graph decoding neighbour sets lazily."""

    def __init__(self, image: _Image, ids: _IdTable) -> None:
        self._ids = ids
        self._out_offsets = image.arr("links/out_offsets", "q")
        self._out_ids = image.arr("links/out_ids", "i")
        self._in_offsets = image.arr("links/in_offsets", "q")
        self._in_ids = image.arr("links/in_ids", "i")
        self._out_cache: Dict[int, FrozenSet[EntityId]] = {}
        self._in_cache: Dict[int, FrozenSet[EntityId]] = {}

    def add_link(self, source, target):
        raise _read_only("link graph")

    def add_links(self, edges):
        raise _read_only("link graph")

    def _decode(self, index, offsets, pool, cache) -> FrozenSet[EntityId]:
        cached = cache.get(index)
        if cached is None:
            cached = frozenset(
                self._ids.get(pool[i])
                for i in range(offsets[index], offsets[index + 1])
            )
            cache[index] = cached
        return cached

    def outlinks(self, entity_id: EntityId) -> FrozenSet[EntityId]:
        index = self._ids.find(entity_id)
        if index < 0:
            return frozenset()
        return self._decode(
            index, self._out_offsets, self._out_ids, self._out_cache
        )

    def inlinks(self, entity_id: EntityId) -> FrozenSet[EntityId]:
        index = self._ids.find(entity_id)
        if index < 0:
            return frozenset()
        return self._decode(
            index, self._in_offsets, self._in_ids, self._in_cache
        )

    def outlink_count(self, entity_id: EntityId) -> int:
        index = self._ids.find(entity_id)
        if index < 0:
            return 0
        return self._out_offsets[index + 1] - self._out_offsets[index]

    def inlink_count(self, entity_id: EntityId) -> int:
        index = self._ids.find(entity_id)
        if index < 0:
            return 0
        return self._in_offsets[index + 1] - self._in_offsets[index]

    def has_link(self, source: EntityId, target: EntityId) -> bool:
        return target in self.outlinks(source)

    def shared_inlinks(self, a: EntityId, b: EntityId) -> int:
        ins_a, ins_b = self.inlinks(a), self.inlinks(b)
        if len(ins_a) > len(ins_b):
            ins_a, ins_b = ins_b, ins_a
        return sum(1 for node in ins_a if node in ins_b)

    @property
    def edge_count(self) -> int:
        return len(self._out_ids)

    def _degree(self, index: int) -> int:
        return (
            self._out_offsets[index + 1]
            - self._out_offsets[index]
            + self._in_offsets[index + 1]
            - self._in_offsets[index]
        )

    def node_count(self) -> int:
        return sum(
            1 for i in range(len(self._ids)) if self._degree(i) > 0
        )

    def nodes(self) -> List[EntityId]:
        return [
            self._ids.get(i)
            for i in range(len(self._ids))
            if self._degree(i) > 0
        ]

    def degree_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for index in range(len(self._ids)):
            if self._degree(index) > 0:
                count = self._in_offsets[index + 1] - self._in_offsets[index]
                hist[count] = hist.get(count, 0) + 1
        return hist


class SnapshotKeyphraseStore(KeyphraseStore):
    """Read-only keyphrase store decoding per-entity models lazily."""

    def __init__(
        self, image: _Image, ids: _IdTable, vocab: SnapshotVocabulary
    ) -> None:
        self._ids = ids
        self._vocab = vocab
        self._ent_offsets = image.arr("kp/ent_offsets", "q")
        self._kp_offsets = image.arr("kp/phrase_offsets", "q")
        self._tokens = image.arr("kp/tokens", "i")
        self._counts = image.arr("kp/counts", "q")
        self._word_df_arr = image.arr("kp/word_df", "q")
        self._phrase_cache: Dict[int, Dict[Phrase, int]] = {}
        self._word_cache: Dict[int, Dict[str, int]] = {}
        self._count: Optional[int] = None
        self._global: Optional[
            Tuple[Dict[Phrase, Set[EntityId]], Dict[str, Set[EntityId]]]
        ] = None

    def _row(self, entity_id: EntityId) -> int:
        index = self._ids.find(entity_id)
        if index < 0 or not self._ids.flags[index] & _FLAG_STORE:
            return -1
        return index

    def _phrase_dict(self, index: int) -> Dict[Phrase, int]:
        cached = self._phrase_cache.get(index)
        if cached is None:
            word_of = self._vocab.word_of
            cached = {}
            for p in range(
                self._ent_offsets[index], self._ent_offsets[index + 1]
            ):
                phrase = tuple(
                    word_of(self._tokens[t])
                    for t in range(self._kp_offsets[p], self._kp_offsets[p + 1])
                )
                cached[phrase] = self._counts[p]
            cached = self._phrase_cache.setdefault(index, cached)
        return cached

    def _word_dict(self, index: int) -> Dict[str, int]:
        cached = self._word_cache.get(index)
        if cached is None:
            cached = {}
            for phrase, count in self._phrase_dict(index).items():
                for word in phrase:
                    cached[word] = cached.get(word, 0) + count
            cached = self._word_cache.setdefault(index, cached)
        return cached

    def __len__(self) -> int:
        return self.entity_count

    def __contains__(self, entity_id: EntityId) -> bool:
        return self._row(entity_id) >= 0

    @property
    def entity_count(self) -> int:
        if self._count is None:
            flags = self._ids.flags
            self._count = sum(
                1 for i in range(len(self._ids)) if flags[i] & _FLAG_STORE
            )
        return self._count

    def ensure_entity(self, entity_id: EntityId) -> None:
        if self._row(entity_id) < 0:
            raise _read_only("keyphrase store")

    def add_keyphrase(self, entity_id, phrase, count=1):
        raise _read_only("keyphrase store")

    def keyphrases(self, entity_id: EntityId) -> List[Phrase]:
        index = self._row(entity_id)
        if index < 0:
            return []
        return sorted(self._phrase_dict(index))

    def keyphrase_counts(self, entity_id: EntityId) -> Dict[Phrase, int]:
        index = self._row(entity_id)
        if index < 0:
            return {}
        return dict(self._phrase_dict(index))

    def keywords(self, entity_id: EntityId) -> List[str]:
        index = self._row(entity_id)
        if index < 0:
            return []
        return sorted(self._word_dict(index))

    def keyword_counts(self, entity_id: EntityId) -> Dict[str, int]:
        index = self._row(entity_id)
        if index < 0:
            return {}
        return dict(self._word_dict(index))

    def has_word(self, entity_id: EntityId, word: str) -> bool:
        index = self._row(entity_id)
        return index >= 0 and word in self._word_dict(index)

    def has_phrase(self, entity_id: EntityId, phrase: Phrase) -> bool:
        index = self._row(entity_id)
        return index >= 0 and phrase in self._phrase_dict(index)

    def _inverted(
        self,
    ) -> Tuple[Dict[Phrase, Set[EntityId]], Dict[str, Set[EntityId]]]:
        if self._global is None:
            by_phrase: Dict[Phrase, Set[EntityId]] = {}
            by_word: Dict[str, Set[EntityId]] = {}
            flags = self._ids.flags
            for index in range(len(self._ids)):
                if not flags[index] & _FLAG_STORE:
                    continue
                eid = self._ids.get(index)
                for phrase in self._phrase_dict(index):
                    by_phrase.setdefault(phrase, set()).add(eid)
                for word in self._word_dict(index):
                    by_word.setdefault(word, set()).add(eid)
            self._global = (by_phrase, by_word)
        return self._global

    def phrase_df(self, phrase: Phrase) -> int:
        return len(self._inverted()[0].get(phrase, ()))

    def word_df(self, word: str) -> int:
        wid = self._vocab.id_of(word)
        if wid == UNKNOWN:
            return 0
        return self._word_df_arr[wid]

    def entities_with_word(self, word: str) -> FrozenSet[EntityId]:
        return frozenset(self._inverted()[1].get(word, set()))

    def entities_with_phrase(self, phrase: Phrase) -> FrozenSet[EntityId]:
        return frozenset(self._inverted()[0].get(phrase, set()))

    def entity_ids(self) -> List[EntityId]:
        flags = self._ids.flags
        return [
            self._ids.get(i)
            for i in range(len(self._ids))
            if flags[i] & _FLAG_STORE
        ]

    def vocabulary(self) -> List[str]:
        words = self._vocab.words()
        return sorted(words)

    def top_keyphrases(
        self, entity_id: EntityId, limit: Optional[int] = None
    ) -> List[Phrase]:
        index = self._row(entity_id)
        if index < 0:
            return []
        ordered = sorted(
            self._phrase_dict(index).items(), key=lambda kv: (-kv[1], kv[0])
        )
        if limit is not None:
            ordered = ordered[:limit]
        return [phrase for phrase, _count in ordered]

    def copy(self) -> KeyphraseStore:
        clone = KeyphraseStore()
        for entity_id in self.entity_ids():
            clone.ensure_entity(entity_id)
            for phrase, count in sorted(
                self.keyphrase_counts(entity_id).items()
            ):
                clone.add_keyphrase(entity_id, phrase, count)
        return clone

    def restricted_to(
        self, entity_ids: Iterable[EntityId]
    ) -> KeyphraseStore:
        wanted = set(entity_ids)
        clone = KeyphraseStore()
        for entity_id in sorted(wanted):
            if self._row(entity_id) < 0:
                continue
            clone.ensure_entity(entity_id)
            for phrase, count in sorted(
                self.keyphrase_counts(entity_id).items()
            ):
                clone.add_keyphrase(entity_id, phrase, count)
        return clone


class _CsrIntMap:
    """``{word id -> phrase-index window}`` over sorted CSR windows."""

    __slots__ = ("_wids", "_offsets", "_pids")

    def __init__(
        self, wids: memoryview, offsets: memoryview, pids: memoryview
    ) -> None:
        self._wids = wids
        self._offsets = offsets
        self._pids = pids

    def get(self, wid: int, default: Any = None) -> Any:
        index = bisect_left(self._wids, wid)
        if index < len(self._wids) and self._wids[index] == wid:
            return self._pids[self._offsets[index] : self._offsets[index + 1]]
        return default

    def __len__(self) -> int:
        return len(self._wids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._wids)

    def __getitem__(self, wid: int) -> Any:
        found = self.get(wid)
        if found is None:
            raise KeyError(wid)
        return found


class _SortedPairsMap:
    """``{word id -> float}`` over parallel sorted id/value windows."""

    __slots__ = ("_wids", "_values")

    def __init__(self, wids: memoryview, values: memoryview) -> None:
        self._wids = wids
        self._values = values

    def get(self, wid: int, default: float = 0.0) -> float:
        index = bisect_left(self._wids, wid)
        if index < len(self._wids) and self._wids[index] == wid:
            return self._values[index]
        return default

    def __len__(self) -> int:
        return len(self._wids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._wids)

    def __getitem__(self, wid: int) -> float:
        index = bisect_left(self._wids, wid)
        if index < len(self._wids) and self._wids[index] == wid:
            return self._values[index]
        raise KeyError(wid)


class SnapshotCompiledKeyphrases:
    """Compiled entity models served as memoryview windows.

    Drop-in for :class:`~repro.compiled.keyphrases.CompiledKeyphrases` on
    the scoring path: exposes the same ``scheme`` / ``max_keyphrases`` /
    ``backend`` / ``use_numpy`` / ``vocabulary`` surface plus
    ``sim_model`` / ``kore_model`` / ``index_context`` / ``precompile``.
    Models are *views*, not copies — N workers share the page cache.
    """

    def __init__(
        self,
        image: _Image,
        ids: _IdTable,
        vocabulary: SnapshotVocabulary,
        scheme: str,
        max_keyphrases: Optional[int],
        backend: str,
    ) -> None:
        if backend == "numpy" and not HAVE_NUMPY:
            raise _fail(
                image.path,
                "compiled with backend 'numpy' but numpy is not importable "
                "here; rebuild with --compiled-backend auto or python",
            )
        self._ids = ids
        self.scheme = scheme
        self.max_keyphrases = max_keyphrases
        self.backend = backend
        self.use_numpy = HAVE_NUMPY if backend == "auto" else backend == "numpy"
        self.vocabulary = vocabulary
        self._sim = {
            name: image.arr(f"sim/{name}", code)
            for name, code in (
                ("idx_phrase", "q"),
                ("off_idx", "q"),
                ("idx_tok", "q"),
                ("idx_word", "q"),
                ("wpoff_idx", "q"),
                ("idx_wp", "q"),
                ("phrase_offsets", "q"),
                ("tok_ids", "i"),
                ("tok_weights", "d"),
                ("totals", "d"),
                ("word_ids", "i"),
                ("word_weights", "d"),
                ("wp_offsets", "q"),
                ("wp_ids", "i"),
            )
        }
        self._kore = {
            name: image.arr(f"kore/{name}", code)
            for name, code in (
                ("idx_phrase", "q"),
                ("pwoff_idx", "q"),
                ("idx_pw", "q"),
                ("idx_wtp_w", "q"),
                ("idx_wtp_p", "q"),
                ("wtpoff_idx", "q"),
                ("idx_wg", "q"),
                ("pw_offsets", "q"),
                ("pw_ids", "i"),
                ("pw_gammas", "d"),
                ("phi", "d"),
                ("wtp_wids", "i"),
                ("wtp_offsets", "q"),
                ("wtp_pids", "i"),
                ("wg_wids", "i"),
                ("wg_vals", "d"),
            )
        }
        self._sim_models: Dict[int, SimEntityModel] = {}
        self._kore_models: Dict[int, KoreEntityModel] = {}

    def _row(self, entity_id: EntityId) -> int:
        index = self._ids.find(entity_id)
        if index < 0 or not self._ids.flags[index] & _FLAG_STORE:
            raise SnapshotError(
                f"no compiled keyphrase model for entity {entity_id!r} "
                f"in this snapshot"
            )
        return index

    def sim_model(self, entity_id: EntityId) -> SimEntityModel:
        index = self._row(entity_id)
        model = self._sim_models.get(index)
        if model is None:
            s = self._sim
            model = SimEntityModel(
                s["phrase_offsets"][
                    s["off_idx"][index] : s["off_idx"][index + 1]
                ],
                s["tok_ids"][s["idx_tok"][index] : s["idx_tok"][index + 1]],
                s["tok_weights"][
                    s["idx_tok"][index] : s["idx_tok"][index + 1]
                ],
                s["totals"][
                    s["idx_phrase"][index] : s["idx_phrase"][index + 1]
                ],
                s["word_ids"][
                    s["idx_word"][index] : s["idx_word"][index + 1]
                ],
                s["word_weights"][
                    s["idx_word"][index] : s["idx_word"][index + 1]
                ],
                s["wp_offsets"][
                    s["wpoff_idx"][index] : s["wpoff_idx"][index + 1]
                ],
                s["wp_ids"][s["idx_wp"][index] : s["idx_wp"][index + 1]],
            )
            model = self._sim_models.setdefault(index, model)
        return model

    def kore_model(self, entity_id: EntityId) -> KoreEntityModel:
        index = self._row(entity_id)
        model = self._kore_models.get(index)
        if model is None:
            k = self._kore
            model = KoreEntityModel(
                k["pw_offsets"][
                    k["pwoff_idx"][index] : k["pwoff_idx"][index + 1]
                ],
                k["pw_ids"][k["idx_pw"][index] : k["idx_pw"][index + 1]],
                k["pw_gammas"][k["idx_pw"][index] : k["idx_pw"][index + 1]],
                k["phi"][
                    k["idx_phrase"][index] : k["idx_phrase"][index + 1]
                ],
                _CsrIntMap(
                    k["wtp_wids"][
                        k["idx_wtp_w"][index] : k["idx_wtp_w"][index + 1]
                    ],
                    k["wtp_offsets"][
                        k["wtpoff_idx"][index] : k["wtpoff_idx"][index + 1]
                    ],
                    k["wtp_pids"][
                        k["idx_wtp_p"][index] : k["idx_wtp_p"][index + 1]
                    ],
                ),
                _SortedPairsMap(
                    k["wg_wids"][k["idx_wg"][index] : k["idx_wg"][index + 1]],
                    k["wg_vals"][k["idx_wg"][index] : k["idx_wg"][index + 1]],
                ),
            )
            model = self._kore_models.setdefault(index, model)
        return model

    def precompile(
        self,
        entity_ids: Optional[Iterable[EntityId]] = None,
        kore: bool = False,
    ) -> int:
        if entity_ids is None:
            flags = self._ids.flags
            entity_ids = [
                self._ids.get(i)
                for i in range(len(self._ids))
                if flags[i] & _FLAG_STORE
            ]
        else:
            entity_ids = list(entity_ids)
        for entity_id in entity_ids:
            self.sim_model(entity_id)
            if kore:
                self.kore_model(entity_id)
        return len(entity_ids)

    def index_context(self, context) -> IndexedContext:
        return IndexedContext(context, self.vocabulary)


class SketchTable(MappingABC):
    """Read-only LSH sketch table decoded lazily from the image.

    ``complete`` is True: the table covers every keyphrase-store entity,
    which lets :class:`~repro.relatedness.lsh.KoreLshRelatedness` skip
    its pre-fork ``precompute`` entirely.
    """

    complete = True

    def __init__(
        self, image: _Image, ids: _IdTable, gearing: str, sketch_len: int
    ) -> None:
        self._ids = ids
        self._mask = image.raw(f"lsh/{gearing}/mask")
        self._row_of = image.arr(f"lsh/{gearing}/row_of", "q")
        self._rows = image.arr(f"lsh/{gearing}/rows", "q")
        self._sketch_len = sketch_len
        self._cache: Dict[int, Tuple[int, ...]] = {}
        self._count: Optional[int] = None

    def _sketch_at(self, index: int) -> Optional[Tuple[int, ...]]:
        state = self._mask[index]
        if state == 0:
            return None
        if state == 1:
            return ()
        cached = self._cache.get(index)
        if cached is None:
            start = self._row_of[index] * self._sketch_len
            cached = tuple(self._rows[start : start + self._sketch_len])
            self._cache[index] = cached
        return cached

    def get(self, entity_id: EntityId, default: Any = None) -> Any:
        index = self._ids.find(entity_id)
        if index < 0:
            return default
        sketch = self._sketch_at(index)
        return default if sketch is None else sketch

    def __getitem__(self, entity_id: EntityId) -> Tuple[int, ...]:
        sketch = self.get(entity_id)
        if sketch is None:
            raise KeyError(entity_id)
        return sketch

    def __iter__(self) -> Iterator[EntityId]:
        for index in range(len(self._ids)):
            if self._mask[index]:
                yield self._ids.get(index)

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for state in self._mask if state)
        return self._count


class SnapshotKnowledgeBase(KnowledgeBase):
    """Read-only :class:`KnowledgeBase` over a mapped snapshot image."""

    def __init__(self, snapshot: "Snapshot") -> None:
        # Deliberately no super().__init__(): every component is a lazy
        # facade over the image, wired below as cached attributes.
        self._snapshot = snapshot

    @property
    def taxonomy(self) -> Taxonomy:
        return self._snapshot.taxonomy

    @property
    def dictionary(self) -> SnapshotDictionary:
        return self._snapshot.dictionary

    @property
    def links(self) -> SnapshotLinkGraph:
        return self._snapshot.links

    @property
    def keyphrases(self) -> SnapshotKeyphraseStore:
        return self._snapshot.store

    @property
    def triples(self) -> TripleStore:
        return self._snapshot.triples

    @property
    def _entities(self) -> _EntityTable:
        return self._snapshot.entity_table

    def add_entity(self, entity: Entity) -> None:
        raise _read_only("knowledge base")

    def materialize(self) -> KnowledgeBase:
        """A fully in-memory, mutable KB with identical content."""
        taxonomy = Taxonomy(
            {
                type_name: tuple(self.taxonomy.parents(type_name))
                for type_name in self.taxonomy.types
                if type_name != ROOT_TYPE
            }
        )
        kb = KnowledgeBase(
            taxonomy=taxonomy,
            dictionary=self.dictionary.materialize(),
            keyphrases=self.keyphrases.copy(),
        )
        kb._entities = {eid: entity for eid, entity in self._entities.items()}
        for source in self.links.nodes():
            for target in sorted(self.links.outlinks(source)):
                kb.links.add_link(source, target)
        for triple in self.triples.match():
            kb.triples.add(*triple.as_tuple())
        return kb

    def editable_copy(self) -> KnowledgeBase:
        view = KnowledgeBase(
            taxonomy=self.taxonomy,
            dictionary=self.dictionary.materialize(),
            links=self.links,
            keyphrases=self.keyphrases.copy(),
            triples=self._snapshot._build_triples(),
        )
        view._entities = dict(self._entities)
        return view


# ----------------------------------------------------------------------
# The snapshot handle
# ----------------------------------------------------------------------
class Snapshot:
    """An open snapshot: lazy component facades plus pipeline assembly."""

    def __init__(self, image: _Image, manifest: Dict[str, Any]) -> None:
        self._image = image
        self.manifest = manifest
        self._cache: Dict[str, Any] = {}

    @property
    def path(self) -> str:
        return self._image.path

    def _cached(self, name: str, builder) -> Any:
        found = self._cache.get(name)
        if found is None:
            found = builder()
            self._cache[name] = found
        return found

    @property
    def id_table(self) -> _IdTable:
        return self._cached(
            "id_table",
            lambda: _IdTable(
                _StringTable(
                    self._image.raw("ids/blob"),
                    self._image.arr("ids/offsets", "q"),
                ),
                self._image.raw("ids/flags"),
            ),
        )

    @property
    def vocabulary(self) -> SnapshotVocabulary:
        return self._cached(
            "vocabulary",
            lambda: SnapshotVocabulary(
                _StringTable(
                    self._image.raw("vocab/blob"),
                    self._image.arr("vocab/offsets", "q"),
                ),
                self._image.arr("vocab/perm", "i"),
            ),
        )

    @property
    def entity_table(self) -> _EntityTable:
        return self._cached(
            "entity_table", lambda: _EntityTable(self._image, self.id_table)
        )

    @property
    def taxonomy(self) -> Taxonomy:
        return self._cached(
            "taxonomy",
            lambda: Taxonomy(
                {
                    type_name: tuple(parents)
                    for type_name, parents in self._image.js(
                        "taxonomy"
                    ).items()
                }
            ),
        )

    def _build_triples(self) -> TripleStore:
        triples = TripleStore()
        for subject, predicate, obj in self._image.js("triples"):
            triples.add(subject, predicate, obj)
        return triples

    @property
    def triples(self) -> TripleStore:
        return self._cached("triples", self._build_triples)

    @property
    def dictionary(self) -> SnapshotDictionary:
        return self._cached(
            "dictionary",
            lambda: SnapshotDictionary(self._image, self.id_table),
        )

    @property
    def links(self) -> SnapshotLinkGraph:
        return self._cached(
            "links", lambda: SnapshotLinkGraph(self._image, self.id_table)
        )

    @property
    def store(self) -> SnapshotKeyphraseStore:
        return self._cached(
            "store",
            lambda: SnapshotKeyphraseStore(
                self._image, self.id_table, self.vocabulary
            ),
        )

    @property
    def kb(self) -> SnapshotKnowledgeBase:
        return self._cached("kb", lambda: SnapshotKnowledgeBase(self))

    @property
    def compiled(self) -> SnapshotCompiledKeyphrases:
        return self._cached(
            "compiled",
            lambda: SnapshotCompiledKeyphrases(
                self._image,
                self.id_table,
                self.vocabulary,
                scheme=self.manifest["scheme"],
                max_keyphrases=self.manifest["max_keyphrases"],
                backend=self.manifest["backend"],
            ),
        )

    @property
    def weights(self) -> WeightModel:
        return self._cached(
            "weights", lambda: WeightModel(self.store, self.links)
        )

    @property
    def has_embeddings(self) -> bool:
        """Whether this image carries the optional ``emb/*`` sections."""
        return self._image.has("emb/meta")

    def _build_embeddings(self):
        import numpy as np

        from repro.embeddings.model import EmbeddingModel

        meta = self._image.js("emb/meta")
        dim = int(meta["dim"])
        words_table = _StringTable(
            self._image.raw("emb/word_blob"),
            self._image.arr("emb/word_offsets", "q"),
        )
        words = [words_table.get(i) for i in range(len(words_table))]
        ents_table = _StringTable(
            self._image.raw("emb/ent_blob"),
            self._image.arr("emb/ent_offsets", "q"),
        )
        entity_ids = [ents_table.get(i) for i in range(len(ents_table))]
        word_vecs = np.frombuffer(
            self._image.raw("emb/word_vecs"), dtype=np.float32
        ).reshape(len(words), dim)
        ent_vecs = np.frombuffer(
            self._image.raw("emb/ent_vecs"), dtype=np.float32
        ).reshape(len(entity_ids), dim)
        return EmbeddingModel(
            words=words,
            entity_ids=entity_ids,
            word_vectors=word_vecs,
            entity_vectors=ent_vecs,
            meta=meta.get("meta", {}),
        )

    @property
    def embeddings(self):
        """The embedded :class:`EmbeddingModel`; matrices stay mapped."""
        if not self.has_embeddings:
            raise _fail(
                self.path,
                "no embedding sections; rebuild with --embeddings",
            )
        return self._cached("embeddings", self._build_embeddings)

    def sketches(self, gearing: str) -> SketchTable:
        settings = self.manifest.get("lsh", {}).get(gearing)
        if settings is None or not self._image.has(f"lsh/{gearing}/mask"):
            raise _fail(
                self.path,
                f"no LSH sketch table for gearing {gearing!r}; rebuild "
                f"the snapshot with that gearing included",
            )
        return self._cached(
            f"sketches/{gearing}",
            lambda: SketchTable(
                self._image,
                self.id_table,
                gearing,
                int(settings["sketch_len"]),
            ),
        )

    def pipeline_parts(self, config) -> Dict[str, Any]:
        """:func:`repro.core.spec.assemble_pipeline` keyword arguments:
        this image's models for a pipeline serving *config*."""
        compiled = None
        if config.use_compiled:
            compiled = self.compiled
            if config.keyword_weight_scheme != compiled.scheme:
                raise _fail(
                    self.path,
                    f"compiled with scheme {compiled.scheme!r} but the "
                    f"pipeline wants {config.keyword_weight_scheme!r}; "
                    f"rebuild with --scheme {config.keyword_weight_scheme}",
                )
            if (config.max_keyphrases or None) != compiled.max_keyphrases:
                raise _fail(
                    self.path,
                    f"compiled with max_keyphrases="
                    f"{compiled.max_keyphrases!r} but the pipeline wants "
                    f"{config.max_keyphrases or None!r}; rebuild to match",
                )
        sketches = None
        backend = config.relatedness_backend
        for gearing, backend_name in GEARINGS.items():
            if backend == backend_name:
                sketches = self.sketches(gearing)
        # Embedded matrices win; a config needing embeddings over an
        # image without them (a version-1 snapshot, or one built without
        # --embeddings) falls back to the pipeline's deterministic
        # on-demand training over the snapshot facades.
        embedding_model = None
        if config.needs_embeddings and self.has_embeddings:
            embedding_model = self.embeddings
        return {
            "keyphrase_store": self.store,
            "weight_model": self.weights,
            "compiled_keyphrases": compiled,
            "embedding_model": embedding_model,
            "sketches": sketches,
        }

    def pipeline(self, config=None):
        """Assemble an :class:`AidaDisambiguator` over snapshot facades."""
        from repro.core.config import AidaConfig
        from repro.core.spec import assemble_pipeline

        config = config if config is not None else AidaConfig.full()
        return assemble_pipeline(
            self.kb, config, **self.pipeline_parts(config)
        )

    def sections(self) -> List[Dict[str, Any]]:
        """The table of contents (name/offset/length/crc per section)."""
        return [dict(entry) for entry in self._image.toc]

    def close(self) -> None:
        self._image.close()


def load_snapshot(path: str, verify: bool = True) -> Snapshot:
    """Map a snapshot image; verifies every checksum unless ``verify=False``.

    Raises :class:`SnapshotError` (a :class:`PermanentError`) on any
    missing, truncated, or corrupt image — never serves a wrong answer.
    """
    image = _Image(path, verify=verify)
    try:
        manifest = image.js("manifest")
    except SnapshotError:
        image.close()
        raise
    if manifest.get("format") not in SUPPORTED_VERSIONS:
        image.close()
        raise _fail(
            path,
            f"manifest format {manifest.get('format')!r} is not a "
            f"supported container version "
            f"({', '.join(map(str, SUPPORTED_VERSIONS))})",
        )
    return Snapshot(image, manifest)


def inspect_snapshot(path: str) -> Dict[str, Any]:
    """Manifest plus section layout, for ``repro snapshot inspect``."""
    snapshot = load_snapshot(path, verify=True)
    try:
        return {
            "path": os.path.abspath(path),
            "file_bytes": os.path.getsize(path),
            "manifest": snapshot.manifest,
            "sections": snapshot.sections(),
        }
    finally:
        snapshot.close()
