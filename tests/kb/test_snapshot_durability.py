"""Snapshot corruption and durability: fail loudly, never answer wrongly.

Every way an image can go bad on disk — truncation, a flipped byte, a
foreign magic, a future format version, a crash mid-write — must raise
:class:`SnapshotError` (classified :class:`PermanentError`) with a
message naming the file and the problem, and must never leave a torn
image at the destination path.  A Hypothesis property then pins the
format's determinism: build → load → rebuild is byte-stable for
arbitrary seeded worlds.
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.wikipedia import build_world_kb
from repro.datagen.world import World, WorldConfig
from repro.errors import PermanentError
from repro.kb.snapshot import (
    _HEADER,
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    SnapshotError,
    _SectionWriter,
    build_snapshot,
    load_snapshot,
)

from tests.faults.chaos import Fault, Trigger


def _fault_section_writes(monkeypatch, fault: Fault, seed: int = 0):
    """Fire *fault*'s trigger before every section the writer adds."""
    trigger = Trigger(fault, seed)
    monkeypatch.setattr(
        _SectionWriter, "add", trigger.wrap(_SectionWriter.add)
    )
    return trigger


@pytest.fixture(scope="module")
def small_kb():
    world = World.generate(WorldConfig(seed=41, clusters_per_domain=2))
    kb, _wiki = build_world_kb(world, seed=135)
    return kb


@pytest.fixture()
def image(small_kb, tmp_path):
    path = str(tmp_path / "kb.snap")
    build_snapshot(small_kb, path)
    return path


def _assert_rejected(path: str):
    """Loading must raise a SnapshotError that is a PermanentError and
    names the offending file."""
    with pytest.raises(SnapshotError) as excinfo:
        snapshot = load_snapshot(path)
        snapshot.close()
    assert isinstance(excinfo.value, PermanentError)
    assert os.path.basename(path) in str(excinfo.value)
    return excinfo.value


def test_missing_file_is_permanent(tmp_path):
    _assert_rejected(str(tmp_path / "absent.snap"))


@pytest.mark.parametrize("keep", [0, 17, HEADER_SIZE - 1])
def test_truncated_below_header(image, keep):
    with open(image, "r+b") as handle:
        handle.truncate(keep)
    _assert_rejected(image)


@pytest.mark.parametrize("fraction", [0.3, 0.7, 0.999])
def test_truncated_body(image, fraction):
    """Cutting anywhere in the body loses the TOC or a section."""
    size = os.path.getsize(image)
    with open(image, "r+b") as handle:
        handle.truncate(max(HEADER_SIZE, int(size * fraction)))
    _assert_rejected(image)


@pytest.mark.parametrize("fraction", [0.1, 0.4, 0.8])
def test_flipped_byte_is_caught_by_checksum(image, fraction):
    size = os.path.getsize(image)
    offset = int(size * fraction)
    with open(image, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    _assert_rejected(image)


def test_wrong_magic(image):
    with open(image, "r+b") as handle:
        handle.write(b"NOTASNAP")
    error = _assert_rejected(image)
    assert "magic" in str(error)


def test_wrong_version(image):
    """A future format version is rejected *as a version problem* — the
    header checksum is re-sealed so the check under test is reached."""
    with open(image, "r+b") as handle:
        header = bytearray(handle.read(HEADER_SIZE))
        struct.pack_into("<I", header, len(MAGIC), 999)
        crc = zlib.crc32(bytes(header[: _HEADER.size - 4])) & 0xFFFFFFFF
        struct.pack_into("<I", header, _HEADER.size - 4, crc)
        handle.seek(0)
        handle.write(header)
    error = _assert_rejected(image)
    assert "version" in str(error)


def test_corrupt_header_checksum(image):
    with open(image, "r+b") as handle:
        handle.seek(len(MAGIC))  # version field, CRC left stale
        handle.write(struct.pack("<I", FORMAT_VERSION + 1))
    _assert_rejected(image)


def test_partial_write_never_touches_destination(
    small_kb, tmp_path, monkeypatch
):
    """A fault mid-write (raised by a section write) aborts the build,
    removes the temp file, and leaves a pre-existing destination image
    byte-identical and loadable."""
    path = str(tmp_path / "kb.snap")
    build_snapshot(small_kb, path)
    with open(path, "rb") as handle:
        before = handle.read()
    trigger = _fault_section_writes(
        monkeypatch,
        # Let a few sections through so the crash lands mid-image.
        Fault("snapshot", kind="permanent", max_faults=1, rate=0.25),
        seed=5,
    )
    with pytest.raises(PermanentError):
        build_snapshot(small_kb, path)
    monkeypatch.undo()
    assert trigger.fired == 1
    assert trigger.calls > 1, "the fault must land mid-image"
    assert [
        name
        for name in os.listdir(tmp_path)
        if name.startswith(".")
    ] == [], "temp file must not survive the aborted build"
    with open(path, "rb") as handle:
        assert handle.read() == before
    snapshot = load_snapshot(path)
    assert snapshot.kb.entity_count == small_kb.entity_count
    snapshot.close()


def test_fresh_build_fault_leaves_nothing(small_kb, tmp_path, monkeypatch):
    """Faulting the very first build leaves no destination at all."""
    path = str(tmp_path / "kb.snap")
    _fault_section_writes(
        monkeypatch, Fault("snapshot", kind="permanent", max_faults=1)
    )
    with pytest.raises(PermanentError):
        build_snapshot(small_kb, path)
    assert os.listdir(tmp_path) == []


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    clusters=st.integers(min_value=1, max_value=2),
)
def test_rebuild_is_byte_stable(tmp_path_factory, seed, clusters):
    """build → load → rebuild produces the identical byte image."""
    directory = tmp_path_factory.mktemp("snapstable")
    world = World.generate(
        WorldConfig(seed=seed, clusters_per_domain=clusters)
    )
    kb, _wiki = build_world_kb(world, seed=seed + 94)
    first = str(directory / "first.snap")
    second = str(directory / "second.snap")
    third = str(directory / "third.snap")
    build_snapshot(kb, first)
    build_snapshot(kb, second)
    snapshot = load_snapshot(first)
    build_snapshot(snapshot.kb.materialize(), third)
    snapshot.close()
    with open(first, "rb") as handle:
        reference = handle.read()
    with open(second, "rb") as handle:
        assert handle.read() == reference, "same KB, different bytes"
    with open(third, "rb") as handle:
        assert handle.read() == reference, "round-trip changed the bytes"
