"""Snapshot scale-out: worker attach time and memory vs fork/pickle.

Builds a stress-world KB (:mod:`repro.datagen.stress`, 100k entities by
default), compiles it into one mmap snapshot image, and measures what it
costs to stand up an extra serving worker two ways:

* **baseline** — the fork/pickle path (a `PipelineSpec` over the KB
  directory): each spawned worker re-loads the TSV KB directory and
  rebuilds its models in memory;
* **snapshot** — a `PipelineSpec` over the image: each spawned worker
  maps the read-only image by path; models are typed windows over shared
  pages.

Per worker kind it reports attach wall-time, first-request latency, and
the *extra anonymous memory* the worker holds beyond a bare interpreter
(anonymous pages are the per-worker cost that cannot be shared through
the page cache; the mmap'd image itself is file-backed and shared).

Runs two ways:

* under pytest as a small smoke (2k entities, shape checks only);
* as a script writing ``BENCH_snapshot.json``::

      PYTHONPATH=src:. python benchmarks/bench_snapshot.py \
          --out BENCH_snapshot.json --check

  ``--check`` exits non-zero unless snapshot attach is >= 10x faster
  than fork/pickle and the per-extra-worker anonymous memory is <= 10%
  of the baseline's (the CI ``snapshot-smoke`` gate).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional

#: The ``--check`` gates (acceptance criteria of the snapshot work).
CHECK_ATTACH_SPEEDUP = 10.0
CHECK_MEMORY_RATIO = 0.10

_SMAPS = "/proc/self/smaps_rollup"
_STATUS = "/proc/self/status"


def _memory_kb() -> Dict[str, int]:
    """Resident/anonymous memory of this process, in KiB.

    ``anonymous_kb`` (heap + anonymous mappings) is the per-worker cost:
    file-backed pages — the mmap'd snapshot — are shared across workers
    through the page cache and evictable, anonymous pages are not.
    Falls back to VmRSS-only on kernels without ``smaps_rollup``.
    """
    fields = {"Rss:": 0, "Anonymous:": 0, "Private_Dirty:": 0}
    try:
        with open(_SMAPS, "r", encoding="ascii") as handle:
            for line in handle:
                for key in fields:
                    if line.startswith(key):
                        fields[key] = int(line.split()[1])
    except OSError:
        try:
            with open(_STATUS, "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        fields["Rss:"] = int(line.split()[1])
                        fields["Anonymous:"] = fields["Rss:"]
        except OSError:
            pass
    return {
        "rss_kb": fields["Rss:"],
        "anonymous_kb": fields["Anonymous:"],
        "private_dirty_kb": fields["Private_Dirty:"],
    }


class _NullFactory:
    """Builds nothing: measures the bare-interpreter memory floor."""

    def __call__(self):
        return None


def _worker_probe(factory, text: Optional[str], conn) -> None:
    """Runs in a spawned process: attach, serve one request, report."""
    from repro.ner.recognizer import NamedEntityRecognizer
    from repro.text.tokenizer import tokenize
    from repro.types import Document

    start = time.perf_counter()
    pipeline = factory()
    attach_s = time.perf_counter() - start
    first_request_s = 0.0
    assignments = []
    if pipeline is not None and text:
        start = time.perf_counter()
        recognizer = NamedEntityRecognizer(pipeline.kb.dictionary)
        document = recognizer.recognize(
            Document(doc_id="bench", tokens=tuple(tokenize(text)))
        )
        result = pipeline.disambiguate(document)
        first_request_s = time.perf_counter() - start
        assignments = [
            (a.mention.surface, a.entity) for a in result.assignments
        ]
    payload = {
        "attach_s": attach_s,
        "first_request_s": first_request_s,
        "assignments": assignments,
    }
    payload.update(_memory_kb())
    conn.send(payload)
    conn.close()


def _spawn_probe(factory, text: Optional[str]) -> Dict[str, object]:
    """One worker measurement in a fresh spawned process."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_probe, args=(factory, text, child_conn)
    )
    process.start()
    child_conn.close()
    payload = parent_conn.recv()
    process.join()
    return payload


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_benchmark(
    entities: int, workers: int, keep_dir: Optional[str] = None
) -> Dict[str, object]:
    """Build the stress KB + snapshot and probe both worker kinds."""
    from repro.core.config import AidaConfig
    from repro.core.spec import PipelineSpec
    from repro.datagen.stress import StressConfig, generate_stress_kb
    from repro.kb.io import kb_fingerprint, save_knowledge_base
    from repro.kb.snapshot import build_snapshot, load_snapshot

    record: Dict[str, object] = {"entities": entities, "workers": workers}
    with tempfile.TemporaryDirectory(dir=keep_dir) as workdir:
        start = time.perf_counter()
        kb = generate_stress_kb(StressConfig(entities=entities))
        record["generate_s"] = time.perf_counter() - start

        kb_dir = os.path.join(workdir, "kb")
        start = time.perf_counter()
        save_knowledge_base(kb, kb_dir)
        record["save_tsv_s"] = time.perf_counter() - start

        snap_path = os.path.join(workdir, "kb.snap")
        start = time.perf_counter()
        build_snapshot(
            kb, snap_path, source_fingerprint=kb_fingerprint(kb_dir)
        )
        record["snapshot_build_s"] = time.perf_counter() - start
        record["snapshot_bytes"] = os.path.getsize(snap_path)

        start = time.perf_counter()
        snapshot = load_snapshot(snap_path)
        record["snapshot_load_verify_s"] = time.perf_counter() - start

        # A two-mention request over mid-popularity entities.
        ids = sorted(kb.entity_ids())
        names = [
            kb.entity(ids[len(ids) // 3]).canonical_name,
            kb.entity(ids[len(ids) // 2]).canonical_name,
        ]
        text = f"{names[0]} met {names[1]}"
        snapshot.close()
        del kb  # the probes must not inherit the parent's KB memory

        floor = _spawn_probe(_NullFactory(), None)
        record["interpreter_floor"] = floor

        kinds = {
            "baseline_fork_pickle": PipelineSpec(
                AidaConfig.full(), kb_dir=kb_dir
            ),
            "snapshot_mmap": PipelineSpec(
                AidaConfig.full(), snapshot=snap_path
            ),
        }
        for kind, factory in kinds.items():
            probes = [_spawn_probe(factory, text) for _ in range(workers)]
            answers = {tuple(p["assignments"]) for p in probes}
            record[kind] = {
                "attach_s": _mean([p["attach_s"] for p in probes]),
                "first_request_s": _mean(
                    [p["first_request_s"] for p in probes]
                ),
                "extra_anonymous_kb": _mean(
                    [
                        p["anonymous_kb"] - floor["anonymous_kb"]
                        for p in probes
                    ]
                ),
                "rss_kb": _mean([p["rss_kb"] for p in probes]),
                "consistent_answers": len(answers) == 1,
                "assignments": probes[0]["assignments"],
            }

    baseline = record["baseline_fork_pickle"]
    snap = record["snapshot_mmap"]
    record["attach_speedup"] = (
        baseline["attach_s"] / snap["attach_s"]
        if snap["attach_s"] > 0
        else float("inf")
    )
    record["memory_ratio"] = (
        snap["extra_anonymous_kb"] / baseline["extra_anonymous_kb"]
        if baseline["extra_anonymous_kb"] > 0
        else 0.0
    )
    record["answers_match"] = (
        baseline["consistent_answers"]
        and snap["consistent_answers"]
        and baseline["assignments"] == snap["assignments"]
    )
    return record


def check_gates(record: Dict[str, object]) -> List[str]:
    """The snapshot-smoke CI gates; empty list = all pass."""
    failures: List[str] = []
    if record["attach_speedup"] < CHECK_ATTACH_SPEEDUP:
        failures.append(
            f"snapshot attach is only {record['attach_speedup']:.1f}x "
            f"faster than fork/pickle (need >= {CHECK_ATTACH_SPEEDUP}x)"
        )
    if record["memory_ratio"] > CHECK_MEMORY_RATIO:
        failures.append(
            f"per-extra-worker anonymous memory is "
            f"{100 * record['memory_ratio']:.1f}% of baseline "
            f"(need <= {100 * CHECK_MEMORY_RATIO:.0f}%)"
        )
    if not record["answers_match"]:
        failures.append(
            "snapshot workers answered differently from fork/pickle "
            "workers on the probe request"
        )
    return failures


def _render(record: Dict[str, object]) -> str:
    from benchmarks.common import render_table

    rows = []
    for kind in ("baseline_fork_pickle", "snapshot_mmap"):
        data = record[kind]
        rows.append(
            [
                kind,
                f"{1000 * data['attach_s']:.1f}",
                f"{1000 * data['first_request_s']:.1f}",
                f"{data['extra_anonymous_kb'] / 1024:.1f}",
                f"{data['rss_kb'] / 1024:.1f}",
            ]
        )
    table = render_table(
        [
            "worker kind",
            "attach ms",
            "1st req ms",
            "extra anon MiB",
            "rss MiB",
        ],
        rows,
    )
    summary = (
        f"\n{record['entities']} entities, {record['workers']} workers "
        f"per kind; snapshot {record['snapshot_bytes'] / 1048576:.1f} MiB "
        f"(build {record['snapshot_build_s']:.1f}s, load+verify "
        f"{1000 * record['snapshot_load_verify_s']:.1f}ms)\n"
        f"attach speedup {record['attach_speedup']:.1f}x, "
        f"memory ratio {100 * record['memory_ratio']:.1f}%, "
        f"answers match: {record['answers_match']}"
    )
    return table + summary


def test_snapshot_smoke():
    """Pytest smoke: tiny stress world, shape checks only.

    Wall-clock gates run in the scripted ``--check`` mode at full scale;
    here only the structural claims are asserted — workers of both kinds
    answer identically and the snapshot worker is no heavier.
    """
    from benchmarks.conftest import report

    record = run_benchmark(entities=2_000, workers=1)
    report("Snapshot scale-out - 2k-entity smoke", _render(record))
    assert record["answers_match"]
    assert record["snapshot_mmap"]["attach_s"] > 0
    snap_kb = record["snapshot_mmap"]["extra_anonymous_kb"]
    base_kb = record["baseline_fork_pickle"]["extra_anonymous_kb"]
    assert snap_kb <= base_kb


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--entities", type=int, default=100_000,
        help="stress-world size (the committed record uses 100k)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="spawned worker probes per kind (sequential)",
    )
    parser.add_argument(
        "--out", default="BENCH_snapshot.json", help="JSON output path"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless snapshot attach is >= 10x faster than "
        "fork/pickle with per-extra-worker anonymous memory <= 10% of "
        "baseline and identical answers",
    )
    args = parser.parse_args(argv)

    record = run_benchmark(args.entities, args.workers)
    print(_render(record))

    record = {
        "benchmark": "snapshot_scale_out",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "check_attach_speedup": CHECK_ATTACH_SPEEDUP,
        "check_memory_ratio": CHECK_MEMORY_RATIO,
        **record,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")

    if args.check:
        failures = check_gates(record)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
