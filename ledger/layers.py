"""Per-layer spans and counts, recorded from outside the program.

The traced run wraps each layer's public entry points on the objects the
benchmark builds (instance attributes only; nothing under ``src/`` is
patched) and keeps span dicts in memory.  Self time per layer then comes
from :func:`repro.obs.report.build_report`, which union-merges concurrent
children, so the two-thread batch pass is not double counted.

Span names are the layer names the ledger reports:

========================  ==============================================
``core.batch``            one whole pass (the root span)
``core.pipeline``         one ``disambiguate`` call (one document)
``kb.candidates``         ``KnowledgeBase.candidates``
``embeddings.prune``      ``DensePreRanker.prune``
``similarity.simscores``  ``KeyphraseSimilarity.simscores``
``relatedness.prepare``   the coherence measure's ``prepare``
``relatedness.pairs``     a run of consecutive pair ``relatedness`` calls
``graph.solve``           ``GreedyDenseSubgraph.solve``
========================  ==============================================

Pair calls are far too many for one span each, so consecutive calls are
folded into one span per run: it starts at the run's first call and lasts
the summed call time.  Any other span opening or closing ends the run,
so a folded span never overlaps a sibling and stays inside its parent.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro.obs.report import build_report

ROOT = "core.batch"
DOCUMENT = "core.pipeline"
PAIRS = "relatedness.pairs"

#: The layer spans a document's time is attributed to.
LAYER_SPANS = (
    "kb.candidates",
    "embeddings.prune",
    "similarity.simscores",
    "relatedness.prepare",
    PAIRS,
    "graph.solve",
)


class SpanRecorder:
    """In-memory spans and counters, safe across worker threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else self._root

    def _record(
        self, name: str, span_id: int, parent: Optional[int],
        start: float, duration: float,
    ) -> None:
        span = {
            "name": name,
            "span_id": span_id,
            "parent_id": parent,
            "trace_id": "pass",
            "wall_start": start,
            "duration": duration,
        }
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def span(self, name: str, root: bool = False):
        self._end_pair_run()
        span_id = next(self._ids)
        parent = self._parent()
        if root:
            self._root = span_id
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._end_pair_run()
            stack.pop()
            self._record(name, span_id, parent, start, end - start)
            if root:
                self._root = None

    def _end_pair_run(self) -> None:
        run = getattr(self._local, "run", None)
        if run is None:
            return
        self._local.run = None
        self._record(PAIRS, next(self._ids), self._parent(), run[0], run[1])
        self.count(PAIRS, run[2])

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[SpanRecorder, tuple, Any], None]] = None,
    ) -> Callable:
        """*fn* inside a span called *name*; *on_result* adds counts."""
        span = self.span

        def wrapped(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapped

    def wrap_pairs(self, fn: Callable) -> Callable:
        """*fn* timed into the thread's current run of pair calls."""
        local = self._local
        clock = time.perf_counter

        def wrapped(a, b):
            start = clock()
            value = fn(a, b)
            elapsed = clock() - start
            run = getattr(local, "run", None)
            if run is None:
                local.run = [start, elapsed, 1]
            else:
                run[1] += elapsed
                run[2] += 1
            return value

        return wrapped


class Instrumented:
    """Install the recorder's wrappers on one pipeline; undo on exit.

    Only attributes the pipeline actually has are wrapped, so a layer a
    later change removes simply stops reporting (and its time shows up as
    unattributed ``core.pipeline`` self time).
    """

    def __init__(self, recorder: SpanRecorder, pipeline) -> None:
        self.recorder = recorder
        self.pipeline = pipeline
        self._installed: List[tuple] = []

    def _install(self, target, attr: str, wrapper: Callable) -> None:
        if target is None or not hasattr(target, attr):
            return
        setattr(target, attr, wrapper(getattr(target, attr)))
        self._installed.append((target, attr))

    def __enter__(self) -> "Instrumented":
        rec, pipe = self.recorder, self.pipeline
        self._install(
            pipe, "disambiguate", lambda fn: rec.wrap(DOCUMENT, fn)
        )
        self._install(
            pipe.kb, "candidates", lambda fn: rec.wrap("kb.candidates", fn)
        )
        self._install(
            getattr(pipe, "preranker", None),
            "prune",
            lambda fn: rec.wrap("embeddings.prune", fn, _count_prune),
        )
        self._install(
            pipe.similarity,
            "simscores",
            lambda fn: rec.wrap("similarity.simscores", fn, _count_pool),
        )
        self._install(
            pipe.relatedness,
            "prepare",
            lambda fn: rec.wrap("relatedness.prepare", fn),
        )
        self._install(pipe.relatedness, "relatedness", rec.wrap_pairs)
        self._install(
            getattr(pipe, "_solver", None),
            "solve",
            lambda fn: rec.wrap("graph.solve", fn),
        )
        return self

    def __exit__(self, *exc_info) -> None:
        for target, attr in reversed(self._installed):
            delattr(target, attr)
        self._installed.clear()


def _count_prune(rec: SpanRecorder, args: tuple, result) -> None:
    _pools, pruned, survived = result
    rec.count("embeddings.pruned", pruned)
    rec.count("embeddings.pool_in", pruned + survived)


def _count_pool(rec: SpanRecorder, args: tuple, result) -> None:
    rec.count("similarity.candidates", len(args[1]))


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """``name -> {"count", "total_ms"}`` of self time, via build_report."""
    report = build_report(spans)
    return {
        row["name"]: {"count": row["count"], "total_ms": row["total_ms"]}
        for row in report["stages"]
    }


def attribution(recorder: SpanRecorder, workers: int) -> Dict[str, float]:
    """Split document time between the layers and the pipeline itself.

    ``measured_ms`` is the summed duration of the document spans;
    ``attributed_ms`` adds every layer's self time and the documents' own
    self time.  The two agree when every layer span nests inside its
    document and no two siblings overlap, so a gap means spans escaped
    their parents.  ``unattributed_frac`` is the share of document time
    spent in no wrapped layer.
    """
    selfs = self_times(recorder.spans)
    documents = [s for s in recorder.spans if s["name"] == DOCUMENT]
    roots = [s for s in recorder.spans if s["name"] == ROOT]
    measured = sum(s["duration"] for s in documents) * 1000.0
    core_self = selfs.get(DOCUMENT, {}).get("total_ms", 0.0)
    layer_ms = {
        name: selfs.get(name, {}).get("total_ms", 0.0)
        for name in LAYER_SPANS
    }
    attributed = core_self + sum(layer_ms.values())
    wall = sum(s["duration"] for s in roots) * 1000.0
    return {
        "documents": len(documents),
        "measured_ms": measured,
        "attributed_ms": attributed,
        "gap_frac": abs(measured - attributed) / measured if measured else 0.0,
        "core_self_ms": core_self,
        "unattributed_frac": core_self / measured if measured else 0.0,
        "idle_frac": (
            1.0 - measured / (workers * wall) if wall else 0.0
        ),
        "layer_ms": layer_ms,
        "calls": {
            name: selfs.get(name, {}).get("count", 0)
            for name in LAYER_SPANS
        },
    }
