"""Each layer's marginal worth: rerun a workload with that layer off.

On demand only (``python3 ledger/run.py --workload W --ablation``); not
part of the check.  Every row switches off one layer through the
program's public configuration and reports the change against the
untouched run on the same seed.  A row whose switch no longer exists (a
later change may delete the flag) is skipped with the reason.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from ledger import batchrun, golden, loadgen
from ledger.result import RunResult
from ledger.workloads import Switches


def _has_field(cls, name: str) -> Optional[str]:
    names = {field.name for field in dataclasses.fields(cls)}
    return None if name in names else f"{cls.__name__}.{name} no longer exists"


def _solver_switch() -> Optional[str]:
    from repro.graph.dense_subgraph import DenseSubgraphConfig

    return _has_field(DenseSubgraphConfig, "exact_reference")


def _config_switch(name: str) -> Callable[[], Optional[str]]:
    def check() -> Optional[str]:
        from repro.core.config import AidaConfig

        return _has_field(AidaConfig, name)

    return check


def _cache_switch() -> Optional[str]:
    try:
        from repro.relatedness.caching import CachingRelatedness  # noqa: F401
    except ImportError:
        return "repro.relatedness.caching is gone"
    return None


def _kore_switch() -> Optional[str]:
    from repro.core.config import AidaConfig
    from repro.errors import ReproError

    config = AidaConfig.full()
    config.relatedness_backend = "kore"
    try:
        config.validate()
    except ReproError as exc:
        return f"relatedness backend 'kore' is gone: {exc}"
    return None


def _always() -> Optional[str]:
    return None


#: (switch, what it turns off, workloads it applies to, existence check)
ROWS: Tuple[Tuple[str, str, Tuple[str, ...], Callable], ...] = (
    (
        "solver_heaps", "DenseSubgraphConfig(exact_reference=True)",
        ("conll-batch", "pool40-prerank"), _solver_switch,
    ),
    (
        "compiled", "use_compiled=False",
        ("conll-batch", "pool40-prerank", "serve-http"),
        _config_switch("use_compiled"),
    ),
    ("cache", "no CachingRelatedness", ("conll-batch",), _cache_switch),
    ("lsh", "kore in place of kore_lsh_g", ("conll-batch",), _kore_switch),
    (
        "prerank", "prerank_topk=None", ("pool40-prerank",),
        _config_switch("prerank_topk"),
    ),
    ("snapshot", "--kb in place of --snapshot", ("serve-http",), _always),
)

#: (metric, how a change is shown)
COLUMNS = (
    ("docs_per_s", "ratio"),
    ("p50_ms", "ratio"),
    ("p90_ms", "ratio"),
    ("setup_s", "ratio"),
    ("micro_acc", "points"),
)


def _run(
    root: str, workload: str, seed: int, seconds: float, switches: Switches
) -> RunResult:
    if workload == "conll-batch":
        return batchrun.run_conll(seed, seconds, False, switches)
    if workload == "pool40-prerank":
        return batchrun.run_pool40(seed, seconds, False, switches)
    documents, expected, _frozen = golden.load_golden(root)
    return loadgen.run_serve(
        root, seed, seconds, False, documents, expected, switches
    )


def _delta(base: RunResult, other: RunResult, metric: str, kind: str) -> str:
    old, new = base.metrics[metric].value, other.metrics[metric].value
    if kind == "points":
        return f"{100.0 * (new - old):+.2f} pt"
    return f"{(new - old) / old:+.1%}" if old else "n/a"


def report(root: str, workload: str, seed: int, seconds: float) -> str:
    """The ablation table for *workload* as text."""
    base = _run(root, workload, seed, seconds, Switches())
    header = ["layer off", "switch"] + [name for name, _kind in COLUMNS]
    rows: List[List[str]] = [
        ["(none)", "baseline"]
        + [f"{base.metrics[name].value:.4g}" for name, _kind in COLUMNS]
    ]
    for switch, description, applies, check in ROWS:
        if workload not in applies:
            continue
        reason = check()
        if reason:
            rows.append([switch, f"skipped: {reason}"] + [""] * len(COLUMNS))
            continue
        other = _run(
            root, workload, seed, seconds, Switches(**{switch: False})
        )
        cells = [_delta(base, other, name, kind) for name, kind in COLUMNS]
        if not other.correct:
            cells[-1] += " (checks failed)"
        rows.append([switch, description] + cells)
    table = [header] + rows
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = [f"ablation: {workload}, seed {seed}, {seconds:g} s per run"]
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
