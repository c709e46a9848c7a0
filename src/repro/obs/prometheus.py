"""Prometheus text exposition (format 0.0.4) for registry snapshots.

:func:`render` turns a :meth:`MetricsRegistry.snapshot` dict into the
plain-text format every Prometheus-compatible scraper understands:

* counters → ``<name>_total`` with ``# TYPE … counter``;
* gauges → ``<name>`` with ``# TYPE … gauge``;
* cumulative histograms → ``<name>_bucket{le="…"}`` series (cumulative
  counts, closing ``le="+Inf"``) plus ``_sum``/``_count``;
* windowed counters → a ``<name>_rate`` gauge (events/s over the
  window) plus a ``<name>_window`` gauge of in-window events;
* windowed histograms → a Prometheus *summary*: ``{quantile="0.5|0.9|
  0.99"}`` series over the rolling window plus ``_sum``/``_count``.

Metric names arrive dotted (``serving.request.seconds``); dots and any
other illegal characters become underscores.  :func:`validate_exposition`
is the strict line-by-line checker the golden test and the CI
telemetry-smoke job run against a live scrape.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List

__all__ = ["render", "validate_exposition"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABELS = re.compile(
    r'^\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)\}'
)


def _sanitize(name: str) -> str:
    """Dotted internal name → legal Prometheus metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if float(bound).is_integer():
        return f"{bound:.1f}"
    return repr(float(bound))


def render(snapshot: Dict[str, Any]) -> str:
    """Registry snapshot → Prometheus text exposition (0.0.4)."""
    lines: List[str] = []

    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        metric = _sanitize(name) + "_total"
        lines.append(f"# HELP {metric} Cumulative count of {name}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][name]
        metric = _sanitize(name)
        lines.append(f"# HELP {metric} Current value of {name}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name in sorted(snapshot.get("histograms", {})):
        snap = snapshot["histograms"][name]
        if not snap:
            continue
        metric = _sanitize(name)
        lines.append(f"# HELP {metric} Distribution of {name}.")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        bounds = list(snap.get("bounds", []))
        counts = list(snap.get("bucket_counts", []))
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            lines.append(
                f'{metric}_bucket{{le="{_format_le(bound)}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {snap.get("count", 0)}'
        )
        lines.append(f"{metric}_sum {_format_value(snap.get('sum', 0.0))}")
        lines.append(f"{metric}_count {snap.get('count', 0)}")

    windows = snapshot.get("windows", {})

    for name in sorted(windows.get("counters", {})):
        snap = windows["counters"][name]
        metric = _sanitize(name)
        window = snap.get("window_seconds", 0.0)
        lines.append(
            f"# HELP {metric}_rate Per-second rate of {name} over a "
            f"{_format_value(window)}s window."
        )
        lines.append(f"# TYPE {metric}_rate gauge")
        lines.append(
            f"{metric}_rate {_format_value(snap.get('rate', 0.0))}"
        )
        lines.append(
            f"# HELP {metric}_window Events of {name} inside the window."
        )
        lines.append(f"# TYPE {metric}_window gauge")
        lines.append(
            f"{metric}_window {_format_value(snap.get('total', 0.0))}"
        )

    for name in sorted(windows.get("histograms", {})):
        snap = windows["histograms"][name]
        metric = _sanitize(name) + "_window"
        window = snap.get("window_seconds", 0.0)
        lines.append(
            f"# HELP {metric} Rolling distribution of {name} over a "
            f"{_format_value(window)}s window."
        )
        lines.append(f"# TYPE {metric} summary")
        for label, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            lines.append(
                f'{metric}{{quantile="{label}"}} '
                f"{_format_value(snap.get(key, 0.0))}"
            )
        lines.append(f"{metric}_sum {_format_value(snap.get('sum', 0.0))}")
        lines.append(f"{metric}_count {snap.get('count', 0)}")

    return "\n".join(lines) + "\n" if lines else ""


def validate_exposition(text: str) -> List[str]:
    """Strict line-by-line structural check; returns a list of problems.

    An empty return value means *text* is syntactically valid 0.0.4
    exposition: every sample line parses, every ``# TYPE`` precedes its
    samples, sample names agree with their declared family (modulo the
    ``_bucket``/``_sum``/``_count``/quantile suffixes), and histogram
    ``le`` series are cumulative and closed by ``+Inf``.
    """
    problems: List[str] = []
    declared: Dict[str, str] = {}
    bucket_state: Dict[str, float] = {}
    bucket_closed: Dict[str, bool] = {}

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {line_no}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if kind not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                problems.append(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
                continue
            if name in declared:
                problems.append(
                    f"line {line_no}: duplicate TYPE for {name!r}"
                )
            declared[name] = kind
            continue
        if line.startswith("#"):
            continue

        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if not match:
            problems.append(f"line {line_no}: unparseable sample name")
            continue
        sample_name = match.group(1)
        rest = line[len(sample_name):]
        labels: Dict[str, str] = {}
        if rest.startswith("{"):
            label_match = _LABELS.match(rest)
            if not label_match:
                problems.append(
                    f"line {line_no}: malformed label set"
                )
                continue
            for pair in re.findall(
                r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                label_match.group(1),
            ):
                labels[pair[0]] = pair[1]
            rest = rest[label_match.end():]
        fields = rest.split()
        if len(fields) not in (1, 2):
            problems.append(
                f"line {line_no}: expected value (and optional "
                "timestamp)"
            )
            continue
        raw_value = fields[0]
        if raw_value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(raw_value)
            except ValueError:
                problems.append(
                    f"line {line_no}: non-numeric value {raw_value!r}"
                )
                continue

        # Family / type agreement.
        owner = None
        for name, kind in declared.items():
            if kind == "histogram" and sample_name in (
                name + "_bucket",
                name + "_sum",
                name + "_count",
            ):
                owner = (name, kind)
                break
            if kind == "summary" and sample_name in (
                name,
                name + "_sum",
                name + "_count",
            ):
                owner = (name, kind)
                break
            if kind in ("counter", "gauge", "untyped") and (
                sample_name == name
            ):
                owner = (name, kind)
                break
        if owner is None:
            problems.append(
                f"line {line_no}: sample {sample_name!r} has no "
                "preceding TYPE declaration"
            )
            continue
        name, kind = owner
        if kind == "histogram" and sample_name == name + "_bucket":
            le = labels.get("le")
            if le is None:
                problems.append(
                    f"line {line_no}: histogram bucket without le label"
                )
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            count = float(raw_value)
            previous = bucket_state.get(name)
            if previous is not None and count < previous:
                problems.append(
                    f"line {line_no}: non-cumulative bucket counts for "
                    f"{name!r}"
                )
            bucket_state[name] = count
            if le == "+Inf":
                bucket_closed[name] = True
            elif math.isinf(bound):
                bucket_closed[name] = True
        if kind == "summary" and sample_name == name:
            if "quantile" not in labels:
                problems.append(
                    f"line {line_no}: summary sample without quantile "
                    "label"
                )

    for name, kind in declared.items():
        if kind == "histogram" and name in bucket_state:
            if not bucket_closed.get(name):
                problems.append(
                    f"histogram {name!r} has no le=\"+Inf\" bucket"
                )
        if not _NAME_OK.match(name):
            problems.append(f"illegal metric name {name!r}")
    return problems
