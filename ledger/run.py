"""The repository's benchmark: end-to-end and per-layer cost in one ledger.

Run from the repository root::

    python3 ledger/run.py --workload conll-batch --seed 1 --seconds 15 --trace 0

Each run first replays the golden corpus through the batch path (and, on
``serve-http``, through the live server) and stops with a non-zero exit
if any answer differs.  It then measures the workload and prints every
metric with its unit and sample count, the provenance, and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced pass.  ``--workload all`` runs the
three workloads in turn.  ``--ablation`` prints, instead, each layer's
marginal worth on the workload (see ``ledger/ablation.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_paths() -> None:
    """Import the program from this checkout's ``src`` and the ledger
    as a package (never its files as top-level modules)."""
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"error: {src}/repro not found; run from a full checkout")
    sys.path[:0] = [src, ROOT]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from ledger import batchrun, golden, loadgen
    from ledger.catalog import PER_LAYER
    from ledger.result import RunResult

    documents, expected, frozen = golden.load_golden(ROOT)
    kb = golden.golden_kb(frozen)
    problems = golden.batch_gate(kb, documents, expected)
    if problems:
        result = RunResult(name)
        result.problems = [f"golden gate: {p}" for p in problems]
        result.attempted, result.failed = len(documents), len(problems)
        return result
    if name == "conll-batch":
        result = batchrun.run_conll(seed, seconds, trace)
    elif name == "pool40-prerank":
        result = batchrun.run_pool40(seed, seconds, trace)
    else:
        result = loadgen.run_serve(
            ROOT, seed, seconds, trace, documents, expected
        )
    if trace:
        for metric, unit in PER_LAYER:
            if metric not in result.layers:
                result.put_layer(metric, 0.0, unit)
        result.layers = {m: result.layers[m] for m, _unit in PER_LAYER}
    return result


def main(argv=None) -> int:
    _import_paths()
    from ledger import workloads
    from ledger.provenance import provenance

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", choices=workloads.WORKLOADS + ("all",), default="all"
    )
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"workload seed (default {workloads.DEFAULT_SEED}; "
        f"{workloads.CONFIRM_SEED} is reserved for confirming claims)",
    )
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="how long each workload measures",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ablation", action="store_true",
        help="rerun the workload with one layer off at a time and print "
        "the deltas (on demand; not part of the check)",
    )
    args = parser.parse_args(argv)
    names = (
        workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    )
    if args.ablation:
        from ledger.ablation import report

        for name in names:
            print(report(ROOT, name, args.seed, args.seconds), flush=True)
        return 0

    traced = bool(args.trace)
    results = []
    for name in names:
        origin = provenance(ROOT, name, args.seed, args.seconds)
        result = run_workload(name, args.seed, args.seconds, traced)
        results.append(result)
        print(f"== {name} ({'traced' if traced else 'untraced'})")
        print("provenance: " + json.dumps(origin, sort_keys=True))
        for line in result.lines(traced):
            print(line)
        for key, value in result.notes.items():
            print(f"  note {key}: {json.dumps(value, sort_keys=True)}")
        for problem in result.problems:
            print(f"  PROBLEM {problem}")
        sys.stdout.flush()
    if len(results) == 1:
        summary = results[0].summary(traced)
    else:
        summary = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}/{m}": v
                for r in results
                for m, v in r.summary(traced)["metrics"].items()
            },
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
