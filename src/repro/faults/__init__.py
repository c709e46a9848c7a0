"""Deadlines and graceful degradation (``repro.faults``).

Two pieces, composable but independent:

* :mod:`repro.faults.deadline` — cooperative per-attempt soft deadlines
  checked at pipeline stage boundaries and solver iterations;
* :mod:`repro.faults.resilient` — the degradation ladder (full joint
  AIDA → coherence-off → prior-only) tying a deadline to each rung's one
  attempt per document.

Chaos testing lives outside the package: ``tests/faults/chaos.py`` wraps
a built pipeline's entry points to raise seeded faults.  See
``docs/robustness.md`` for the full story and the error taxonomy in
:mod:`repro.errors`.
"""

from __future__ import annotations

from repro.faults.deadline import (
    Budget,
    budget_scope,
    check_budget,
    current_budget,
)
from repro.faults.resilient import (
    DEGRADATION_LADDER,
    ResilientDisambiguator,
    ResilientFactory,
    RobustnessConfig,
    degrade_config,
    make_resilient,
)

__all__ = [
    "Budget",
    "budget_scope",
    "check_budget",
    "current_budget",
    "DEGRADATION_LADDER",
    "ResilientDisambiguator",
    "ResilientFactory",
    "RobustnessConfig",
    "degrade_config",
    "make_resilient",
]
