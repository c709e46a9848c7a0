"""Chaos for tests: seeded faults raised through a pipeline's entry points.

:class:`Chaos` wraps public entry points on the objects a test built —
instance attributes only, removed again on exit, the way the ledger's
``Instrumented`` records spans — so nothing under ``src/`` knows about
it.  Each :class:`Fault` names one target:

===============  ==================================================
target           wrapped entry point
===============  ==================================================
``kb``           ``pipeline.kb.candidates``
``similarity``   ``pipeline.similarity.simscores``
``relatedness``  ``pipeline.relatedness.inner.relatedness`` (the
                 memo calls it only on a miss, so memo hits never
                 fault)
``solver``       ``pipeline._solver.solve``, once per solve
``worker``       ``pipeline.disambiguate`` (give the resilient
                 wrapper a batch worker runs: the fault then fails
                 the document)
===============  ==================================================

Given a resilient wrapper, :class:`Chaos` wraps the entry points of
every rung's pipeline: rungs share the KB and the relatedness memo, but
each builds its own similarity scorer and solver.  ``worker`` wraps only
the given object's own ``disambiguate``.

Decisions are seeded per target: the fire/skip pattern at a target
depends only on the seed, the target name and the number of earlier
calls there.  :class:`Trigger` holds one target's decisions and can wrap
any callable (the snapshot durability tests patch the section writer
with it).  :class:`ChaosFactory` is a picklable pipeline factory that
installs chaos in each spawned pool worker.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PermanentError, TransientError

KINDS = ("transient", "permanent", "latency")

#: Where each target's entry point lives: ``pipeline -> (object, name)``.
TARGETS: Dict[str, Callable[[object], Tuple[object, str]]] = {
    "kb": lambda pipeline: (pipeline.kb, "candidates"),
    "similarity": lambda pipeline: (pipeline.similarity, "simscores"),
    "relatedness": lambda pipeline: (
        pipeline.relatedness.inner,
        "relatedness",
    ),
    "solver": lambda pipeline: (pipeline._solver, "solve"),
    "worker": lambda pipeline: (pipeline, "disambiguate"),
}


class ChaosTransientFault(TransientError):
    """A chaos fault of kind ``transient``."""


class ChaosPermanentFault(PermanentError):
    """A chaos fault of kind ``permanent``."""


@dataclass(frozen=True)
class Fault:
    """At *target*, fire with probability *rate*, at most *max_faults*
    times (``None``: no cap): raise a transient or permanent fault, or
    sleep *latency_ms*."""

    target: str
    rate: float = 1.0
    kind: str = "transient"
    max_faults: Optional[int] = None
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.max_faults is not None and self.max_faults < 1:
            raise ValueError("max_faults must be None or >= 1")
        if self.kind == "latency" and self.latency_ms <= 0.0:
            raise ValueError("latency faults need latency_ms > 0")


class Trigger:
    """One target's seeded fire/skip decisions; thread-safe.

    ``calls`` counts entries, ``fired`` the faults raised or slept.
    """

    def __init__(self, fault: Fault, seed: int = 0) -> None:
        self.fault = fault
        self.calls = 0
        self.fired = 0
        self._rng = random.Random(f"{seed}:{fault.target}")
        self._lock = threading.Lock()

    @property
    def spent(self) -> bool:
        """Whether the cap is reached (never, without one)."""
        cap = self.fault.max_faults
        return cap is not None and self.fired >= cap

    def fire(self) -> None:
        """Count one call; raise or sleep when the decision says so."""
        fault = self.fault
        with self._lock:
            self.calls += 1
            if self.spent:
                return
            if fault.rate < 1.0 and self._rng.random() >= fault.rate:
                return
            self.fired += 1
        if fault.kind == "latency":
            time.sleep(fault.latency_ms / 1000.0)
            return
        error = (
            ChaosTransientFault
            if fault.kind == "transient"
            else ChaosPermanentFault
        )
        raise error(f"chaos {fault.kind} fault at {fault.target}")

    def wrap(self, fn: Callable) -> Callable:
        """*fn*, with this trigger fired before each call."""

        def faulty(*args, **kwargs):
            self.fire()
            return fn(*args, **kwargs)

        return faulty


class Chaos:
    """Install seeded faults on one pipeline's entry points; undo on exit.

    Use as a context manager.  ``triggers`` maps each target to its
    :class:`Trigger`, for assertions on ``calls`` and ``fired``.
    """

    def __init__(
        self, pipeline, faults: Sequence[Fault], seed: int = 0
    ) -> None:
        targets = [fault.target for fault in faults]
        if len(set(targets)) < len(targets) or not set(targets) <= set(
            TARGETS
        ):
            raise ValueError(
                f"chaos takes one fault per known target, got {targets}"
            )
        self.pipeline = pipeline
        self.triggers = {f.target: Trigger(f, seed) for f in faults}
        self._installed: List[Tuple[object, str]] = []

    def __enter__(self) -> "Chaos":
        pipeline = self.pipeline
        rungs = (
            [pipeline.pipeline_for(rung) for rung in pipeline.ladder]
            if hasattr(pipeline, "pipeline_for")
            else [pipeline]
        )
        for name, trigger in self.triggers.items():
            for owner in [pipeline] if name == "worker" else rungs:
                target, attr = TARGETS[name](owner)
                if any(
                    target is done and attr == done_attr
                    for done, done_attr in self._installed
                ):
                    continue  # shared by the rungs: wrapped once
                wrapped = trigger.wrap(getattr(target, attr))
                setattr(target, attr, wrapped)
                self._installed.append((target, attr))
        return self

    def __exit__(self, *exc_info) -> None:
        for target, attr in reversed(self._installed):
            delattr(target, attr)
        self._installed.clear()


class ChaosFactory:
    """Picklable pipeline factory: ``factory()`` with chaos installed.

    Give it to a process pool (``BatchRunner(executor="process")``, a
    server with ``executor="process"``): each spawned worker builds its
    pipeline and installs the faults; every worker's decisions start
    from the same seed.  The chaos stays installed for the worker's
    life.
    """

    def __init__(
        self, factory, faults: Sequence[Fault], seed: int = 0
    ) -> None:
        self.factory = factory
        self.faults = tuple(faults)
        self.seed = seed

    def __call__(self):
        pipeline = self.factory()
        Chaos(pipeline, self.faults, self.seed).__enter__()
        return pipeline
