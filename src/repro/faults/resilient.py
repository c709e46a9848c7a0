"""Graceful degradation: deadline and the configuration ladder.

A production NED service should degrade, not fail: when the full joint
AIDA inference cannot produce a result for a document — a transient or
permanent fault, or a blown per-document deadline — it should fall back
to a cheaper, more reliable configuration, exactly as the dissertation's
robustness tests disable unreliable features per mention.  The ladder,
in order:

1. ``full`` — whatever configuration the wrapped pipeline was built with
   (typically full joint AIDA with graph coherence);
2. ``no_coherence`` — the same configuration with the coherence graph and
   solver disabled: per-mention prior+similarity argmax, no relatedness
   computations, no dense-subgraph solve;
3. ``prior_only`` — the popularity-prior baseline: no similarity, no
   coherence, nothing but a dictionary lookup per mention.

:class:`ResilientDisambiguator` wraps any ``AidaDisambiguator``-shaped
pipeline (duck-typed: ``config`` plus ``with_config`` enable the ladder;
anything else still gets the deadline with a single rung).  Each rung
makes one attempt.  Every result records the rung that produced it and
the number of attempts (rungs tried) on
``DisambiguationResult.degradation_rung``/``.attempts``.

Per attempt, a fresh :class:`~repro.faults.deadline.Budget` is armed: the
soft deadline bounds each *attempt*, so a degraded rung gets its own time
slice after a blown full-inference attempt rather than inheriting an
already-exhausted budget.  The floor rung of a wrapper that degrades runs
with no deadline: a dictionary lookup per mention cannot be made cheaper,
so latency pressure degrades a document but never fails it.  A wrapper
that cannot degrade keeps the deadline on its one rung.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError, classify_error
from repro.faults.deadline import Budget, budget_scope
from repro.obs import get_metrics, get_tracer, log_event

_LOG = logging.getLogger("repro.robust")

#: The degradation ladder, most capable rung first.
DEGRADATION_LADDER: Tuple[str, ...] = (
    "full",
    "no_coherence",
    "prior_only",
)


@dataclass(frozen=True)
class RobustnessConfig:
    """Knobs of the robustness layer.

    An all-defaults instance is inert (no deadline, no degradation) —
    :func:`make_resilient` then returns the pipeline unwrapped.  The
    config is picklable, so process-pool factories can carry it across
    the pickle wall (see :class:`ResilientFactory`).
    """

    #: Soft per-attempt deadline in milliseconds (``None`` = unbounded).
    deadline_ms: Optional[float] = None
    #: Walk the degradation ladder instead of failing the document.
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0.0:
            raise ConfigurationError("deadline_ms must be None or > 0")

    @property
    def inert(self) -> bool:
        """Whether this config changes nothing about execution."""
        return self.deadline_ms is None and not self.degrade


def degrade_config(config, rung: str):
    """The pipeline configuration for a ladder rung, derived from the
    full-rung *config* (an :class:`~repro.core.config.AidaConfig`)."""
    from repro.core.config import PriorMode

    if rung == "full":
        return config
    if rung == "no_coherence":
        return dataclasses.replace(
            config, use_coherence=False, use_coherence_test=False
        )
    if rung == "prior_only":
        return dataclasses.replace(
            config,
            prior_mode=PriorMode.ONLY,
            use_coherence=False,
            use_coherence_test=False,
        )
    raise ConfigurationError(f"unknown degradation rung {rung!r}")


class ResilientDisambiguator:
    """Deadline / degradation wrapper around a pipeline.

    Unknown attributes delegate to the wrapped (full-rung) pipeline, so
    the wrapper is a drop-in anywhere an ``AidaDisambiguator`` is used
    (the batch layer's cache introspection, …).
    """

    def __init__(self, pipeline, robustness: RobustnessConfig):
        self._base = pipeline
        self.robustness = robustness
        self._rungs: dict = {"full": pipeline}
        self._can_degrade = robustness.degrade and hasattr(
            pipeline, "with_config"
        )

    # ------------------------------------------------------------------
    # Ladder plumbing
    # ------------------------------------------------------------------
    @property
    def ladder(self) -> Tuple[str, ...]:
        """The rungs this wrapper will walk, most capable first."""
        return DEGRADATION_LADDER if self._can_degrade else ("full",)

    def pipeline_for(self, rung: str):
        """The (lazily built) pipeline of a rung: the wrapped pipeline's
        ``with_config`` under the rung's configuration, sharing every
        model of the wrapped pipeline."""
        pipeline = self._rungs.get(rung)
        if pipeline is None:
            pipeline = self._base.with_config(
                degrade_config(self._base.config, rung)
            )
            self._rungs[rung] = pipeline
        return pipeline

    # ------------------------------------------------------------------
    # The resilient call
    # ------------------------------------------------------------------
    def disambiguate(self, document, *, start_rung: Optional[str] = None,
                     **kwargs):
        """Disambiguate under the deadline, walking the ladder on failure.

        ``start_rung`` slices the ladder: the walk begins at that rung
        instead of ``full`` (the serving layer's load shedding — an
        admission-degraded request reuses the same budget and attempts
        accounting as a failure-degraded one).  An unknown rung or a
        rung this wrapper cannot build falls back to the full ladder.

        Each rung makes one attempt, whatever the error's kind.  Raises
        the *last* rung's error only after every rung failed.
        """
        ladder = self.ladder
        if start_rung is not None and start_rung in ladder:
            ladder = ladder[ladder.index(start_rung):]
        rungs = len(ladder)
        for attempts, rung in enumerate(ladder, start=1):
            try:
                result = self._attempt(rung, document, kwargs)
            except Exception as error:
                if attempts < rungs:
                    self._note_degradation(document, rung, error)
                    continue
                # Let failure recorders (the batch layer) report how much
                # work the document consumed before giving up.
                error.robust_attempts = attempts
                raise
            result.degradation_rung = rung
            result.attempts = attempts
            self._publish(rung)
            return result

    def _attempt(self, rung: str, document, kwargs):
        """One attempt of *rung*'s pipeline, budgeted unless it is the
        floor rung of a degrading ladder."""
        deadline_ms = self.robustness.deadline_ms
        if self._can_degrade and rung == DEGRADATION_LADDER[-1]:
            deadline_ms = None
        with get_tracer().span(
            f"rung.{rung}",
            category="robust",
            doc_id=getattr(document, "doc_id", ""),
        ):
            with budget_scope(
                Budget(deadline_ms) if deadline_ms is not None else None
            ):
                return self.pipeline_for(rung).disambiguate(
                    document, **kwargs
                )

    def _note_degradation(self, document, rung: str, error) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("robust.degradations").inc()
        if _LOG.isEnabledFor(logging.INFO):
            log_event(
                _LOG,
                "robust.degrade",
                _level=logging.INFO,
                doc_id=getattr(document, "doc_id", ""),
                from_rung=rung,
                kind=classify_error(error),
                error=f"{type(error).__name__}: {error}",
            )

    @staticmethod
    def _publish(rung: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(f"robust.rung.{rung}").inc()

    def __getattr__(self, name: str):
        return getattr(self._base, name)


def make_resilient(pipeline, robustness: Optional[RobustnessConfig]):
    """Wrap *pipeline* unless the config is absent or inert."""
    if pipeline is None or robustness is None or robustness.inert:
        return pipeline
    return ResilientDisambiguator(pipeline, robustness)


class ResilientFactory:
    """Picklable pipeline factory wrapper for process-pool workers.

    Wraps any picklable factory so each worker process builds its own
    resilient pipeline: ``ResilientFactory(base_factory, robustness)``.
    """

    def __init__(self, factory, robustness: RobustnessConfig):
        self.factory = factory
        self.robustness = robustness

    def __call__(self):
        return make_resilient(self.factory(), self.robustness)
