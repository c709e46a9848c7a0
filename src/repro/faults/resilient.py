"""Graceful degradation: retry, deadline, and the configuration ladder.

A production NED service should degrade, not fail: when the full joint
AIDA inference cannot produce a result for a document — transient backend
faults that outlive the retry budget, a permanent fault, or a blown
per-document deadline — it should fall back to a cheaper, more reliable
configuration, exactly as the dissertation's robustness tests disable
unreliable features per mention.  The ladder, in order:

1. ``full`` — whatever configuration the wrapped pipeline was built with
   (typically full joint AIDA with graph coherence);
2. ``no_coherence`` — the same configuration with the coherence graph and
   solver disabled: per-mention prior+similarity argmax, no relatedness
   computations, no dense-subgraph solve;
3. ``prior_only`` — the popularity-prior baseline: no similarity, no
   coherence, nothing but a dictionary lookup per mention.

:class:`ResilientDisambiguator` wraps any ``AidaDisambiguator``-shaped
pipeline (duck-typed: ``config`` plus ``with_config`` enable the ladder;
anything else still gets retry + deadline with a single rung).  Every
result records the rung that produced it and the total number of
attempts on ``DisambiguationResult.degradation_rung``/``.attempts``.

Per attempt, a fresh :class:`~repro.faults.deadline.Budget` is armed: the
soft deadline bounds each *attempt*, so a degraded rung gets its own time
slice after a blown full-inference attempt rather than inheriting an
already-exhausted budget.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, classify_error
from repro.faults.deadline import Budget, budget_scope
from repro.faults.retry import RetryPolicy, call_with_retry
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

    An all-defaults instance is inert (no retries, no deadline, no
    degradation) — :func:`make_resilient` then returns the pipeline
    unwrapped.  The config is picklable, so process-pool factories can
    carry it across the pickle wall (see :class:`ResilientFactory`).
    """

    #: Extra attempts per rung for transient failures.
    retries: int = 0
    #: Soft per-attempt deadline in milliseconds (``None`` = unbounded).
    deadline_ms: Optional[float] = None
    #: Walk the degradation ladder instead of failing the document.
    degrade: bool = False
    #: Backoff shape for the retries.
    backoff: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.deadline_ms is not None and self.deadline_ms <= 0.0:
            raise ConfigurationError("deadline_ms must be None or > 0")

    @property
    def inert(self) -> bool:
        """Whether this config changes nothing about execution."""
        return (
            self.retries == 0
            and self.deadline_ms is None
            and not self.degrade
        )


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
    """Retry / deadline / degradation wrapper around a pipeline.

    Unknown attributes delegate to the wrapped (full-rung) pipeline, so
    the wrapper is a drop-in anywhere an ``AidaDisambiguator`` is used
    (the batch layer's cache introspection, ``last_stats`` readers, …).
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
        """Disambiguate with retries, deadline, and the ladder.

        ``start_rung`` slices the ladder: the walk begins at that rung
        instead of ``full`` (the serving layer's load shedding — an
        admission-degraded request reuses the same retry, budget, and
        attempts accounting as a failure-degraded one).  An unknown rung
        or a rung this wrapper cannot build falls back to the full
        ladder.

        Raises the *last* rung's error only after every rung failed.
        """
        attempts = 0
        last_error: Optional[Exception] = None
        ladder = self.ladder
        if start_rung is not None and start_rung in ladder:
            ladder = ladder[ladder.index(start_rung):]
        for position, rung in enumerate(ladder):
            policy = self._policy_for(document, rung)
            # ``on_retry`` fires once per performed retry with the retry
            # count so far — the exact attempt tally whether the rung ends
            # in success or exhaustion.
            retries_done = 0
            log_retry = self._log_retry(document, rung)

            def on_retry(attempt: int, error: BaseException) -> None:
                nonlocal retries_done
                retries_done = attempt
                log_retry(attempt, error)

            try:
                result = call_with_retry(
                    self._attempt(rung, document, kwargs),
                    policy,
                    on_retry=on_retry,
                )
            except Exception as error:
                attempts += 1 + retries_done
                last_error = error
                if position + 1 < len(ladder):
                    self._note_degradation(document, rung, error)
                    continue
                # Let failure recorders (the batch layer) report how much
                # work the document consumed before giving up.
                error.robust_attempts = attempts
                raise
            attempts += 1 + retries_done
            result.degradation_rung = rung
            result.attempts = attempts
            self._publish(rung)
            return result
        raise last_error  # pragma: no cover — loop always returns/raises

    def _attempt(self, rung: str, document, kwargs):
        """One budgeted attempt closure for ``call_with_retry``."""
        robustness = self.robustness

        def run():
            with get_tracer().span(
                f"rung.{rung}",
                category="robust",
                doc_id=getattr(document, "doc_id", ""),
            ):
                with budget_scope(
                    Budget(robustness.deadline_ms)
                    if robustness.deadline_ms is not None
                    else None
                ):
                    return self.pipeline_for(rung).disambiguate(
                        document, **kwargs
                    )

        return run

    def _policy_for(self, document, rung: str) -> RetryPolicy:
        base = self.robustness.backoff
        policy = dataclasses.replace(
            base, retries=self.robustness.retries
        )
        doc_id = getattr(document, "doc_id", "")
        return policy.for_key(f"{doc_id}:{rung}")

    def _log_retry(self, document, rung: str):
        def on_retry(attempt: int, error: BaseException) -> None:
            if _LOG.isEnabledFor(logging.DEBUG):
                log_event(
                    _LOG,
                    "robust.retry",
                    doc_id=getattr(document, "doc_id", ""),
                    rung=rung,
                    attempt=attempt,
                    error=f"{type(error).__name__}: {error}",
                )

        return on_retry

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
