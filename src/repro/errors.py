"""Exception hierarchy and error taxonomy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class. Specific subclasses signal which subsystem failed.

On top of the subsystem hierarchy sits a *robustness taxonomy*; every
failure the batch and serving layers record carries its bucket
(:func:`classify_error`):

* **transient** errors (the :class:`Retryable` mixin, plus the standard
  library's timeout/connection families) are momentary — the same call
  may succeed a moment later;
* **permanent** errors will fail identically on every call;
* **deadline** errors (:class:`DeadlineExceeded`) mean the per-document
  budget ran out.

The robustness layer (:mod:`repro.faults`) reacts to all three the same
way: it degrades to a cheaper pipeline configuration.

``KeyboardInterrupt``/``SystemExit`` derive from ``BaseException`` and are
deliberately outside the taxonomy: every catch site in the batch and
robustness layers catches ``Exception``, so they always propagate.
"""

from __future__ import annotations

from typing import Union


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class KnowledgeBaseError(ReproError):
    """A knowledge-base operation failed (unknown entity, bad triple, ...)."""


class UnknownEntityError(KnowledgeBaseError):
    """An entity id was looked up that is not registered in the KB."""

    def __init__(self, entity_id: str):
        super().__init__(f"unknown entity: {entity_id!r}")
        self.entity_id = entity_id


class DictionaryError(KnowledgeBaseError):
    """A name-dictionary operation failed."""


class DisambiguationError(ReproError):
    """The disambiguation pipeline could not produce a result."""


class GraphError(DisambiguationError):
    """The mention-entity graph is malformed or the algorithm hit an
    unsatisfiable constraint (e.g. a mention with no candidate left)."""


class ConfigurationError(ReproError):
    """A configuration value is out of its valid range."""


class DatasetError(ReproError):
    """A corpus/dataset generator received inconsistent parameters."""


# ----------------------------------------------------------------------
# Robustness taxonomy (see module docstring)
# ----------------------------------------------------------------------
class Retryable:
    """Mixin marking an exception as transient: a retry may succeed.

    Mix into any exception class whose failure mode is expected to be
    momentary — lock contention, a flaky backend.
    """


class TransientError(ReproError, Retryable):
    """A momentary failure; the same call is expected to succeed soon."""


class PermanentError(ReproError):
    """A deterministic failure; retrying the same call cannot succeed."""


class DeadlineExceeded(ReproError):
    """A per-document soft deadline ran out.

    Raised cooperatively by :class:`repro.faults.deadline.Budget` checks at
    pipeline stage boundaries and solver iterations.  Not retryable: the
    same configuration would exhaust the budget again — degrade instead.
    """

    def __init__(self, where: str, elapsed_ms: float, budget_ms: float):
        super().__init__(
            f"deadline exceeded at {where}: "
            f"{elapsed_ms:.1f}ms elapsed of {budget_ms:.1f}ms budget"
        )
        self.where = where
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


#: Standard-library exception families treated as transient alongside the
#: :class:`Retryable` mixin.  ``TimeoutError`` covers ``socket.timeout``
#: (an alias since 3.10) and ``ConnectionError`` its four subclasses.
_TRANSIENT_BUILTINS = (TimeoutError, ConnectionError, InterruptedError)


def is_transient(error: BaseException) -> bool:
    """Whether *error* is worth retrying under the taxonomy."""
    if isinstance(error, DeadlineExceeded):
        return False
    return isinstance(error, (Retryable,) + _TRANSIENT_BUILTINS)


def classify_error(error: BaseException) -> str:
    """Taxonomy bucket of an exception: ``transient`` / ``permanent`` /
    ``deadline`` — the ``kind`` recorded on batch document failures."""
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    if is_transient(error):
        return "transient"
    return "permanent"


def describe_error(error: Union[BaseException, str]) -> str:
    """One-line ``TypeName: message`` rendering used in failure records."""
    if isinstance(error, str):
        return error
    return f"{type(error).__name__}: {error}"
