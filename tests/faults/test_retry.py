"""No retries: the taxonomy classifies an error, and each rung of the
degradation ladder makes one attempt whatever the error's kind."""

from __future__ import annotations

import pytest

from repro.errors import (
    DeadlineExceeded,
    PermanentError,
    TransientError,
    is_transient,
)
from repro.faults.resilient import RobustnessConfig, make_resilient
from repro.types import DisambiguationResult, Document


class TestTaxonomy:
    def test_transient_markers(self):
        assert is_transient(TransientError("x"))
        assert is_transient(TimeoutError())
        assert is_transient(ConnectionResetError())
        assert not is_transient(PermanentError("x"))
        assert not is_transient(ValueError("x"))
        assert not is_transient(DeadlineExceeded("stage", 10.0, 5.0))


class _Failing:
    """Raises the queued exceptions, then answers."""

    def __init__(self, errors):
        self.errors = list(errors)
        self.calls = 0

    def disambiguate(self, document):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return DisambiguationResult(doc_id=document.doc_id, assignments=[])


DOCUMENT = Document(doc_id="d", tokens=("x",))


class TestOneAttemptPerRung:
    @pytest.mark.parametrize(
        "error",
        [
            TransientError("flaky"),
            PermanentError("gone"),
            DeadlineExceeded("stage:solve", 12.0, 10.0),
        ],
        ids=["transient", "permanent", "deadline"],
    )
    def test_any_error_fails_the_rung_at_once(self, error):
        pipeline = _Failing([error])
        robust = make_resilient(pipeline, RobustnessConfig(deadline_ms=1e6))
        with pytest.raises(type(error)):
            robust.disambiguate(DOCUMENT)
        assert pipeline.calls == 1
        assert error.robust_attempts == 1

    @pytest.mark.parametrize("control", [KeyboardInterrupt, SystemExit])
    def test_control_flow_exceptions_propagate(self, control):
        pipeline = _Failing([control()])
        robust = make_resilient(pipeline, RobustnessConfig(deadline_ms=1e6))
        with pytest.raises(control):
            robust.disambiguate(DOCUMENT)
        assert pipeline.calls == 1

    def test_success_after_a_failure_is_the_next_call(self):
        """The wrapper keeps nothing between documents: the call after a
        failed one is a fresh first attempt."""
        pipeline = _Failing([TransientError("once")])
        robust = make_resilient(pipeline, RobustnessConfig(deadline_ms=1e6))
        with pytest.raises(TransientError):
            robust.disambiguate(DOCUMENT)
        result = robust.disambiguate(DOCUMENT)
        assert (result.degradation_rung, result.attempts) == ("full", 1)
