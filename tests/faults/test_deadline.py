"""Unit + integration tests of cooperative soft deadlines."""

from __future__ import annotations

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.errors import DeadlineExceeded
from repro.faults.deadline import (
    Budget,
    budget_scope,
    check_budget,
    current_budget,
)
from repro.faults.resilient import RobustnessConfig, make_resilient
from repro.graph.dense_subgraph import GreedyDenseSubgraph
from repro.graph.synthetic import SyntheticGraphSpec, synthetic_graph
from repro.obs import MetricsRegistry, set_metrics


class _Clock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(0.0)
        with pytest.raises(ValueError):
            Budget(-5.0)

    def test_unbounded_budget_never_expires(self):
        budget = Budget(None, clock=_Clock())
        assert budget.remaining_ms == float("inf")
        assert not budget.expired
        budget.check("anywhere")

    def test_elapsed_tracks_clock_and_charges(self):
        clock = _Clock()
        budget = Budget(100.0, clock=clock)
        clock.now += 0.030
        assert budget.elapsed_ms == pytest.approx(30.0)
        budget.charge_ms(50.0)
        assert budget.elapsed_ms == pytest.approx(80.0)
        assert budget.remaining_ms == pytest.approx(20.0)
        assert not budget.expired
        budget.check("stage:solve")
        budget.charge_ms(25.0)
        assert budget.expired
        with pytest.raises(DeadlineExceeded) as exc_info:
            budget.check("stage:solve")
        assert exc_info.value.where == "stage:solve"
        assert exc_info.value.budget_ms == 100.0
        assert exc_info.value.elapsed_ms > 100.0

    def test_deadline_hit_metric(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            budget = Budget(1.0, clock=_Clock())
            budget.charge_ms(2.0)
            with pytest.raises(DeadlineExceeded):
                budget.check("x")
        finally:
            set_metrics(previous)
        counters = registry.snapshot()["counters"]
        assert counters["robust.deadline_hits"] == 1


class TestScope:
    def test_check_budget_without_scope_is_noop(self):
        assert current_budget() is None
        check_budget("stage:anything")

    def test_scope_arms_and_disarms(self):
        budget = Budget(5.0, clock=_Clock())
        budget.charge_ms(10.0)
        with budget_scope(budget):
            assert current_budget() is budget
            with pytest.raises(DeadlineExceeded):
                check_budget("stage:x")
        assert current_budget() is None
        check_budget("stage:x")

    def test_none_scope_is_transparent(self):
        with budget_scope(None) as armed:
            assert armed is None
            assert current_budget() is None

    def test_scopes_nest_innermost_wins(self):
        outer = Budget(1000.0, clock=_Clock())
        inner = Budget(1.0, clock=_Clock())
        inner.charge_ms(2.0)
        with budget_scope(outer):
            with budget_scope(inner):
                with pytest.raises(DeadlineExceeded):
                    check_budget("stage:y")
            assert current_budget() is outer
            check_budget("stage:y")


class TestCooperativeChecks:
    def test_pipeline_stage_boundary_checks(self, kb, sample_docs):
        pipeline = AidaDisambiguator(kb)
        document = sample_docs[0].document
        expired = Budget(1.0, clock=_Clock())
        expired.charge_ms(5.0)
        with budget_scope(expired):
            with pytest.raises(DeadlineExceeded) as exc_info:
                pipeline.disambiguate(document)
        assert exc_info.value.where.startswith("stage:")
        # Without the budget the same call succeeds.
        assert pipeline.disambiguate(document).assignments

    def test_solver_iteration_checks(self):
        graph = synthetic_graph(
            SyntheticGraphSpec(mentions=8, candidates_per_mention=5)
        )
        expired = Budget(1.0, clock=_Clock())
        expired.charge_ms(5.0)
        with budget_scope(expired):
            with pytest.raises(DeadlineExceeded) as exc_info:
                GreedyDenseSubgraph().solve(graph)
        assert exc_info.value.where == "solver.iteration"

    def test_generous_budget_changes_nothing(self, kb, sample_docs):
        pipeline = AidaDisambiguator(kb)
        document = sample_docs[0].document
        bare = pipeline.disambiguate(document)
        with budget_scope(Budget(60000.0)):
            budgeted = pipeline.disambiguate(document)
        assert [a.entity for a in bare.assignments] == [
            a.entity for a in budgeted.assignments
        ]


class BudgetHog(AidaDisambiguator):
    """Exhausts whatever budget its attempt runs under, so every
    budgeted rung blows its deadline at the first stage boundary."""

    def disambiguate(self, document, **kwargs):
        budget = current_budget()
        if budget is not None:
            budget.charge_ms(budget.deadline_ms + 1.0)
        return super().disambiguate(document, **kwargs)


class TestFloorRung:
    """A degrading ladder's last rung runs without a deadline."""

    def test_exhausted_budgets_end_at_prior_only(self, kb, sample_docs):
        robust = make_resilient(
            BudgetHog(kb),
            RobustnessConfig(degrade=True, deadline_ms=1000.0),
        )
        result = robust.disambiguate(sample_docs[0].document)
        assert (result.degradation_rung, result.attempts) == (
            "prior_only",
            3,
        )
        assert result.assignments

    def test_without_degradation_the_deadline_still_fails(
        self, kb, sample_docs
    ):
        robust = make_resilient(
            BudgetHog(kb),
            RobustnessConfig(degrade=False, deadline_ms=1000.0),
        )
        with pytest.raises(DeadlineExceeded) as exc_info:
            robust.disambiguate(sample_docs[0].document)
        assert exc_info.value.robust_attempts == 1
