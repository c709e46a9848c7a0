"""Unit tests of the chaos fixture (``tests/faults/chaos.py``).

The fixture injects faults from outside the program: it wraps entry
points on the objects a test built and removes the wrappers on exit.
"""

from __future__ import annotations

import time

import pytest

from repro.core.pipeline import AidaDisambiguator
from repro.errors import PermanentError, TransientError, classify_error

from tests.faults.chaos import (
    TARGETS,
    Chaos,
    ChaosPermanentFault,
    ChaosTransientFault,
    Fault,
    Trigger,
)


def _fire_pattern(trigger, calls):
    """True per call that raised, over *calls* calls."""
    pattern = []
    for _ in range(calls):
        try:
            trigger.fire()
            pattern.append(False)
        except (TransientError, PermanentError):
            pattern.append(True)
    return pattern


@pytest.fixture
def pipeline(kb):
    return AidaDisambiguator(kb)


class TestSpecValidation:
    def test_unknown_site_rejected(self, pipeline):
        with pytest.raises(ValueError):
            Chaos(pipeline, [Fault("nope")])

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Fault("worker", rate=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("worker", kind="explode")

    def test_latency_needs_positive_ms(self):
        with pytest.raises(ValueError):
            Fault("worker", kind="latency", latency_ms=0.0)

    def test_max_faults_must_be_positive(self):
        with pytest.raises(ValueError):
            Fault("worker", max_faults=0)


class TestDeterminism:
    def test_same_seed_same_pattern(self):
        fault = Fault("kb", rate=0.3)
        first = _fire_pattern(Trigger(fault, seed=5), 50)
        second = _fire_pattern(Trigger(fault, seed=5), 50)
        assert first == second
        assert any(first) and not all(first)

    def test_different_seeds_differ(self):
        fault = Fault("kb", rate=0.5)
        patterns = {
            tuple(_fire_pattern(Trigger(fault, seed=seed), 64))
            for seed in range(4)
        }
        assert len(patterns) > 1

    def test_sites_use_independent_streams(self):
        """Same seed, same rate: two targets draw different patterns."""
        kb_pattern = _fire_pattern(Trigger(Fault("kb", rate=0.4), 9), 64)
        related = _fire_pattern(
            Trigger(Fault("relatedness", rate=0.4), 9), 64
        )
        assert kb_pattern != related


class TestFiring:
    def test_transient_and_permanent_kinds(self):
        with pytest.raises(ChaosPermanentFault) as exc_info:
            Trigger(Fault("worker", kind="permanent")).fire()
        assert classify_error(exc_info.value) == "permanent"
        with pytest.raises(ChaosTransientFault) as exc_info:
            Trigger(Fault("worker", kind="transient")).fire()
        assert classify_error(exc_info.value) == "transient"

    def test_max_faults_caps_injections(self):
        trigger = Trigger(Fault("worker", rate=0.5, max_faults=3), seed=2)
        pattern = _fire_pattern(trigger, 40)
        assert sum(pattern) == 3
        assert trigger.spent
        assert (trigger.calls, trigger.fired) == (40, 3)

    def test_unconfigured_site_never_fires(self, pipeline):
        """Only the targets given are wrapped."""
        with Chaos(pipeline, [Fault("relatedness", kind="permanent")]):
            assert "candidates" not in vars(pipeline.kb)
            assert "simscores" not in vars(pipeline.similarity)
            assert "relatedness" in vars(pipeline.relatedness.inner)

    def test_latency_sleeps(self):
        trigger = Trigger(
            Fault("worker", kind="latency", latency_ms=5.0, max_faults=1)
        )
        start = time.perf_counter()
        trigger.fire()
        assert time.perf_counter() - start >= 0.004
        # Cap spent: the next call is instant and raises nothing.
        trigger.fire()
        assert trigger.fired == 1


class TestInstallation:
    def test_injected_scope_restores(self, pipeline):
        """Exit removes every wrapper; the class methods show through."""
        faults = [Fault(target, kind="permanent") for target in TARGETS]
        owners = [TARGETS[name](pipeline)[0] for name in TARGETS]
        before = [sorted(vars(owner)) for owner in owners]
        with Chaos(pipeline, faults, seed=3):
            with pytest.raises(ChaosPermanentFault):
                pipeline.kb.candidates("x")
        assert [sorted(vars(owner)) for owner in owners] == before
