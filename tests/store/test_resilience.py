"""The seeded retry policy behind the store degradation ladder.

Unit coverage for :mod:`repro.store.resilience`: the deterministic
backoff schedule of :class:`RetryPolicy`, its attempt budget and
deadlines, and the :class:`ManualClock` the schedule is asserted on.
"""

from __future__ import annotations

import pytest

from repro.store.resilience import ManualClock, RetryPolicy
from repro.telemetry.core import collect


class Flaky:
    """A callable failing ``failures`` times before succeeding."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc if exc is not None else OSError("transient")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "ok"


class TestManualClock:
    def test_time_moves_only_when_told(self):
        clock = ManualClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_sleep_advances_and_records(self):
        clock = ManualClock(start=1.0)
        clock.sleep(0.25)
        assert clock.now() == 1.25
        assert clock.sleeps == [0.25]


class TestRetryPolicy:
    def test_success_needs_one_attempt(self):
        call = Flaky(0)
        policy = RetryPolicy("t", max_attempts=3, clock=ManualClock())
        assert policy.run("op", call) == "ok"
        assert call.calls == 1

    def test_transient_failure_is_retried(self):
        call = Flaky(2)
        policy = RetryPolicy("t", max_attempts=3, clock=ManualClock())
        assert policy.run("op", call) == "ok"
        assert call.calls == 3

    def test_budget_exhaustion_reraises_the_last_error(self):
        boom = OSError("persistent")
        policy = RetryPolicy("t", max_attempts=2, clock=ManualClock())
        with pytest.raises(OSError, match="persistent"):
            policy.run("op", Flaky(10, boom))

    def test_non_retryable_exceptions_propagate_immediately(self):
        call = Flaky(1, KeyError("not transport"))
        policy = RetryPolicy("t", max_attempts=3, clock=ManualClock())
        with pytest.raises(KeyError):
            policy.run("op", call)
        assert call.calls == 1

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy("t", max_attempts=5, base_delay=0.1,
                             max_delay=0.3, seed=9, clock=ManualClock())
        raw = [0.1, 0.2, 0.3, 0.3]  # doubling, then the cap
        for attempt, expected in enumerate(raw, start=1):
            delay = policy.backoff(0, attempt)
            jitter = delay / expected
            assert 0.5 <= jitter < 1.0

    def test_backoff_schedule_is_a_pure_function_of_the_seed(self):
        a = RetryPolicy("t", base_delay=0.1, seed=42)
        b = RetryPolicy("t", base_delay=0.1, seed=42)
        c = RetryPolicy("t", base_delay=0.1, seed=43)
        schedule_a = [a.backoff(op, k) for op in range(4) for k in (1, 2)]
        schedule_b = [b.backoff(op, k) for op in range(4) for k in (1, 2)]
        schedule_c = [c.backoff(op, k) for op in range(4) for k in (1, 2)]
        assert schedule_a == schedule_b
        assert schedule_a != schedule_c

    def test_sleeps_follow_the_declared_schedule(self):
        clock = ManualClock()
        policy = RetryPolicy("t", max_attempts=3, base_delay=0.1,
                             seed=7, clock=clock)
        expected = [policy.backoff(0, 1), policy.backoff(0, 2)]
        with pytest.raises(OSError):
            policy.run("op", Flaky(10))
        assert clock.sleeps == expected

    def test_op_deadline_stops_retries(self):
        clock = ManualClock()
        # Backoff of ~0.05-0.1s against a 0.01s op deadline: the retry
        # would start past the deadline, so exactly one attempt runs.
        policy = RetryPolicy("t", max_attempts=5, base_delay=0.1,
                             op_deadline=0.01, clock=clock)
        call = Flaky(10)
        with pytest.raises(OSError):
            policy.run("op", call)
        assert call.calls == 1
        assert clock.sleeps == []

    def test_request_deadline_is_shared_across_ops(self):
        clock = ManualClock()
        policy = RetryPolicy("t", max_attempts=5, base_delay=0.0,
                             request_deadline=1.0, clock=clock)

        def slow_failure():
            clock.advance(0.4)
            raise OSError("slow failure")

        with pytest.raises(OSError):
            policy.run("op-0", slow_failure)  # burns the whole budget
        call = Flaky(10)
        with pytest.raises(OSError):
            policy.run("op-1", call)
        assert call.calls == 1  # no budget left: single attempt

    def test_attempts_and_retries_land_in_telemetry(self):
        with collect() as telemetry:
            policy = RetryPolicy("unit", max_attempts=3,
                                 clock=ManualClock())
            policy.run("op", Flaky(2))
        counters = telemetry.snapshot()["counters"]
        assert counters["resilience.unit.attempts"] == 3
        assert counters["resilience.unit.retries"] == 2
        assert "resilience.unit.giveups" not in counters

    def test_giveup_lands_in_telemetry(self):
        with collect() as telemetry:
            policy = RetryPolicy("unit", max_attempts=2,
                                 clock=ManualClock())
            with pytest.raises(OSError):
                policy.run("op", Flaky(10))
        assert telemetry.snapshot()["counters"]["resilience.unit.giveups"] == 1

    def test_on_error_sees_every_caught_exception(self):
        seen = []
        policy = RetryPolicy("t", max_attempts=3, clock=ManualClock())
        policy.run("op", Flaky(2), on_error=seen.append)
        assert len(seen) == 2
        assert all(isinstance(exc, OSError) for exc in seen)

    def test_rejects_empty_attempt_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy("t", max_attempts=0)
