"""Seeded, deterministic retries for the store data plane.

:class:`RetryPolicy` is capped exponential backoff with **seeded
jitter** (a sha256-of-coordinates derivation, so two runs from one
seed back off identically), a per-op attempt budget, and per-op /
per-request deadlines.  The store guard in :mod:`repro.store.runner`
drives every store operation through one, and reprolint REP404 bans
hand-rolled ``for _ in range(2)`` retry loops in its place; every
attempt and backoff lands in telemetry as
``resilience.<scope>.<metric>``.

Determinism argument: backoff delays derive from ``(seed, scope, op,
attempt)`` via sha256 — no shared RNG stream — and the injectable
:class:`Clock` lets tests assert the exact schedule without waiting
for it.  Faults cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import time

from repro.telemetry.core import current as _telemetry

__all__ = [
    "Clock",
    "ManualClock",
    "RetryPolicy",
]


class Clock:
    """Monotonic wall clock; the default timebase for deadlines."""

    def now(self):
        """Seconds on a monotonic timebase (never wall-clock time)."""
        return time.monotonic()

    def sleep(self, seconds):
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """A virtual clock for tests: time moves only when told to.

    ``sleep`` advances the virtual time and records the request, so a
    test can assert the exact deterministic backoff schedule a policy
    produced without ever waiting for it.
    """

    def __init__(self, start=0.0):
        self._now = float(start)
        #: every sleep requested, in order.
        self.sleeps = []

    def now(self):
        return self._now

    def advance(self, seconds):
        self._now += seconds

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self._now += seconds


class RetryPolicy:
    """Deterministic capped-exponential retry with seeded jitter.

    ``run(op, call)`` drives ``call`` through at most ``max_attempts``
    attempts, sleeping ``min(max_delay, base_delay * 2**k) * jitter``
    between them, where ``jitter`` is a uniform [0.5, 1.0) factor
    derived from ``(seed, scope, op, attempt)`` — the fault plans'
    sha256 derivation, so one seed yields one backoff schedule.

    Budgets:

    * ``max_attempts`` — per-op attempt budget;
    * ``op_deadline`` — seconds allowed per ``run()`` call: no retry is
      *started* (nor slept toward) past it;
    * ``request_deadline`` — a shared budget across every ``run()``
      through this policy instance (one logical request / one sweep's
      guard): once spent, every op gets exactly one attempt.

    Telemetry (``resilience.<scope>.*``): ``attempts``, ``retries``,
    ``backoff_seconds``, ``giveups``, ``deadline_exhausted``.
    """

    def __init__(
        self,
        scope="store",
        *,
        max_attempts=2,
        base_delay=0.0,
        max_delay=2.0,
        op_deadline=None,
        request_deadline=None,
        seed=0,
        retry_on=(OSError,),
        clock=None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.scope = scope
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.op_deadline = op_deadline
        self.request_deadline = request_deadline
        self.seed = int(seed)
        self.retry_on = tuple(retry_on)
        self.clock = clock if clock is not None else Clock()
        #: seconds of budget consumed across every run() so far.
        self.spent = 0.0
        #: ops driven through run() (the jitter op coordinate).
        self._op_index = 0

    # -- deterministic jitter ------------------------------------------------

    def _jitter(self, op_index, attempt):
        """A uniform [0.5, 1.0) factor, pure in (seed, scope, op, attempt)."""
        material = "%d|%s|%d|%d" % (self.seed, self.scope, op_index, attempt)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return 0.5 + unit / 2.0

    def backoff(self, op_index, attempt):
        """The delay before retry ``attempt`` (1-based) of op ``op_index``."""
        if self.base_delay <= 0:
            return 0.0
        raw = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        return raw * self._jitter(op_index, attempt)

    # -- driving -------------------------------------------------------------

    def run(self, op, call, on_error=None):
        """Drive ``call`` under this policy; re-raise the final failure.

        ``op`` is a human-readable operation label (telemetry and
        error context only — the jitter coordinate is the op *count*,
        which is stable across label changes).  ``on_error`` is called
        with each caught exception before the retry decision, so
        callers like the store guard can keep their own error ledgers.
        """
        telemetry = _telemetry()
        op_index = self._op_index
        self._op_index += 1
        started = self.clock.now()
        last = None
        for attempt in range(self.max_attempts):
            telemetry.count("resilience.%s.attempts" % self.scope)
            try:
                result = call()
            except self.retry_on as exc:
                last = exc
                if on_error is not None:
                    on_error(exc)
            else:
                self.spent += self.clock.now() - started
                return result
            if attempt + 1 >= self.max_attempts:
                break
            delay = self.backoff(op_index, attempt + 1)
            if not self._within_budget(started, delay):
                telemetry.count(
                    "resilience.%s.deadline_exhausted" % self.scope
                )
                break
            if delay > 0:
                telemetry.count(
                    "resilience.%s.backoff_seconds" % self.scope, delay
                )
                self.clock.sleep(delay)
            telemetry.count("resilience.%s.retries" % self.scope)
        telemetry.count("resilience.%s.giveups" % self.scope)
        self.spent += self.clock.now() - started
        raise last

    def _within_budget(self, started, delay):
        """True if a retry after ``delay`` still fits every deadline."""
        elapsed = self.clock.now() - started
        if self.op_deadline is not None \
                and elapsed + delay >= self.op_deadline:
            return False
        if self.request_deadline is not None \
                and self.spent + elapsed + delay >= self.request_deadline:
            return False
        return True
