"""The deterministic discrete-event core of the channel simulator.

A single :class:`EventQueue` orders everything that happens on the
simulated link -- cell arrivals, retransmission timers, control
messages -- by ``(time, seq)``, where ``seq`` is a monotonic insertion
counter.  The tie-break matters: two events scheduled for the same
tick pop in the order they were scheduled, on every run, at every
worker count.  An :class:`Event` is itself a ``(time, seq, kind,
payload)`` tuple, so heap comparisons run in C, and because the
``(time, seq)`` prefix is always unique they never reach the kind or
the payload.

Time is a simulated float tick counter owned by the consumer; nothing
here (or anywhere in :mod:`repro.channel`) reads a wall clock --
reprolint REP102's discipline, extended to the channel layer.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled occurrence: when, what, and its payload."""

    time: float
    seq: int
    kind: str
    payload: tuple = ()


class EventQueue:
    """A seeded-simulation event queue with deterministic tie-breaks."""

    def __init__(self):
        self._heap = []
        self._seq = 0

    def push(self, time, kind, *payload):
        """Schedule an event; returns its insertion sequence number."""
        if time < 0:
            raise ValueError("event time must be >= 0, got %r" % (time,))
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, Event(float(time), seq, kind, payload))
        return seq

    def pop(self):
        """The earliest event (FIFO within a tick)."""
        return heapq.heappop(self._heap)

    def peek_time(self):
        """The next event's time, or None when empty."""
        return self._heap[0].time if self._heap else None

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)
