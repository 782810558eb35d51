"""Tests for the discrete-event queue's ordering guarantees."""

import pytest

from repro.channel.events import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "c", "b"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        for kind in ("first", "second", "third"):
            q.push(2.0, kind)
        assert [q.pop().kind for _ in range(3)] == ["first", "second", "third"]

    def test_payload_never_compared(self):
        # Identical (time, seq) can't happen; payloads may be
        # uncomparable objects and the heap must not care.
        q = EventQueue()
        q.push(1.0, "x", object())
        q.push(1.0, "y", object())
        assert q.pop().kind == "x"
        assert q.pop().kind == "y"

    def test_same_tick_pops_in_schedule_order_without_comparing_payloads(self):
        # Enough same-tick events, interleaved with other ticks, that
        # the heap compares entries many times; any comparison reaching
        # a payload (or the event holding it) raises.
        class Incomparable:
            def __eq__(self, other):
                raise AssertionError("payload compared")

            __lt__ = __le__ = __gt__ = __ge__ = __ne__ = __eq__
            __hash__ = None

        q = EventQueue()
        order = []
        for index in range(60):
            time = 5.0 if index % 3 else float(index % 5)
            seq = q.push(time, "tick", Incomparable(), index)
            order.append((time, seq, index))
        popped = [q.pop() for _ in range(len(order))]
        assert [(e.time, e.seq, e.payload[1]) for e in popped] == sorted(order)
        same_tick = [e.payload[1] for e in popped if e.time == 5.0]
        assert same_tick == [i for i in range(60) if i % 3]

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert not q
        q.push(4.0, "later")
        q.push(2.0, "sooner")
        assert q.peek_time() == 2.0
        assert len(q) == 2
        q.pop()
        assert q.peek_time() == 4.0

    def test_rejects_negative_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, "bad")

    def test_payload_carried_through(self):
        q = EventQueue()
        q.push(1.0, "cell", b"data", True)
        event = q.pop()
        assert event.payload == (b"data", True)
