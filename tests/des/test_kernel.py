"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.des import (
    Acquire,
    Get,
    Put,
    Release,
    SimLock,
    SimQueue,
    Simulator,
    Timeout,
    WakeAt,
)


class TestTimeAdvance:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_timeout_sequences_process(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(("start", sim.now))
            yield Timeout(1.0)
            log.append(("mid", sim.now))
            yield Timeout(2.0)
            log.append(("end", sim.now))

        sim.spawn(proc())
        sim.run_until(10.0)
        assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_events_beyond_horizon_not_processed(self):
        sim = Simulator()
        log = []

        def proc():
            yield Timeout(100.0)
            log.append("late")

        sim.spawn(proc())
        sim.run_until(10.0)
        assert not log
        assert sim.pending_events == 1

    def test_equal_time_events_fifo(self):
        sim = Simulator()
        log = []

        def proc(tag):
            yield Timeout(1.0)
            log.append(tag)

        for tag in ("a", "b", "c"):
            sim.spawn(proc(tag))
        sim.run_until(2.0)
        assert log == ["a", "b", "c"]

    def test_unknown_request_raises(self):
        sim = Simulator()

        def proc():
            yield "bogus"  # type: ignore[misc]

        sim.spawn(proc())
        with pytest.raises(TypeError):
            sim.run_until(1.0)

    def test_request_subclass_raises(self):
        # Dispatch is on the exact request class; there is no
        # isinstance fallback for subclasses.
        class LongTimeout(Timeout):
            pass

        sim = Simulator()

        def proc():
            yield LongTimeout(1.0)

        sim.spawn(proc())
        with pytest.raises(TypeError, match="unknown request"):
            sim.run_until(2.0)


class TestQueues:
    def test_put_get_roundtrip(self):
        sim = Simulator()
        q = SimQueue(capacity=4)
        received = []

        def producer():
            for i in range(3):
                yield Put(q, i)

        def consumer():
            for _ in range(3):
                item = yield Get(q)
                received.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run_until(1.0)
        assert received == [0, 1, 2]

    def test_capacity_blocks_producer(self):
        sim = Simulator()
        q = SimQueue(capacity=2)
        state = []

        def producer():
            for i in range(5):
                yield Put(q, i)
                state.append(i)

        sim.spawn(producer())
        sim.run_until(1.0)
        # Two enqueued, third blocked.
        assert state == [0, 1]
        assert len(q) == 2

    def test_get_blocks_until_item(self):
        sim = Simulator()
        q = SimQueue(capacity=2)
        got = []

        def consumer():
            item = yield Get(q)
            got.append((item, sim.now))

        def producer():
            yield Timeout(3.0)
            yield Put(q, "x")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run_until(10.0)
        assert got == [("x", 3.0)]

    def test_blocked_producer_resumes_after_pop(self):
        sim = Simulator()
        q = SimQueue(capacity=1)
        done = []

        def producer():
            yield Put(q, 1)
            yield Put(q, 2)
            done.append("producer")

        def consumer():
            yield Timeout(5.0)
            yield Get(q)
            yield Get(q)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run_until(10.0)
        assert done == ["producer"]
        assert q.total_got == 2

    def test_pop_nowait(self):
        sim = Simulator()
        q = SimQueue(capacity=2)

        def producer():
            yield Put(q, "a")

        sim.spawn(producer())
        sim.run_until(1.0)
        assert sim.pop_nowait(q) == "a"
        with pytest.raises(IndexError):
            sim.pop_nowait(q)

    def test_counters(self):
        sim = Simulator()
        q = SimQueue(capacity=8)

        def producer():
            for i in range(5):
                yield Put(q, i)

        sim.spawn(producer())
        sim.run_until(1.0)
        assert q.total_put == 5
        assert q.total_got == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SimQueue(capacity=0)


class TestLocks:
    def test_mutual_exclusion(self):
        sim = Simulator()
        lock = SimLock()
        sections = []

        def proc(tag):
            yield Acquire(lock)
            sections.append((tag, "in", sim.now))
            yield Timeout(1.0)
            sections.append((tag, "out", sim.now))
            yield Release(lock)

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run_until(10.0)
        # b enters only after a leaves.
        assert sections == [
            ("a", "in", 0.0),
            ("a", "out", 1.0),
            ("b", "in", 1.0),
            ("b", "out", 2.0),
        ]

    def test_fifo_order(self):
        sim = Simulator()
        lock = SimLock()
        order = []

        def proc(tag):
            yield Acquire(lock)
            order.append(tag)
            yield Timeout(0.1)
            yield Release(lock)

        for tag in ("a", "b", "c"):
            sim.spawn(proc(tag))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]
        assert lock.acquisitions == 3

    def test_release_without_hold_raises(self):
        sim = Simulator()
        lock = SimLock()

        def bad():
            yield Release(lock)

        sim.spawn(bad())
        with pytest.raises(RuntimeError, match="does not hold"):
            sim.run_until(1.0)


class TestWakeAt:
    def test_resumes_at_absolute_time(self):
        sim = Simulator()
        log = []

        def proc():
            yield 0.25
            yield WakeAt(1.0)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run_until(5.0)
        assert log == [1.0]

    def test_wake_in_the_past_rejected(self):
        sim = Simulator()

        def proc():
            yield 1.0
            yield WakeAt(0.5)

        sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_ties_follow_entries_already_scheduled(self):
        sim = Simulator()
        log = []

        def early():
            yield 2.0
            log.append("early")

        def waker():
            yield WakeAt(2.0)
            log.append("waker")

        sim.spawn(early())
        sim.spawn(waker())
        sim.run_until(5.0)
        assert log == ["early", "waker"]


class TestHorizon:
    def test_run_until_publishes_its_end(self):
        sim = Simulator()
        seen = []

        def proc():
            while True:
                seen.append(sim.horizon)
                yield 1.0

        sim.spawn(proc())
        sim.run_until(2.5)
        sim.run_until(4.0)
        assert seen == [2.5, 2.5, 2.5, 4.0, 4.0]

    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time == float("inf")

        def proc():
            yield 3.0

        sim.spawn(proc())
        sim.run_until(1.0)
        assert sim.next_event_time == 3.0
