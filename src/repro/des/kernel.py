"""A from-scratch discrete-event simulation kernel.

Implements the minimal process-interaction style needed by the PE
engine (:mod:`repro.des.engine`): processes are Python generators that
yield *requests* to the simulator —

- a bare ``float`` (or :class:`Timeout`) — advance this process by a
  simulated delay,
- :class:`WakeAt` — resume this process at an absolute simulated time
  (for processes that advanced a virtual clock of their own and must
  wake at the exact float time their per-event chain would have),
- :class:`Get` / :class:`Put` — blocking pop/push on a bounded
  :class:`SimQueue` (the scheduler queues),
- :class:`Acquire` / :class:`Release` — FIFO mutual exclusion on a
  :class:`SimLock` (operator-internal locks, core slots),
- :class:`ParkUntilNonEmpty` — suspend until one of a set of queues
  receives an item (event-driven idle parking for scheduler threads).

The kernel is deterministic: events at equal timestamps are ordered by
insertion sequence.  No wall-clock access anywhere.

Fast path
---------
The event heap stores ``(time, seq, task, value)`` tuples directly, so
scheduling a resumption allocates no closure, and dispatch in
:meth:`Simulator._advance` is a jump on the request's exact class (with
the timeout case — by far the most frequent — inlined as a
bare-``float`` check before any request-object handling).  Anything
else, a subclass of a request type included, raises ``TypeError``.
Hot process bodies should ``yield dt`` rather than ``yield
Timeout(dt)`` to skip the per-event dataclass allocation; both
spellings have identical semantics.

A timed wait (delay or :class:`WakeAt`) that ends strictly before the
earliest pending entry and within the current :meth:`run_until`
horizon resumes in place (*resumption elision*): the heap would have
popped exactly that entry next, since a new entry takes the largest
sequence number and so loses every tie.  The resumption still counts
in ``events_processed`` and is tallied in ``events_elided``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Deque, Generator, List, Optional, Tuple
from collections import deque

Process = Generator["Request", Any, None]


class Request:
    """Base class of everything a process may yield (floats also work)."""


@dataclass(frozen=True)
class Timeout(Request):
    delay: float

    def __post_init__(self) -> None:
        if not self.delay >= 0:
            raise ValueError(f"negative timeout: {self.delay}")


class WakeAt(Request):
    """Resume the yielding task at absolute simulated time ``time``.

    Heap ordering is the same as for a timeout dispatched at ``time``:
    the entry takes the next sequence number, so it follows every
    entry already scheduled for the same instant.  A plain slotted
    class rather than a frozen dataclass: processes that fold event
    chains create one per fold, so construction cost matters.
    """

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time


@dataclass(frozen=True)
class Get(Request):
    queue: "SimQueue"


@dataclass(frozen=True)
class Put(Request):
    queue: "SimQueue"
    item: Any


@dataclass(frozen=True)
class Acquire(Request):
    lock: "SimLock"


@dataclass(frozen=True)
class Release(Request):
    lock: "SimLock"


@dataclass(frozen=True)
class ParkUntilNonEmpty(Request):
    """Park the yielding task until any of ``queues`` receives an item.

    Semantics:

    - if any queue already holds items when the request is handled, the
      task is resumed immediately (no wakeup can be lost between a scan
      and the park, because the kernel handles requests synchronously);
    - otherwise the task joins each queue's park set and is woken by
      the next :class:`Put` that lands an item in one of them; wakeups
      are FIFO in park order, one task per enqueued item, which
      staggers a pool of parked scheduler threads round-robin instead
      of thundering all of them.

    The request is immutable and holds no per-use state, so callers
    should construct it **once** and re-yield the same instance — the
    idle path then allocates nothing.
    """

    queues: Tuple["SimQueue", ...]


class SimQueue:
    """Bounded FIFO queue with blocking put/get.

    Backpressure is the point: a full queue blocks its producer, which
    is how the real runtime's finite scheduler queues throttle upstream
    regions.
    """

    def __init__(self, capacity: int = 64, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self.getters: Deque["_Task"] = deque()
        self.putters: Deque[Tuple["_Task", Any]] = deque()
        self.parked: Deque["_Task"] = deque()
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity


class SimLock:
    """FIFO lock."""

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.held_by: Optional["_Task"] = None
        self.waiters: Deque["_Task"] = deque()
        self.acquisitions = 0


@dataclass
class _Task:
    """Bookkeeping for one running process."""

    process: Process
    name: str
    alive: bool = True
    # Queues whose park set currently contains this task (None when
    # the task is runnable or blocked on something else).
    parked_on: Optional[Tuple["SimQueue", ...]] = field(
        default=None, repr=False
    )


class Simulator:
    """The event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        # Heap entries carry the resumption inline: (time, seq, task,
        # send_value).  seq is unique, so task/value never compare.
        self._heap: List[Tuple[float, int, _Task, Any]] = []
        self._seq = itertools.count()
        self._tasks: List[_Task] = []
        self.events_processed = 0
        # Resumptions run in place, without the heap (see _advance).
        self.events_elided = 0
        self.deadlocked = False
        self.deadlock_tasks: Tuple[str, ...] = ()
        # Latest time the current run_until call will dispatch: its
        # t_end (-inf before the first call).  No resumption is
        # elided, and no process coalesces its own events, past it.
        self.horizon = -math.inf
        self._current: Optional[_Task] = None

    # ------------------------------------------------------------------
    def spawn(self, process: Process, name: str = "proc") -> _Task:
        """Register a generator process; it starts at the current time."""
        task = _Task(process=process, name=name)
        self._tasks.append(task)
        heapq.heappush(self._heap, (self.now, next(self._seq), task, None))
        return task

    def _schedule_task(
        self, delay: float, task: _Task, value: Any = None
    ) -> None:
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), task, value)
        )

    # ------------------------------------------------------------------
    def run_until(self, t_end: float) -> int:
        """Process events until simulated time reaches ``t_end``.

        Returns the number of resumptions dispatched by this call,
        elided ones included.  ``t_end`` must not be NaN.

        If the heap drains while live tasks remain (all of them blocked
        on queues, locks or parked — with no pending event that could
        ever unblock them), the run is **wedged**: ``deadlocked`` is
        latched and ``deadlock_tasks`` names the stuck processes, so a
        caller measuring throughput over the window can tell "nothing
        ran" apart from "ran and produced nothing".
        """
        if math.isnan(t_end):
            raise ValueError("run_until: t_end is NaN")
        heap = self._heap
        pop = heapq.heappop
        advance = self._advance
        n = 0
        elided = self.events_elided
        self.horizon = t_end
        while heap and heap[0][0] <= t_end:
            time, _seq, task, value = pop(heap)
            self.now = time
            advance(task, value)
            n += 1
        n += self.events_elided - elided
        self.events_processed += n
        if not heap:
            stuck = tuple(t.name for t in self._tasks if t.alive)
            if stuck:
                self.deadlocked = True
                self.deadlock_tasks = stuck
        self.now = max(self.now, t_end)
        return n

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def next_event_time(self) -> float:
        """Time of the earliest pending event (``inf`` when none)."""
        return self._heap[0][0] if self._heap else math.inf

    # ------------------------------------------------------------------
    # synchronous helpers (safe inside a single event callback)
    # ------------------------------------------------------------------
    def pop_nowait(self, queue: SimQueue) -> Any:
        """Pop an item the caller *knows* is present, without yielding.

        Needed by scheduler threads that scan queues while holding a
        core token: yielding a blocking Get while holding the core could
        starve producers of cores.  Raises ``IndexError`` on empty.
        """
        item = queue.items.popleft()
        queue.total_got += 1
        self._unblock_putter(queue)
        return item

    def put_nowait(self, queue: SimQueue, item: Any) -> bool:
        """Deliver ``item`` without yielding; ``False`` when full.

        Identical to a non-blocking :class:`Put`: hands off to a
        waiting getter, else appends and wakes a parked task.  Because
        the kernel runs one event at a time, the caller's prior
        fullness check is still valid when this executes.
        """
        if queue.getters:
            getter = queue.getters.popleft()
            queue.total_put += 1
            queue.total_got += 1
            self._schedule_task(0.0, getter, item)
            return True
        if len(queue.items) < queue.capacity:
            queue.items.append(item)
            queue.total_put += 1
            if queue.parked:
                self._wake_parked(queue)
            return True
        return False

    def acquire_nowait(self, lock: SimLock) -> bool:
        """Take ``lock`` for the currently running task if it is free.

        Returns ``False`` (without queueing as a waiter) when held.
        """
        if lock.held_by is None:
            lock.held_by = self._current
            lock.acquisitions += 1
            return True
        return False

    def release_nowait(self, lock: SimLock) -> None:
        """Release ``lock`` held by the currently running task.

        FIFO hand-off: the longest-waiting :class:`Acquire` (if any)
        becomes the holder and is scheduled to resume.
        """
        if lock.held_by is not self._current:
            name = self._current.name if self._current else "<none>"
            raise RuntimeError(
                f"{name} released {lock.name} it does not hold"
            )
        if lock.waiters:
            nxt = lock.waiters.popleft()
            lock.held_by = nxt
            lock.acquisitions += 1
            self._schedule_task(0.0, nxt, None)
        else:
            lock.held_by = None

    # ------------------------------------------------------------------
    # process advancement
    # ------------------------------------------------------------------
    def _advance(self, task: _Task, value: Any) -> None:
        """Resume ``task`` with ``value`` and run it to its next *wait*.

        This is a trampoline: a request that does not block (a Get on a
        non-empty queue, a Put into free capacity, an uncontended
        Acquire, any Release) is satisfied synchronously and the task
        is resumed immediately, without a round-trip through the event
        heap.  So is a timed wait that no pending event precedes (see
        the module docstring).  Processes woken *by* this task (a getter
        handed an item, a lock passed to a waiter) still go through the
        heap, preserving FIFO fairness and deterministic ordering.
        """
        if not task.alive:
            return
        self._current = task
        heap = self._heap
        seq = self._seq
        now = self.now
        horizon = self.horizon
        push = heapq.heappush
        send = task.process.send
        while True:
            try:
                request = send(value)
            except StopIteration:
                task.alive = False
                return
            cls = request.__class__
            # Hot path: bare numeric timeout — no request object at all.
            # ``not x >= 0`` also rejects NaN, which breaks heap order.
            if cls is float or cls is int:
                if not request >= 0:
                    raise ValueError(
                        f"negative timeout {request} from {task.name}"
                    )
                t = now + request
            elif cls is Timeout:
                t = now + request.delay
            elif cls is WakeAt:
                t = request.time
                if not t >= now:
                    raise ValueError(
                        f"wake time {t} before now {now} from {task.name}"
                    )
            elif cls is Get:
                queue = request.queue
                if queue.items:
                    value = queue.items.popleft()
                    queue.total_got += 1
                    if queue.putters:
                        self._unblock_putter(queue)
                    continue
                queue.getters.append(task)
                return
            elif cls is Put:
                queue = request.queue
                if queue.getters:
                    getter = queue.getters.popleft()
                    queue.total_put += 1
                    queue.total_got += 1
                    push(heap, (now, next(seq), getter, request.item))
                    value = None
                    continue
                if len(queue.items) < queue.capacity:
                    queue.items.append(request.item)
                    queue.total_put += 1
                    if queue.parked:
                        self._wake_parked(queue)
                    value = None
                    continue
                queue.putters.append((task, request.item))
                return
            elif cls is Acquire:
                lock = request.lock
                if lock.held_by is None:
                    lock.held_by = task
                    lock.acquisitions += 1
                    value = None
                    continue
                lock.waiters.append(task)
                return
            elif cls is Release:
                lock = request.lock
                if lock.held_by is not task:
                    raise RuntimeError(
                        f"{task.name} released {lock.name} it does "
                        "not hold"
                    )
                if lock.waiters:
                    nxt = lock.waiters.popleft()
                    lock.held_by = nxt
                    lock.acquisitions += 1
                    push(heap, (now, next(seq), nxt, None))
                else:
                    lock.held_by = None
                value = None
                continue
            elif cls is ParkUntilNonEmpty:
                self._handle_park_req(task, request)
                return
            else:
                # Dispatch is on the exact class: a subclass of a
                # request type is as unknown as any other object.
                raise TypeError(
                    f"unknown request {request!r} from {task.name}"
                )
            # Only a timed wait gets here.  Resumption elision: a wake
            # strictly before every pending entry (a tie goes to the
            # older entry) and within the run_until horizon is the one
            # the heap would pop next, so the task resumes in place.
            if t <= horizon and (not heap or t < heap[0][0]):
                self.now = now = t
                self.events_elided += 1
                value = None
                continue
            push(heap, (t, next(seq), task, None))
            return

    # ------------------------------------------------------------------
    # blocking-wait helpers (park, putter hand-off, parked wake-up)
    # ------------------------------------------------------------------
    def _handle_park_req(
        self, task: _Task, request: ParkUntilNonEmpty
    ) -> None:
        queues = request.queues
        for q in queues:
            if q.items:
                # Work appeared between the caller's scan and the park
                # (or the caller never scanned): resume immediately.
                self._schedule_task(0.0, task, True)
                return
        task.parked_on = queues
        for q in queues:
            q.parked.append(task)

    # ------------------------------------------------------------------
    def _wake_parked(self, queue: SimQueue) -> None:
        """Wake the longest-parked task watching ``queue``, if any."""
        if not queue.parked:
            return
        task = queue.parked.popleft()
        if task.parked_on:
            for q in task.parked_on:
                if q is not queue:
                    try:
                        q.parked.remove(task)
                    except ValueError:
                        pass
        task.parked_on = None
        self._schedule_task(0.0, task, True)

    def _unblock_putter(self, queue: SimQueue) -> None:
        if queue.putters and not queue.is_full:
            putter, item = queue.putters.popleft()
            queue.items.append(item)
            queue.total_put += 1
            self._schedule_task(0.0, putter, None)
            self._wake_parked(queue)
