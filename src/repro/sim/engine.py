"""Discrete-event engine.

A minimal event queue over :class:`~repro.sim.clock.VirtualClock`. Used by
the time-series experiments (FaaS autoscaling, fuzzing sessions) where
several actors interleave over simulated minutes. Most of the system
charges costs synchronously and does not need the queue.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import VirtualClock

EventCallback = Callable[[], None]

#: Queues smaller than this are never compacted: a handful of stale
#: entries is cheaper to pop past than to rebuild the heap for.
_COMPACT_MIN = 64


class ScheduledEvent:
    """Handle for a scheduled event; supports cancellation."""

    __slots__ = ("time", "callback", "cancelled", "_engine", "_enqueued")

    def __init__(self, time: float, callback: EventCallback) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        #: Owning engine, set on first push; lets ``cancel`` report the
        #: now-dead queue entry so the engine can compact lazily.
        self._engine: "Engine | None" = None
        self._enqueued = False

    def cancel(self) -> None:
        """Prevent this event (and, for periodic series, reoccurrence)."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None and self._enqueued:
            engine._note_cancelled()


class Engine:
    """Event queue bound to a virtual clock."""

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        #: Draws the next tie-break sequence number. An external driver
        #: (the front door's dispatch loop) mints its own ``(time, seq)``
        #: keys from it, so its sources interleave with queued events
        #: exactly as if they had been scheduled here.
        self.next_seq = self._seq.__next__
        #: Cancelled events still sitting in the heap. When they come to
        #: outnumber the live ones the queue is rebuilt without them, so
        #: cancel-heavy workloads (periodic timers torn down en masse)
        #: stay O(live events) instead of growing the heap forever.
        self._cancelled = 0
        #: How many lazy compactions have run (regression-test hook).
        self.compactions = 0
        #: Set by the platform when tracing is on; each dispatched event
        #: then records a ``sim.event`` span.
        self.tracer = NULL_TRACER

    def schedule_at(self, t_ms: float, callback: EventCallback) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``t_ms``."""
        if t_ms < self.clock.now:
            raise ValueError(f"cannot schedule in the past: {t_ms} < {self.clock.now}")
        event = ScheduledEvent(t_ms, callback)
        event._engine = self
        event._enqueued = True
        heapq.heappush(self._queue, (t_ms, next(self._seq), event))
        return event

    def schedule_after(self, delay_ms: float, callback: EventCallback) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        return self.schedule_at(self.clock.now + delay_ms, callback)

    def every(self, interval_ms: float, callback: EventCallback,
              first_at: float | None = None) -> ScheduledEvent:
        """Schedule ``callback`` periodically every ``interval_ms``.

        Returns the handle of the *first* occurrence; cancelling it stops
        the whole series.
        """
        if interval_ms <= 0:
            raise ValueError(f"non-positive interval: {interval_ms}")
        start = self.clock.now + interval_ms if first_at is None else first_at
        series = ScheduledEvent(start, callback)
        series._engine = self

        def tick() -> None:
            if series.cancelled:
                return
            callback()
            if not series.cancelled:
                series.time = self.clock.now + interval_ms
                series._enqueued = True
                heapq.heappush(self._queue, (series.time, next(self._seq), series))

        series.callback = tick
        series._enqueued = True
        heapq.heappush(self._queue, (start, next(self._seq), series))
        return series

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled

    def _note_cancelled(self) -> None:
        """One enqueued event just turned dead; compact if they dominate.

        Rebuilding costs O(queue), but only runs once the queue is more
        than half garbage, so the amortized cost per cancel is O(1) and
        the heap never holds more than ``2 * live + 1`` entries (above
        ``_COMPACT_MIN``).
        """
        self._cancelled += 1
        queue = self._queue
        if len(queue) >= _COMPACT_MIN and self._cancelled * 2 > len(queue):
            live = []
            for entry in queue:
                event = entry[2]
                if event.cancelled:
                    event._enqueued = False
                else:
                    live.append(entry)
            queue[:] = live
            heapq.heapify(queue)
            self._cancelled = 0
            self.compactions += 1

    def next_time(self) -> float | None:
        """Time of the next live event, or None when the queue is empty.

        Cancelled heads are popped on the way (the same lazy-deletion
        discipline :meth:`step` applies), so a subsequent :meth:`step`
        dispatches exactly the event this peeked at. Lets an external
        driver (the front door's dispatch loop) merge its own
        pre-generated arrival stream with the engine queue without
        scheduling one event per arrival.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            head = queue[0]
            if not head[2].cancelled:
                return head[0]
            pop(queue)
            head[2]._enqueued = False
            self._cancelled -= 1
        return None

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            t_ms, _, event = pop(queue)
            event._enqueued = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            clock = self.clock
            if t_ms > clock._now:
                clock._now = t_ms
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("sim.event"):
                    event.callback()
            else:
                event.callback()
            return True
        return False

    def run_until(self, t_ms: float) -> None:
        """Run all events scheduled strictly before ``t_ms``, then advance.

        The dispatch loop is flattened (no per-event :meth:`step` call):
        the heap, clock and tracer are bound to locals and every ready
        event — including batches sharing one timestamp — is popped and
        dispatched in a single tight loop.
        """
        queue = self._queue
        pop = heapq.heappop
        clock = self.clock
        while queue and queue[0][0] < t_ms:
            head, _, event = pop(queue)
            event._enqueued = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            if head > clock._now:
                clock._now = head
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("sim.event"):
                    event.callback()
            else:
                event.callback()
        if t_ms > clock._now:
            clock._now = t_ms

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue; returns how many events ran."""
        ran = 0
        queue = self._queue
        pop = heapq.heappop
        clock = self.clock
        while ran < max_events and queue:
            t_ms, _, event = pop(queue)
            event._enqueued = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            if t_ms > clock._now:
                clock._now = t_ms
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("sim.event"):
                    event.callback()
            else:
                event.callback()
            ran += 1
        return ran
