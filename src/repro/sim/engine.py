"""The discrete-event simulation engine.

One scheduler core: a binary heap of ``(time, seq, event)`` tuples.  Time is
kept in seconds as a float; ``seq`` is a single insertion counter, so events
with equal timestamps run FIFO in the order they were scheduled and a run is
fully deterministic for a given seed.  Keying the heap on tuples keeps every
ordering comparison in C (``float``/``int`` compares inside ``heapq``)
instead of a Python ``__lt__``.

Timers are plain events.  The transports arm and almost always cancel one
retransmission timer per data packet, so cancelled events (tombstones) can
outnumber live ones; the heap is compacted in place whenever tombstones
dominate it (amortized O(1) per scheduled event).  ``tests/golden/`` pins
every registered scenario's results and event counts absolutely.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Optional

#: Heaps smaller than this are never compacted -- scanning them costs more
#: than letting the run loop discard the tombstones as they surface.
_COMPACT_MIN_SIZE = 2048


class Event:
    """A scheduled callback.

    The engine's heap entry ``(time, seq, event)`` carries the ordering, so
    simultaneous events fire in the order they were scheduled.  Cancelled events are skipped,
    without running, when the engine reaches them.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., None], args: tuple = ()) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}{state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is reached."""
        self.cancelled = True


class Simulator:
    """Event loop, simulation clock and random-number source.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Every stochastic
        component (workload generation, ECN marking, ECMP tie-breaks) draws
        from this RNG so a run is reproducible from its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, Event]] = []
        self._compact_watermark = _COMPACT_MIN_SIZE
        self._events_scheduled = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._stopped = False
        #: Execution trace: when a list, every executed event appends
        #: ``(time, seq)``.  Off (None) by default -- the verify harness
        #: enables it to check the monotone clock.
        self._trace: Optional[list] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self._push(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        return self._push(time, fn, args)

    def _push(self, time: float, fn: Callable[..., None], args: tuple) -> Event:
        # ``OutputPort._start_batch`` (sim/link.py) inlines this for packet
        # arrivals, the engine's most frequent event; keep the two in step.
        seq = next(self._seq)
        event = Event(time, fn, args)
        self._events_scheduled += 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) >= self._compact_watermark:
            self._compact()
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (no-op for ``None``)."""
        if event is not None:
            event.cancelled = True

    def _compact(self) -> None:
        """Drop cancelled tombstones if they dominate the heap.

        Called whenever the heap grows past a watermark.  The watermark
        doubles with the surviving heap so the O(n) scan is amortized O(1)
        per scheduled event.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[2].cancelled]
        if 2 * len(live) <= len(heap):
            self._events_cancelled += len(heap) - len(live)
            # Replace contents in place: ``run`` holds a reference to the
            # list, so the object identity must be preserved.
            heap[:] = live
            heapq.heapify(heap)
        self._compact_watermark = max(_COMPACT_MIN_SIZE, 2 * len(heap))

    # ------------------------------------------------------------------
    # Accounting and tracing
    # ------------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Number of events ever created via ``schedule``/``schedule_at``.

        Accounting identity (checked by the verify harness at all times)::

            events_scheduled == events_processed + events_cancelled + pending_events

        Cancelled-but-not-yet-discarded events still count as pending; they
        migrate to :attr:`events_cancelled` when the run loop or a
        compaction discards them.
        """
        return self._events_scheduled

    @property
    def events_processed(self) -> int:
        """Number of events that have been executed so far."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events discarded without running (heap pops
        and compactions alike)."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Events still queued (including cancelled ones not yet discarded)."""
        return len(self._heap)

    def enable_trace(self) -> list:
        """Record ``(time, seq)`` for every executed event from now on.

        Returns the (live) trace list; its times must be non-decreasing.
        Tracing is off by default and costs one ``None``-check per event.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    @property
    def trace(self) -> Optional[list]:
        """The execution trace (``None`` unless :meth:`enable_trace` ran)."""
        return self._trace

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next *live* event would be later than this time; the
            head event stays queued, so a later ``run`` call resumes exactly
            where this one stopped.  On return the clock is advanced to
            ``until`` whenever the simulation did not already reach it *and*
            no live event at or before ``until`` remains queued (i.e. the
            queue emptied or only later events remain); :meth:`stop` always
            suppresses the advance, and the ``max_events`` valve does so only
            when it left live events at or before ``until`` unexecuted.
        max_events:
            Safety valve: stop once this many events have been *executed*.
            Cancelled events never run and do not count against the valve;
            they are tallied separately in :attr:`events_cancelled`.
            (Termination is still guaranteed: cancelled events cannot
            schedule new events, so discarding them only shrinks the queue.)
        """
        self._stopped = False
        # Hot path: bind everything the loop touches to locals.  This loop
        # runs hundreds of thousands of times per simulated second, so each
        # avoided attribute/global lookup is measurable.
        heap = self._heap
        heappop = heapq.heappop
        trace = self._trace
        executed = 0
        cancelled = 0
        try:
            while heap and not self._stopped:
                time, seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    cancelled += 1
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self.now = time
                if trace is not None:
                    trace.append((time, seq))
                event.fn(*event.args)
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._events_processed += executed
            self._events_cancelled += cancelled
        if until is not None and not self._stopped and self.now < until:
            # Discard tombstones so the advance decision sees the live head.
            while heap and heap[0][2].cancelled:
                heappop(heap)
                self._events_cancelled += 1
            if not heap or heap[0][0] > until:
                self.now = until

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Run until no events remain (or ``max_events`` were executed)."""
        self.run(until=None, max_events=max_events)
