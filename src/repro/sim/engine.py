"""Event-scheduled simulation engine: one heap, one clock, one loop.

This module is the reproduction's equivalent of Mesquite CSIM: a
classic event-scheduled discrete-event simulator.  Time is a float in
arbitrary units (the anycast model uses seconds).  Events are callbacks
scheduled at absolute times and executed in non-decreasing time order;
ties are broken by insertion order so runs are fully deterministic.

The pending events live in one binary heap of ``(time, sequence,
event)`` tuples owned by the :class:`Simulator`.  Tuple comparison is
resolved in C, so the O(log n) sift per push/pop never calls back into
Python; the unique ``sequence`` means the event object itself is never
compared.  Cancellation is lazy: a cancelled event stays in the heap
and is skipped when it surfaces, while the simulator's live counter
drops at once so :attr:`Simulator.pending_count` stays exact.

:meth:`Simulator.run` is the only way to execute events.  It returns
when the heap drains or the next live event lies after its ``until``
horizon.  Given a horizon, it then sets the clock to ``until``, and a
later ``run`` resumes from there.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(2.0, lambda: fired.append(sim.now))
>>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[1.0, 2.0]
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro import invariants as _invariants

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the simulator is used inconsistently.

    Examples include scheduling an event in the past, a non-finite
    event time or horizon, and a re-entrant :meth:`Simulator.run`.
    """


class Event:
    """A scheduled callback, returned by :meth:`Simulator.schedule`.

    Events support O(1) cancellation: cancelling marks the event dead
    and the event loop skips it when it surfaces in the heap.  The
    owning simulator's live-event counter is decremented at once, so
    it stays exact without scanning.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    callback:
        Zero-argument callable invoked at ``time``.
    """

    __slots__ = ("time", "callback", "_cancelled", "_owner")

    def __init__(
        self, time: float, callback: Callable[[], Any], owner: "Simulator"
    ) -> None:
        self.time = time
        self.callback = callback
        self._cancelled = False
        # The simulator while the event is pending; None once it has
        # fired or been cancelled.
        self._owner: Optional[Simulator] = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._live -= 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"Event(t={self.time:.6g}, {state})"


class Simulator:
    """Deterministic event-scheduled discrete-event simulator.

    :meth:`run` repeatedly pops the earliest live event off the heap,
    advances the clock to its timestamp and invokes its callback.
    Callbacks may schedule and cancel further events.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).
    check_invariants:
        Enable the runtime sanitizer for this simulator: every
        dispatched event is checked for time monotonicity (see
        :mod:`repro.invariants`).  Defaults to the process-wide switch
        (``REPRO_CHECK_INVARIANTS=1``).  Execution order is identical
        with the sanitizer on or off — the golden determinism tests
        run both ways.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        check_invariants: Optional[bool] = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._live = 0
        self._check = (
            _invariants.enabled
            if check_invariants is None
            else bool(check_invariants)
        )
        self._sequence = itertools.count()
        self._running = False
        self._events_executed = 0

    # ------------------------------------------------------------------
    # clock and heap inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of event callbacks executed so far."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._live

    def peek(self) -> Optional[float]:
        """Return the time of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2]._cancelled:
                heappop(heap)
            else:
                return entry[0]
        return None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current clock.
        callback:
            Zero-argument callable.

        Returns
        -------
        Event
            Handle that may be used to cancel the event.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not finite.
        """
        time = self._now + float(delay)
        if self._now <= time < _INF:  # NaN fails the <= test
            event = Event(time, callback, self)
            self._live += 1
            heappush(self._heap, (time, next(self._sequence), event))
            return event
        # Invalid delay: delegate to schedule_at for the exact checks
        # and error messages (cold path).
        return self.schedule_at(time, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``time`` must be finite and must not precede the current clock.
        """
        # One comparison on the hot path, as in schedule: a float in
        # [now, inf) (NaN fails the <= test).  Anything else is converted
        # and checked here (cold path).
        if not (time.__class__ is float and self._now <= time < _INF):
            time = float(time)
            if math.isnan(time) or math.isinf(time):
                raise SimulationError(f"event time must be finite, got {time!r}")
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule event at {time} before current time {self._now}"
                )
        event = Event(time, callback, self)
        self._live += 1
        heappush(self._heap, (time, next(self._sequence), event))
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly
            after ``until`` and advance the clock to exactly ``until``.
            Events scheduled at ``until`` itself *are* executed.
            ``None`` runs until no event is pending.

        Raises
        ------
        SimulationError
            If ``until`` is not finite, or if called from inside a
            running event loop.
        """
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"run horizon must be finite, got {until!r}")
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        check = self._check
        horizon = _INF if until is None else until
        try:
            while heap:
                time, _, event = heap[0]
                if event._cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                event._owner = None
                self._live -= 1
                if check:
                    _invariants.check_time_monotonic(self._now, time, "Simulator.run")
                self._now = time
                self._events_executed += 1
                event.callback()
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6g}, pending={self.pending_count}, "
            f"executed={self._events_executed})"
        )
