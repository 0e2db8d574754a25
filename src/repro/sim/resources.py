"""FIFO service pools for the simulation engine.

:class:`Resource` is a counting semaphore granted in arrival order: CPU
cores, disk arms, NFS server threads, NFSv4.1 session slots, PVFS2
buffer pools.  (The other kind of queue in the testbed, a NIC direction
shared by seeded-random chunk interleaving, is
:class:`repro.sim.network.Pipe`.)
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import (
    _PENDING,
    _PROCESSED,
    _TRIGGERED,
    Event,
    SimulationError,
    Simulator,
    _fire,
)

__all__ = ["Resource"]


class Resource:
    """Counting semaphore with FIFO arbitration.

    Usage from a process::

        yield resource.acquire()
        try:
            yield from work_that_waits()
        finally:
            resource.release()

    or, when the holder does nothing but occupy one unit for a known
    time (a CPU charge, a bus transfer)::

        yield resource.serve(service_time)

    A process that may well find the pool free claims it in place
    first, and queues only when that fails::

        if not resource.try_acquire():
            yield resource.acquire()

    ``acquire(n)`` atomically claims ``n`` units (granted only when all
    ``n`` are free, still in FIFO order, so large requests are not
    starved).

    A grant never costs an event of its own.  Free and unqueued,
    ``acquire()`` returns an event that has *already fired* — nothing is
    scheduled and the yielding process runs straight on — and
    ``serve(d)`` returns the one heap event of the service time.
    Queued, the releaser fires an acquire's event, or schedules a
    service's ``d`` seconds out: that event is the grant *and* the end
    of service.  A FIFO queue decides nothing at grant time (the oldest
    waiter gets the units whoever is asked, whenever), so a grant event
    would only relay control.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: Peak units simultaneously held over the resource's lifetime
        #: (occupancy high-water mark, tracked at grant time: a queued
        #: request has not raised it yet).
        self.high_water = 0
        #: Seconds of completed :meth:`serve` time, summed over units.
        self.busy_time = 0.0
        #: Pending requests, oldest first: plain events carrying the
        #: request's ``units`` and ``hold``.  An interrupted waiter's grant
        #: is withdrawn in O(1) by zeroing its ``units`` where it sits; it
        #: is discarded lazily when it reaches the front.  ``_queued``
        #: counts the ones still wanted.
        self._waiters: deque[Event] = deque()
        self._queued = 0
        #: One bound method each for every grant's ``_abandon`` hook and
        #: every service's queue entry, not a fresh one per request (the
        #: hottest calls in the simulator).
        self._abandon = self._abandon_grant
        self._served = self._end_service

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of requests waiting."""
        return self._queued

    def acquire(self, units: int = 1) -> Event:
        """Return an event that fires once ``units`` are the caller's.

        If the waiting process is interrupted, the pending request is
        withdrawn (or, if already granted and the event has not reached
        it yet, the units are returned on the spot) — no leak.
        """
        if units < 1 or units > self.capacity:
            raise ValueError(
                f"cannot acquire {units} units of {self.name or 'resource'} "
                f"with capacity {self.capacity}"
            )
        ev = Event(self.sim)
        if self.try_acquire(units):
            # Granted here and now, nothing to wait for: pre-fired.
            ev._value = units
            ev._state = _PROCESSED
        else:
            ev.units = units
            ev.hold = None
            ev._abandon = self._abandon
            self._waiters.append(ev)
            self._queued += 1
        return ev

    def try_acquire(self, units: int = 1) -> bool:
        """Claim ``units`` here and now if they are free and nobody
        queues; say whether.

        The free case of :meth:`acquire` without its event: no grant
        is built, and the caller does not yield, so nothing resumes its
        generator chain just to hand it what it already holds.  When it
        says no, ``acquire(units)`` queues the request (and rejects a
        bad ``units``).
        """
        if self._queued or units < 1 or self._in_use + units > self.capacity:
            return False
        self._in_use += units
        if self._in_use > self.high_water:
            self.high_water = self._in_use
        return True

    def serve(self, duration: float) -> Event:
        """Hold one unit for ``duration``; the event fires at the end.

        One queue entry per service, busy or not: scheduled here when a
        unit is free, by the releaser when queued.  The unit goes back
        when that entry fires, *before* the waiter's callback runs —
        where an explicit ``release()`` at the top of the waiter would
        be — so whoever is queued is scheduled ahead of anything the
        resumed process does next.  If the waiting process is
        interrupted first, a queued service is withdrawn and one in
        progress returns its unit on the spot; neither adds
        ``busy_time``.
        """
        if duration < 0:
            raise ValueError(f"negative service time {duration!r}")
        ev = Event(self.sim)
        ev.units = 1
        ev.hold = duration
        ev._abandon = self._abandon
        if self._queued or self._in_use >= self.capacity:
            self._waiters.append(ev)
            self._queued += 1
        else:
            self._in_use += 1
            if self._in_use > self.high_water:
                self.high_water = self._in_use
            ev._value = 1
            ev._state = _TRIGGERED
            self.sim._enqueue(self._served, ev, duration)
        return ev

    def _end_service(self, ev: Event) -> None:
        """The queue entry of a service: give the unit back, then fire."""
        if ev.units:  # else cut short by an interrupt: already given back
            ev.units = 0
            self.busy_time += ev.hold
            self.release()
        _fire(ev)

    def _abandon_grant(self, ev: Event) -> None:
        """The waiter was interrupted: withdraw or return the grant."""
        units = ev.units
        if units:
            ev.units = 0
            if ev._state == _PENDING:
                self._queued -= 1
            else:
                # Granted, but the event never reached its waiter (a
                # grant in flight, or a service cut short).
                self.release(units)

    def release(self, units: int = 1) -> None:
        """Return ``units`` to the pool and wake FIFO waiters."""
        if units < 1 or units > self._in_use:
            raise SimulationError(
                f"release({units}) with only {self._in_use} in use "
                f"on {self.name or 'resource'}"
            )
        self._in_use -= units
        waiters = self._waiters
        if not self._queued:
            # Nobody to wake (the common case); whatever is left in the
            # queue was withdrawn.
            if waiters:
                waiters.clear()
            return
        capacity = self.capacity
        while waiters and self._in_use < capacity:
            ev = waiters[0]
            want = ev.units
            if self._in_use + want > capacity:
                break
            waiters.popleft()
            if not want:
                continue  # withdrawn by _abandon_grant
            self._queued -= 1
            self._in_use += want
            if self._in_use > self.high_water:
                self.high_water = self._in_use
            if ev.hold is None:
                ev.succeed(want)
            else:
                ev._value = want
                ev._state = _TRIGGERED
                self.sim._enqueue(self._served, ev, ev.hold)
