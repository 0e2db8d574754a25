"""FIFO service pools for the simulation engine.

:class:`Resource` is a counting semaphore granted in arrival order: CPU
cores, disk arms, NFS server threads, NFSv4.1 session slots, PVFS2
buffer pools.  (The other kind of queue in the testbed, a NIC direction
shared by seeded-random chunk interleaving, is
:class:`repro.sim.network.Pipe`.)
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import _PENDING, _PROCESSED, Event, SimulationError, Simulator

__all__ = ["Resource"]


class _Grant(Event):
    """An acquire's event; a queued one remembers its ``units`` and ``hold``."""

    __slots__ = ("units", "hold")


class Resource:
    """Counting semaphore with FIFO arbitration.

    Usage from a process::

        yield resource.acquire()
        try:
            yield from work_that_waits()
        finally:
            resource.release()

    or, when the holder does nothing but occupy the units for a known
    time (a CPU charge, a bus transfer)::

        yield resource.acquire(hold=service_time)
        resource.release()

    ``acquire(n)`` atomically claims ``n`` units (granted only when all
    ``n`` are free, still in FIFO order, so large requests are not
    starved).

    A grant never costs an event of its own.  Free and unqueued,
    ``acquire()`` returns an event that has *already fired* — nothing is
    scheduled and the yielding process runs straight on — and
    ``acquire(hold=d)`` returns the one heap event of the service time.
    Queued, the releaser schedules the waiter's event ``hold`` seconds
    out: that event is the grant *and* the end of service.  A FIFO queue
    decides nothing at grant time (the oldest waiter gets the units
    whoever is asked, whenever), so a grant event would only relay
    control.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: Peak units simultaneously held over the resource's lifetime
        #: (occupancy high-water mark; tracked at grant time, same as
        #: the session slot table's ``highest_used``).
        self.high_water = 0
        #: Pending acquires, oldest first.  An interrupted waiter's grant
        #: is withdrawn in O(1) by zeroing its ``units`` where it sits; it
        #: is discarded lazily when it reaches the front.  ``_queued``
        #: counts the ones still wanted.
        self._waiters: deque[_Grant] = deque()
        self._queued = 0
        #: One bound method for every grant's ``_abandon`` hook, not a
        #: fresh one per acquire (the hottest call in the simulator).
        self._abandon = self._abandon_acquire

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self._in_use

    @property
    def queue_len(self) -> int:
        """Number of acquire requests waiting."""
        return self._queued

    def acquire(self, units: int = 1, hold: float = 0.0) -> Event:
        """Return an event that fires ``hold`` seconds after the grant.

        If the waiting process is interrupted, the pending request is
        withdrawn (or, if already granted and the event has not fired
        yet — a grant in flight, or service in progress under ``hold``
        — the units are returned on the spot) — no leak.
        """
        if units < 1 or units > self.capacity:
            raise ValueError(
                f"cannot acquire {units} units of {self.name or 'resource'} "
                f"with capacity {self.capacity}"
            )
        ev = _Grant(self.sim)
        if self._queued or self._in_use + units > self.capacity:
            ev.units = units
            ev.hold = hold
            self._waiters.append(ev)
            self._queued += 1
        else:
            self._in_use += units
            if self._in_use > self.high_water:
                self.high_water = self._in_use
            if hold == 0.0:
                # Granted here and now, nothing to wait for: pre-fired.
                ev._value = units
                ev._state = _PROCESSED
                return ev
            ev.succeed(units, hold)
        # The grant size travels as the event value, so the abandon
        # path can recover it without a per-acquire closure.
        ev._abandon = self._abandon
        return ev

    def _abandon_acquire(self, ev: _Grant) -> None:
        """The waiter was interrupted: withdraw or return the grant."""
        if ev._state == _PENDING:
            if ev.units:
                ev.units = 0
                self._queued -= 1
        else:
            # Granted, but the event never reached its waiter (a grant
            # in flight, or a hold cut short); its value is the number
            # of units granted (see acquire/release).
            self.release(ev._value)

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
                continue  # withdrawn by _abandon_acquire
            self._queued -= 1
            self._in_use += want
            if self._in_use > self.high_water:
                self.high_water = self._in_use
            ev.succeed(want, ev.hold)
