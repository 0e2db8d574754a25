"""Resource primitive for the simulation engine.

One primitive covers every queueing structure in the reproduction:
:class:`Resource`, a counting semaphore (CPU cores, disk arms, network
pipes, NFS server threads, NFSv4.1 session slots, PVFS2 buffer pools).
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import _PROCESSED, Event, SimulationError, Simulator

__all__ = ["Resource"]


class _Grant(Event):
    """An acquire's event; a queued one remembers its ``hold``."""

    __slots__ = ("hold",)


class Resource:
    """Counting semaphore with FIFO (default) or randomised arbitration.

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

    A FIFO grant never costs an event of its own.  Free and unqueued,
    ``acquire()`` returns an event that has *already fired* — nothing is
    scheduled and the yielding process runs straight on — and
    ``acquire(hold=d)`` returns the one heap event of the service time.
    Queued, the releaser schedules the waiter's event ``hold`` seconds
    out: that event is the grant *and* the end of service.  A FIFO queue
    decides nothing at grant time (the oldest waiter gets the units
    whoever is asked, whenever), so a grant event would only relay
    control.

    ``policy="random"`` grants a uniformly random eligible waiter
    instead of the oldest — used by the network pipes, where packet
    interleaving is not per-flow round-robin at millisecond scale.  The
    randomness is what lets co-scheduled identical clients drift apart
    instead of convoying in deterministic lockstep.  A random pipe
    schedules a grant event on every acquire, free or not: the event
    puts the new holder behind what the instant has already scheduled,
    and that order decides who is queued when the next release draws —
    inlining it measured as a fairness change (PR 14).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        policy: str = "fifo",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in ("fifo", "random"):
            raise ValueError(f"unknown arbitration policy {policy!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.policy = policy
        self._in_use = 0
        #: Peak units simultaneously held over the resource's lifetime
        #: (occupancy high-water mark; tracked at grant time, same as
        #: the session slot table's ``highest_used``).
        self.high_water = 0
        #: Pending acquires: the dict gives O(1) withdrawal for an
        #: interrupted waiter (events hash by identity) and carries the
        #: requested units; insertion order is FIFO order.  ``_order``
        #: shadows the FIFO policy's grant order in a deque, because
        #: peeking the oldest *dict* entry (``next(iter(d))``) walks the
        #: tombstones of everything already granted — O(n²) across a
        #: long drain.  Withdrawn events stay in the deque and are
        #: discarded lazily when they reach the front.
        self._waiters: dict[Event, int] = {}
        self._order: deque[Event] = deque()
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
        return len(self._waiters)

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
        if self._waiters or self._in_use + units > self.capacity:
            ev.hold = hold
            self._waiters[ev] = units
            if self.policy == "fifo":
                self._order.append(ev)
        else:
            self._in_use += units
            if self._in_use > self.high_water:
                self.high_water = self._in_use
            if hold == 0.0 and self.policy == "fifo":
                # Granted here and now, nothing to wait for: pre-fired.
                ev._value = units
                ev._state = _PROCESSED
                return ev
            ev.succeed(units, hold)
        # The grant size travels as the event value, so the abandon
        # path can recover it without a per-acquire closure.
        ev._abandon = self._abandon
        return ev

    def _abandon_acquire(self, ev: Event) -> None:
        """The waiter was interrupted: withdraw or return the grant."""
        if self._waiters.pop(ev, None) is not None:
            return
        if ev.triggered:
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
        if not waiters:
            # Nobody to wake (the common case); whatever is left in the
            # FIFO shadow was withdrawn.
            if self._order:
                self._order.clear()
            return
        if self.policy == "random":
            # Build the eligible set once, in waiter order, then shrink
            # it incrementally.  Equivalent to re-filtering the whole
            # queue after every grant (the old O(n^2) inner loop):
            # eligibility only ever shrinks while ``_in_use`` grows, the
            # candidate order is unchanged, and the rng draws see the
            # same list lengths, so the grant sequence is identical.
            avail = self.capacity - self._in_use
            eligible = [(ev, want) for ev, want in waiters.items() if want <= avail]
            rng_integers = self.sim.rng.integers
            mx = -1  # max outstanding want; computed lazily on first use
            while eligible:
                ev, want = eligible.pop(int(rng_integers(0, len(eligible))))
                del waiters[ev]
                self._in_use += want
                if self._in_use > self.high_water:
                    self.high_water = self._in_use
                ev.succeed(want, ev.hold)
                avail -= want
                if not eligible or avail <= 0:
                    # Nothing left to grant (wants are >= 1): done
                    # without ever scanning for the max — the whole
                    # loop for a capacity-1 pipe is one filter pass,
                    # one draw, one grant.
                    break
                if mx < 0:
                    mx = max(w for _e, w in eligible)
                if mx > avail:
                    # The grant made large requests ineligible: drop
                    # them.  Skipped while every remaining want still
                    # fits (the single-unit-waiters case).
                    eligible = [e for e in eligible if e[1] <= avail]
                    mx = max((w for _e, w in eligible), default=0)
            return
        order = self._order
        capacity = self.capacity
        while order and self._in_use < capacity:
            ev = order[0]
            want = waiters.get(ev)
            if want is None:
                # Withdrawn by _abandon_acquire; discard lazily.
                order.popleft()
                continue
            if self._in_use + want > capacity:
                break
            order.popleft()
            del waiters[ev]
            self._in_use += want
            if self._in_use > self.high_water:
                self.high_water = self._in_use
            ev.succeed(want, ev.hold)

