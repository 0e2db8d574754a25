"""Deterministic discrete-event simulation engine.

The engine follows the classic process-interaction style popularised by
SimPy: simulation activities are Python generators that ``yield`` events
(timeouts, resource grants, other processes) and are resumed when those
events fire.  We implement our own small kernel rather than depending on
SimPy so the repository is self-contained and the scheduling semantics
are fully under test.

Determinism
-----------
Whatever is scheduled for the same instant fires in FIFO order of
scheduling (a monotonically increasing sequence number breaks time
ties), so a simulation configured with a seeded RNG is exactly
reproducible.  The one exception is an *urgent* call (a process
interrupt), which beats every normal call due in its instant.

The queue holds calls
---------------------
A queue entry is a call, ``fn(arg)``, and the run loop does nothing but
make it.  Five things enqueue:

* an :class:`Event` that is triggered enqueues
  ``(Event._process_callbacks, event)`` — the plain function, so firing
  costs no bound-method allocation;
* a :class:`Process` start enqueues its first resume,
  ``(proc._resume, _START)`` (a ``spawn`` leg starts inline instead);
* a service time (``Resource.serve``: a CPU charge, a bus hold)
  enqueues the call that gives the unit back and then fires the
  service's event, so the unit is free before any waiter runs;
* a NIC pipe's service (``Pipe.serve``) enqueues its holder's
  callback at the end of the service time, and, where the grant
  decides an order, first the grant hop ``Pipe._start`` that
  schedules it;
* :meth:`Simulator.call_later` enqueues any ``fn(None)`` in the slot an
  event scheduled there would have taken — for kernel-side state
  machines (the wire flow) whose only waiter is themselves, so a hop
  costs a tuple and a call, not an event with its waiter list, failure
  and defuse machinery.

``Simulator._enqueue`` is the single choke point for all five.

One queue
---------
The queue is one binary heap of ``(time, key, fn, arg)`` entries.
``key`` is the scheduling sequence number, or that number minus
``2**62`` for an urgent call, so one integer orders what a
``(priority, seq)`` pair would: urgent calls first within an instant,
FIFO among themselves, then everything else FIFO.  Keys are unique, so
a comparison never reaches ``fn``.

What only relays control is not queued at all: a free FIFO grant is
pre-fired (or, through ``Resource.try_acquire``, not even an event), a
``spawn`` leg starts in its spawner's stack, and a
zero-delay call from the tail of a queue entry, or a pipe's hand-off of
a positive service, runs in place when
:meth:`Simulator.nothing_else_due` — the tail rule.  The wire's pipe
grants and completions follow it, and so do the completions a
generator's end or an event leg makes: a process firing, a join firing
on its last leg, a first-of on its first (:meth:`Event._complete`; a
failure is always queued).  Tail-ness is structural: every caller of
``_process_callbacks`` is an entry's tail, and a callback is the last
act when none is left after it in the event's ``_cbs``; ``spawn``,
``all_of`` and ``any_of`` hold their event while they add legs, so a
leg that has fired already, or ends in its first segment, never
completes a fan-in from its builder's stack.  Nested in place, such
completions cost three frames a level: a cascade of a few hundred in
one instant is what the recursion limit allows.

One generator driver
--------------------
A :class:`Process` and a :meth:`Simulator.spawn` leg run on the same
trampoline (:class:`_Driver`) and differ only in what ending means: a
process is itself an event and fires, a leg reports to its join (a
plain :class:`Event`, :meth:`Simulator.spawn`) — either in place when
the end is its entry's last act and nothing else is due.

Typical usage::

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(2.0)
        results.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [2.0]
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AnyOf",
    "EngineStats",
    "Event",
    "Interrupt",
    "Join",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for engine-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch the exception and continue; the
    ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0  # created, not yet triggered
_TRIGGERED = 1  # scheduled on the event queue
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence in simulated time.

    Events carry a ``value`` (delivered to yielding processes) and an
    ``ok`` flag.  Failed events (``ok is False``) propagate their value
    as an exception into every process waiting on them, unless the
    failure is *defused* by a waiter that handles it.

    Timers, ``Resource`` grants, the process-start sentinel and the
    fan-ins are plain events too, not subclasses: the kernel's hot
    sites then see one class, and CPython's cached slot reads hit
    (docs/architecture.md, "One event class").  The last five slots
    serve them and stay unset on any other event: a timer's ``delay``
    (what :meth:`reset` re-arms with), a grant's ``units`` (wanted or
    held; 0 once withdrawn or given back) and ``hold`` (a service's
    duration; ``None`` for a plain acquire), a fan-in's ``legs`` and
    ``_pending_count`` (a join's legs yet to end; one more for the
    builder of a join or any-of while it adds them).
    """

    __slots__ = (
        "sim", "_cb1", "_cbs", "_value", "ok", "_state", "_defused", "_abandon",
        "delay", "units", "hold", "legs", "_pending_count",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Single-waiter fast path: the overwhelmingly common case is one
        #: process (or condition) waiting per event, so the first callback
        #: lives in a slot and the overflow list is allocated lazily.
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self.ok: bool = True
        self._state = _PENDING
        self._defused = False
        #: Optional hook invoked when the sole waiter detaches (process
        #: interrupt) — lets resource-like owners reclaim a grant that
        #: nobody will consume.
        self._abandon: Optional[Callable[["Event"], None]] = None

    # -- introspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("value of untriggered event")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire successfully in this instant."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.ok = True
        self._state = _TRIGGERED
        self.sim._enqueue(_fire, self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire as a failure in this instant."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self.ok = False
        self._state = _TRIGGERED
        self.sim._enqueue(_fire, self, 0.0)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def reset(self, delay: Optional[float] = None, value: Any = None) -> "Event":
        """Re-arm a *processed* timer in place and return it.

        Retry/backoff loops fire the same timer over and over (the RPC
        retransmission ladder, drain polls); re-arming the event that
        just fired is cheaper than allocating a fresh timer per lap.
        Only a processed event can be re-armed — a pending one still
        sits on the queue — and without a ``delay`` only a timer, which
        reuses its last one.
        """
        if self._state != _PROCESSED:
            raise SimulationError("reset() on an event that has not fired yet")
        if self._cbs:
            raise SimulationError("reset() before every waiter of the firing has run")
        if delay is None:
            try:
                delay = self.delay
            except AttributeError:
                raise SimulationError("reset() without a delay on a non-timer") from None
        elif delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.delay = delay
        self._value = value
        self.ok = True
        self._defused = False
        self._state = _TRIGGERED
        self.sim._enqueue(_fire, self, delay)
        return self

    # -- engine internals ----------------------------------------------
    def _process_callbacks(self) -> None:
        # Every caller is the tail of a queue entry (the run loop, the
        # end of a service or of a wire transfer, an in-place
        # completion), so a callback is the entry's last act when none
        # is left after it: the ones not run yet stay in ``_cbs`` while
        # one runs.  The list is taken first: a last callback may re-arm
        # a timer and give it new waiters.
        cb1, cbs = self._cb1, self._cbs
        self._cb1 = None
        self._state = _PROCESSED
        if cb1 is not None:
            cb1(self)
        if cbs:
            last = cbs.pop()
            for cb in cbs:
                cb(self)
            self._cbs = None
            last(self)
        if not self.ok and not self._defused:
            # Nobody caught the failure: surface it to the caller of run().
            raise self._value

    def _complete(self, value: Any, tail: bool) -> None:
        """Fire successfully with ``value`` — in place when ``tail`` (the
        caller's act is the last of the running queue entry) and nothing
        else is due this instant: the queued firing would be the next
        thing the loop runs, so the hop would decide nothing.  Else
        through the queue, as :meth:`succeed`."""
        if tail and self.sim.nothing_else_due():
            self._value = value
            _fire(self)
        else:
            self.succeed(value)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Invoke ``fn(event)`` when the event fires.

        If the event already fired, the callback runs immediately.
        """
        if self._state == _PROCESSED:
            fn(self)
        elif self._cb1 is None and not self._cbs:
            self._cb1 = fn
        elif self._cbs is None:
            self._cbs = [fn]
        else:
            self._cbs.append(fn)

    def _leg_fired(self, event: "Event") -> None:
        """An event leg of this join ended: what ``_Task._finished`` /
        ``_failed`` do for a generator leg."""
        if not event.ok:
            event._defused = True
            if self._state == _PENDING:
                self.fail(event._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0 and self._state == _PENDING:
            self._complete(tuple(leg._value for leg in self.legs), not event._cbs)

    def _first_fired(self, event: "Event") -> None:
        """A leg of this any-of fired: the first decides it."""
        if self._state != _PENDING:
            return
        if not event.ok:
            event._defused = True
            self.fail(event._value)
            return
        for index, leg in enumerate(self.legs):
            if leg is event:
                break
        # ``_pending_count`` is 1 while ``any_of`` adds the legs.
        self._complete((index, event._value), not event._cbs and not self._pending_count)

    def __iter__(self) -> Generator["Event", Any, Any]:
        """``value = yield from event`` — wait for it, as ``yield event`` does.

        The ``asyncio.Future`` idiom: a function may return either an
        event or a generator and its caller delegates to both alike, so
        a wrapper can put a generator around a primitive that returns an
        event (a tracer timing ``Network.transfer`` from outside)
        without the call sites knowing.
        """
        return (yield self)

    def _discard_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach a waiter (process interrupt); missing ``fn`` is a no-op.

        Equality, not identity: bound methods (``process._resume``) are
        re-created per access and compare equal without being the same
        object.
        """
        if self._cb1 == fn:
            self._cb1 = None
        elif self._cbs:
            try:
                self._cbs.remove(fn)
            except ValueError:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


#: What a triggered event puts on the queue, with itself as the argument:
#: the plain function, so firing costs no bound-method allocation.
_fire = Event._process_callbacks

#: Subtracted from an urgent call's sequence number: it sorts ahead of
#: every normal call of its instant, and behind older urgent ones.
_URGENT = 1 << 62


#: The pre-fired event a generator's first resume receives: a process
#: start is the queued call ``proc._resume(_START)``.  Never queued,
#: never re-armed, and of the same class as every other resume argument.
_START = Event(None)
_START._state = _PROCESSED


class _Driver:
    """The generator trampoline behind :class:`Process` and spawn legs.

    The driven object has ``sim``, ``_generator``, ``name`` and
    ``_waiting_on`` and says what ending means: ``_finished(value,
    tail)`` when the generator returns, ``_failed(exc)`` when it
    raises.  ``tail`` says the end is the last act of the running queue
    entry — the resume was that entry (a process start) or the last
    callback of its firing (nothing left in the event's ``_cbs``) — so a
    completion it makes may fire in place (:meth:`Event._complete`).  A
    spawn leg's first segment runs in its spawner's stack, no entry's
    tail, but its join is held there (:meth:`Simulator._join`).
    """

    __slots__ = ()

    def _resume(self, event) -> None:
        # Trampoline: yielding an already-processed event used to recurse
        # (``add_callback`` on a processed event calls back immediately);
        # looping here resumes such targets iteratively, so long chains
        # of completed events cost stack-free sends instead of recursion.
        # ``event`` stays what the entry handed in; ``got`` is the event
        # being delivered.
        sim = self.sim
        gen = self._generator
        self._waiting_on = None
        got = event
        while True:
            try:
                if got.ok:
                    target = gen.send(got._value)
                else:
                    got._defused = True
                    target = gen.throw(got._value)
            except StopIteration as stop:
                self._finished(stop.value, not event._cbs)
                return
            except BaseException as exc:
                self._failed(exc)
                return
            if not isinstance(target, Event):
                # Thrown into the generator so its ``finally:`` blocks
                # run and whatever it holds is given back.
                error = SimulationError(f"{self.name!r} yielded non-event {target!r}")
                try:
                    gen.throw(error)
                except BaseException as exc:
                    self._failed(exc)
                    return
                raise error
            if target.sim is not sim:
                raise SimulationError("yielded event belongs to another simulator")
            if target._state == _PROCESSED:
                got = target
                continue
            self._waiting_on = target
            target.add_callback(self._resume)
            return


class Process(Event, _Driver):
    """A running simulation activity wrapping a generator.

    A process is itself an event: it fires when the generator returns
    (value = the generator's return value) or raises (failure).  Other
    processes may therefore ``yield`` a process to join it.  A return
    that is the last act of its queue entry, with nothing else due,
    fires it in place: its waiters run in that entry, as they would
    have in the next one.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current instant: the first resume
        # is a queued call (a :meth:`Simulator.spawn` leg has no handle
        # anyone could act on first, and starts inline instead).
        sim._enqueue(self._resume, _START, 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the
        event may still fire later and is ignored by this process).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._waiting_on is self:
            raise SimulationError("process cannot interrupt itself synchronously")
        interrupt_ev = Event(self.sim)
        interrupt_ev.ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev._state = _TRIGGERED
        # Detach from whatever we were waiting on.
        target = self._waiting_on
        if target is not None:
            if target._state != _PROCESSED:
                target._discard_callback(self._resume)
            if target._abandon is not None:
                target._abandon(target)
        self._waiting_on = None
        self.sim._enqueue(_fire, interrupt_ev, 0.0, urgent=True)
        interrupt_ev.add_callback(self._resume)

    # -- engine internals ----------------------------------------------
    #: How the driver ends a process: it fires, as any event does — in
    #: place when the end is its entry's last act and nothing else is
    #: due; a failure is always queued.
    _finished = Event._complete
    _failed = Event.fail


class _Task(_Driver):
    """One generator leg of a :meth:`Simulator.spawn`: a driven generator
    and no more.

    Unlike :class:`Process` a task is not itself an event — nothing can
    wait on (or interrupt) an individual leg, only the shared join — so
    a leg costs one slotted object, no start kick and no completion
    event.  It does run in a ``_resume`` frame of its
    own, so a tracer that looks for the nearest one on the stack tells
    concurrent legs apart.
    """

    __slots__ = ("sim", "_generator", "_waiting_on", "join", "_value")

    def __init__(self, sim: "Simulator", generator: Generator, join: Event):
        self.sim = sim
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.join = join
        self._value: Any = None

    @property
    def name(self) -> str:
        return getattr(self._generator, "__name__", "task")

    def _finished(self, value: Any, tail: bool) -> None:
        # The join holds this leg; a finished leg lets go of the join,
        # so a completed fan-out is freed by reference count, not left
        # as a cycle to collect.
        self._value = value
        join, self.join = self.join, None
        join._pending_count -= 1
        if join._pending_count == 0 and join._state == _PENDING:
            values = tuple(leg._value for leg in join.legs)
            # ``join._complete(values, tail)``, inline: a chain of nested
            # spawns completing in place costs three frames a level.
            if tail and self.sim.nothing_else_due():
                join._value = values
                _fire(join)
            else:
                join.succeed(values)

    def _failed(self, exc: BaseException) -> None:
        # As for an event leg: the first failure fails the join; a later
        # one has no observer left and is dropped.
        join, self.join = self.join, None
        if join._state == _PENDING:
            join.fail(exc)


@dataclass
class EngineStats:
    """Event-loop accounting: how much work a simulation actually did.

    ``wall_seconds`` accumulates real (host) time spent inside
    :meth:`Simulator.run` — the number host-cost claims are measured
    against, not asserted from.  ``peak_heap`` is the most calls the
    queue ever held at once.
    """

    #: Calls queued so far — and so the next call's sequence number.
    events_scheduled: int = 0
    events_processed: int = 0
    peak_heap: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "peak_heap": self.peak_heap,
            "wall_seconds": self.wall_seconds,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.events_scheduled} events scheduled, "
            f"{self.events_processed} processed, "
            f"peak heap {self.peak_heap}, "
            f"{self.wall_seconds:.3f}s wall"
        )


class Simulator:
    """The event loop: a heap of ``(time, key, fn, arg)`` calls.

    ``seed`` initialises the simulation-wide RNG used by stochastic
    components (e.g. randomised network-pipe arbitration); runs with the
    same seed are exactly reproducible.
    """

    def __init__(self, seed: int = 20070625):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self.stats = EngineStats()
        #: Per-simulation id streams (sessions, layout stateids, ...).
        #: Keeping these on the simulator — never module-global — makes
        #: identical-seed runs produce identical ids regardless of how
        #: many simulations ran earlier in the process (the same-seed-
        #: same-trace guarantee the torture replayer depends on).
        self._ids: dict[str, int] = {}
        import numpy as _np

        self.rng = _np.random.default_rng(seed)

    def next_id(self, kind: str) -> int:
        """Allocate the next id (1, 2, ...) from this sim's ``kind`` stream."""
        n = self._ids.get(kind, 0) + 1
        self._ids[kind] = n
        return n

    # -- event constructors ---------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Event:
        """A timer: a plain :class:`Event` firing ``delay`` simulated
        seconds from now (``Timeout(sim, delay, value)`` is the same
        function)."""
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        ev = Event(self)
        ev.delay = delay
        ev._value = value
        ev._state = _TRIGGERED
        self._enqueue(_fire, ev, delay)
        return ev

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process at the current instant."""
        return Process(self, generator, name)

    def spawn(self, *legs: "Generator | Event") -> Event:
        """Run ``legs`` side by side, joined where started.

        ``results = yield sim.spawn(a, b, c)`` is the fan-out idiom: a
        generator leg starts here and now, in the caller's stack, an
        event leg (``node.compute(...)``, a ``network.transfer(...)``) is simply
        waited for, and the returned join fires when all have
        ended, with their values in spawn order — in place when the
        last leg's end is its entry's last act and nothing else is due,
        through the queue when every leg has ended by the time this
        returns.  Cheaper than
        ``all_of([process(g) for g in generators])`` by a start kick and
        a completion event per leg: legs are not processes, so nothing
        can join or interrupt one individually.
        Use :meth:`process` for an activity that is joined *later* or by
        someone else, or that must be interruptible (write-back in
        flight, a prefetch, an RPC attempt under a retry timer).
        """
        return self._join(legs)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Composite event firing when all ``events`` have fired.

        A join over event legs — :meth:`spawn` for activities
        started elsewhere (processes kept to be interrupted, timeouts).
        With nothing to wait for it is already fired.
        """
        legs = tuple(events)
        for ev in legs:
            if ev.sim is not self:
                raise SimulationError("condition mixes events from two simulators")
        return self._join(legs)

    def _join(self, legs: tuple) -> Event:
        """The one fan-in, ``Join(sim, legs)``: a plain event firing with
        the legs' values in order once all have ended, or failing with
        the first failure (later ones are defused: nobody observes them).

        A generator leg is driven by a :class:`_Task` that tells the join
        when it ends; an event leg gets ``_leg_fired`` and nothing else.
        The join holds its legs, so the cyclic garbage collector cannot
        close a parked leg's generator — and run its ``finally:`` blocks
        — in the middle of a live simulation.
        """
        join = Event(self)
        # One more than the legs while they are added: the builder holds
        # the join, so a leg that has fired already, or ends in its first
        # segment, cannot complete it from this stack — no entry's tail.
        join._pending_count = len(legs) + 1
        if not legs:
            # Nothing to wait for: pre-fired, like a free FIFO grant.
            join._value = ()
            join._state = _PROCESSED
        join.legs = started = []
        leg_fired = join._leg_fired
        for leg in legs:
            if isinstance(leg, Event):
                started.append(leg)
                leg.add_callback(leg_fired)
            else:
                # A generator leg runs its first segment here, in the
                # spawner's stack: a start kick would only relay control.
                leg = _Task(self, leg, join)
                started.append(leg)
                leg._resume(_START)
        join._pending_count -= 1
        if join._pending_count == 0 and join._state == _PENDING:
            join.succeed(tuple(leg._value for leg in started))
        return join

    def any_of(self, events: Iterable[Event]) -> Event:
        """Composite event firing when the first of ``events`` fires:
        ``AnyOf(sim, events)``, a plain event with value ``(index,
        value)`` of the first to fire (an event given twice reports its
        first position), or failing with its exception."""
        first = Event(self)
        # Set first: an already-fired leg calls back from ``add_callback``.
        first.legs = legs = tuple(events)
        for ev in legs:
            if ev.sim is not self:
                raise SimulationError("condition mixes events from two simulators")
        if not legs:
            first.succeed(())
        # Held while the legs are added, as a join is: an already-fired
        # leg decides it through the queue.
        first._pending_count = 1
        fired = first._first_fired
        for ev in legs:
            ev.add_callback(fired)
        first._pending_count = 0
        return first

    # -- scheduling -------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[[Any], None]) -> None:
        """Call ``fn(None)`` in the slot a ``timeout(delay)`` would take.

        For kernel-side state machines whose only waiter is themselves
        and which cannot fail, be joined or be abandoned (a wire hop):
        the same place in the firing order as an event scheduled here,
        without the event.  An exception raised by ``fn`` surfaces from
        :meth:`run`, like an undefused failure.
        """
        self._enqueue(fn, None, delay)

    def nothing_else_due(self) -> bool:
        """True when no queued call is due at ``now``.

        The queue holds no same-instant entry, urgent or older, so a
        zero-delay call scheduled now would be the very next thing
        :meth:`run` pops.  A caller at the *tail* of the running queue
        entry — nothing left to do after the call — may then make it in
        place: the hop would decide nothing (the wire's pipe grants and
        completions, :mod:`repro.sim.network`).
        """
        queue = self._queue
        return not queue or queue[0][0] > self.now

    def _enqueue(
        self, fn: Callable[[Any], None], arg: Any, delay: float, urgent: bool = False
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule a call {delay!r}s in the past")
        # The count of calls scheduled so far is the sequence number.
        stats = self.stats
        key = stats.events_scheduled
        stats.events_scheduled = key + 1
        queue = self._queue
        heappush(queue, (self.now + delay, key - _URGENT if urgent else key, fn, arg))
        if len(queue) > stats.peak_heap:
            stats.peak_heap = len(queue)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), a number (stop when
        simulated time would exceed it; ``now`` is set to the deadline),
        or an :class:`Event` (stop when it fires and return its value, or
        raise it if the event failed — also when it had fired already).
        An event stops the run after the queue entry it fired in, with
        whatever that entry ran in place: a waiter of the event that
        ends there has ended too.
        """
        stop_event: Optional[Event] = None
        deadline = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if not stop_event.ok:
                    raise stop_event._value
                return stop_event._value
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self.now})"
                )

        # Hot loop: this is where a protocol simulation spends most of
        # its wall clock, so hot attributes live in locals and
        # ``events_processed`` is batched into one add at exit.
        stats = self.stats
        queue = self._queue
        processed = 0
        wall_start = _time.perf_counter()
        try:
            while queue:
                if queue[0][0] > deadline:
                    self.now = deadline
                    return None
                self.now, _, fn, arg = heappop(queue)
                processed += 1
                fn(arg)
                if stop_event is not None and stop_event._state == _PROCESSED:
                    if not stop_event.ok:
                        raise stop_event._value
                    return stop_event._value
            if stop_event is not None:
                raise SimulationError(
                    "run() ran out of events before the awaited event fired"
                )
            if deadline != float("inf"):
                self.now = deadline
            return None
        finally:
            stats.events_processed += processed
            stats.wall_seconds += _time.perf_counter() - wall_start


#: Constructors of plain events called as functions: ``Timeout(sim,
#: delay, value=None)``, ``Join(sim, legs)``, ``AnyOf(sim, events)``.
Timeout = Simulator.timeout
Join = Simulator._join
AnyOf = Simulator.any_of
