"""The kernel's hot sites see one event class.

CPython caches a ``__slots__`` read for one exact class, so a site that
meets a mix of ``Event`` subclasses misses the cache on most reads.
Timers, ``Resource`` grants and services, CPU charges, wire completions,
the process-start sentinel and the fan-ins (``spawn``, ``all_of``,
``any_of``) are therefore all plain ``Event``\\ s — ``type(...) is
Event``, not an ``isinstance`` — and ``Process`` is the only subclass
left (docs/architecture.md, "One event class").
"""

import pytest

from repro.sim import AnyOf, Event, Network, SimulationError, Simulator, Timeout
from repro.sim.cpu import Cpu, CpuSpec
from repro.sim.engine import _START, Join
from repro.sim.network import CHUNK_BYTES
from repro.sim.resources import Resource


@pytest.fixture
def sim():
    return Simulator()


def fires_at(sim, delay, value):
    """A plain event that succeeds with ``value`` ``delay`` seconds from now."""
    ev = Event(sim)
    sim.call_later(delay, lambda _: ev.succeed(value))
    return ev


def test_timers_are_plain_events(sim):
    assert type(sim.timeout(1.0)) is Event
    assert type(Timeout(sim, 1.0)) is Event
    with pytest.raises(ValueError):
        Timeout(sim, -1.0)


def test_resource_services_and_grants_are_plain_events(sim):
    res = Resource(sim, 1)
    free = res.serve(1.0)
    queued = res.serve(2.0)
    waiting = res.acquire()
    assert (free.triggered, queued.triggered, waiting.triggered) == (True, False, False)
    assert type(free) is type(queued) is type(waiting) is Event
    sim.run()
    assert waiting.processed and res.in_use == 1 and res.busy_time == 3.0


def test_a_cpu_charge_is_a_plain_event(sim):
    cpu = Cpu(sim, CpuSpec(cores=1))
    assert type(cpu.consume(1e-3)) is Event
    assert type(cpu.consume(0.0)) is Event


def test_wire_completions_are_plain_events(sim):
    net = Network(sim, latency=1e-6)
    for name in ("a", "b"):
        net.add_nic(name, 1e6)
    message = net.transfer("a", "b", CHUNK_BYTES // 2)  # one chunk
    flow = net.transfer("a", "b", 5 * CHUNK_BYTES)  # chunked, windowed
    loopback = net.transfer("a", "a", CHUNK_BYTES)
    assert type(message) is type(flow) is type(loopback) is Event
    sim.run()
    assert message.processed and flow.processed and loopback.processed


def test_the_start_sentinel_is_a_processed_plain_event():
    assert type(_START) is Event
    assert _START.processed and _START.ok and _START.value is None


def test_a_rearmed_timer_fires_once_more_at_its_new_delay(sim):
    fired = []
    timer = sim.timeout(1.0)
    timer.add_callback(lambda ev: fired.append((sim.now, ev.value)))
    sim.run()
    # The retry-ladder / sampler idiom: re-arm from the timer's own callback.
    timer.reset(0.25)
    timer.add_callback(lambda ev: fired.append((sim.now, ev.value)))
    sim.run()
    assert fired == [(1.0, None), (1.25, None)]
    timer.reset()  # no delay: the last one
    sim.run()
    assert sim.now == 1.5 and timer.processed


def test_reset_without_a_delay_needs_a_timer(sim):
    never_a_timer = Event(sim).succeed("x")
    sim.run()
    with pytest.raises(SimulationError):
        never_a_timer.reset()
    # A pre-fired grant is no timer either.
    grant = Resource(sim, 1).acquire()
    assert grant.processed
    with pytest.raises(SimulationError):
        grant.reset()


def test_spawns_are_plain_events_with_generator_event_or_no_legs(sim):
    def leg(d):
        yield sim.timeout(d)
        return d

    generators = sim.spawn(leg(1.0), leg(2.0))
    events = sim.spawn(fires_at(sim, 1.0, "a"), fires_at(sim, 0.5, "b"))
    none = sim.spawn()
    assert type(generators) is type(events) is type(none) is Event
    assert none.processed and none.value == ()
    sim.run()
    assert (generators.value, events.value) == ((1.0, 2.0), ("a", "b"))


def test_a_spawn_whose_last_leg_already_fired_is_a_plain_event(sim):
    fired = Event(sim).succeed("x")
    sim.run()
    join = sim.spawn(fires_at(sim, 1.0, "t"), fired)
    assert type(join) is Event
    sim.run()
    assert join.value == ("t", "x")
    done = sim.spawn(fired)  # the only leg fired already: triggered at once
    assert type(done) is Event and done.triggered
    sim.run()
    assert done.value == ("x",)


def test_all_of_and_any_of_are_plain_events(sim):
    every = sim.all_of([fires_at(sim, 1.0, "a"), fires_at(sim, 2.0, "b")])
    first = sim.any_of([fires_at(sim, 2.0, "a"), fires_at(sim, 1.0, "b")])
    assert type(every) is type(first) is Event
    sim.run()
    assert (every.value, first.value) == (("a", "b"), (1, "b"))


def test_join_and_any_of_called_as_functions_build_plain_events(sim):
    join = Join(sim, (fires_at(sim, 1.0, "a"),))
    first = AnyOf(sim, [fires_at(sim, 1.0, "b")])
    assert type(join) is type(first) is Event
    sim.run()
    assert (join.value, first.value) == (("a",), (0, "b"))
