"""An event may be delegated to: ``value = yield from event``.

``Event.__iter__`` has one caller inside ``src/`` that needs it — the
RPC layer delegates to ``Network.transfer`` instead of yielding it — and
that caller only needs it because of a contract with code *outside*:
``perf/trace.py`` times transfers by putting a generator around
``Network.transfer`` for the length of a traced run.  This is that
contract in tier-1, so nobody deletes ``__iter__`` as unused (or turns
``yield from request`` into ``yield request``) without a test saying
what breaks.
"""

import pytest

from repro.bench.runner import run_cell
from repro.sim import Event, Interrupt, Network, Simulator
from repro.workloads import IorWorkload


def test_yield_from_an_event_waits_for_it_and_hands_back_its_value():
    sim = Simulator()

    def waiter():
        timer = yield from sim.timeout(1.0)
        late = yield from Event(sim).succeed("two")
        fired = Event(sim).succeed("three")
        yield sim.timeout(1.0)
        assert fired.processed
        return timer, late, (yield from fired), sim.now

    proc = sim.process(waiter())
    before = sim.stats.events_processed
    sim.run()
    assert proc.value == (None, "two", "three", 2.0)
    # Delegating costs no event of its own: kick, two timers and two
    # firings (the end, alone in its instant, fires in place).
    assert sim.stats.events_processed - before == 5


def test_a_failure_and_an_interrupt_arrive_through_the_delegation():
    sim = Simulator()
    seen = []

    boom = Event(sim)
    sim.call_later(1.0, lambda _: boom.fail(RuntimeError("boom")))

    def waiter():
        try:
            yield from boom
        except RuntimeError as exc:
            seen.append((str(exc), sim.now))
        try:
            yield from sim.timeout(10.0)
        except Interrupt as intr:
            seen.append((intr.cause, sim.now))

    proc = sim.process(waiter())
    sim.run(until=2.0)
    proc.interrupt("poke")
    sim.run()
    assert seen == [("boom", 1.0), ("poke", 2.0)]


def physics(res):
    return (
        res.makespan,
        res.total_bytes,
        res.engine["events_processed"],
        res.engine["events_scheduled"],
        res.engine["flows_chunked"],
    )


def test_a_generator_wrapped_around_transfer_from_outside_changes_nothing(monkeypatch):
    """The tracer's shape: every transfer of a 2-client cell — lone
    requests and the overlapped legs of ``spawn`` alike — runs inside a
    ``yield from`` generator the simulator knows nothing about."""
    cell = ("direct-pnfs", IorWorkload(op="read", block_size=256 * 1024, scale=0.02), 2)
    plain = physics(run_cell(*cell))

    transfer = Network.transfer
    spans = []

    def timed(net, src, dst, nbytes):
        def run(event):
            start = net.sim.now
            try:
                return (yield from event)
            finally:
                spans.append((src, dst, start, net.sim.now))

        return run(transfer(net, src, dst, nbytes))

    monkeypatch.setattr(Network, "transfer", timed)
    wrapped = physics(run_cell(*cell))
    assert wrapped == plain
    assert len(spans) >= plain[-1] > 0  # every wire flow (and loopbacks) went through it
    assert all(end >= start for _src, _dst, start, end in spans)


def test_yielding_the_wrapper_itself_is_what_breaks(monkeypatch):
    """Why call sites delegate: a wrapped primitive is a generator, and
    a generator is not something a process may ``yield``."""
    from repro.sim.engine import SimulationError

    sim = Simulator()
    net = Network(sim)
    net.add_nic("a", 1e6)
    net.add_nic("b", 1e6)
    transfer = Network.transfer

    def wrapped(net, src, dst, nbytes):
        return (yield from transfer(net, src, dst, nbytes))

    monkeypatch.setattr(Network, "transfer", wrapped)

    def delegating():
        return (yield from net.transfer("a", "b", 100))

    def yielding():
        yield net.transfer("a", "b", 100)

    ok = sim.process(delegating())
    sim.run()
    assert ok.processed and ok.ok
    bad = sim.process(yielding())
    with pytest.raises(SimulationError, match="yielded non-event"):
        sim.run()
    assert not bad.is_alive
