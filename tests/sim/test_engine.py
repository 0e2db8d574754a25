"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import AnyOf, Event, Interrupt, Simulator, Timeout
from repro.sim.engine import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestTimeoutsAndOrdering:
    def test_timeout_advances_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(2.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [2.5]

    def test_zero_delay_allowed(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Timeout(sim, -1)

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_timeouts_accumulate(self, sim):
        times = []

        def proc():
            for _ in range(4):
                yield sim.timeout(0.5)
                times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [0.5, 1.0, 1.5, 2.0]

    def test_timeout_carries_value(self, sim):
        def proc():
            got = yield sim.timeout(1, value="payload")
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == "payload"


class TestRunSemantics:
    def test_run_until_deadline_stops_clock_at_deadline(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(3)
            return 42

        p = sim.process(proc())
        assert sim.run(until=p) == 42
        assert sim.now == 3

    def test_run_until_past_deadline_rejected(self, sim):
        sim.process(iter_timeout(sim, 5))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1)

    def test_run_until_unreachable_event_raises(self, sim):
        ev = Event(sim)  # never triggered
        with pytest.raises(SimulationError):
            sim.run(until=ev)

    def test_empty_run_is_noop(self, sim):
        sim.run()
        assert sim.now == 0.0


class TestEvents:
    def test_manual_succeed_wakes_waiter(self, sim):
        ev = Event(sim)
        got = []

        def waiter():
            got.append((yield ev))

        def trigger():
            yield sim.timeout(5)
            ev.succeed("done")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == ["done"]

    def test_double_trigger_rejected(self, sim):
        ev = Event(sim)
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_propagates_into_waiting_process(self, sim):
        ev = Event(sim)
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failure_surfaces_from_run(self, sim):
        ev = Event(sim)
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")

    def test_value_unavailable_before_trigger(self, sim):
        with pytest.raises(SimulationError):
            _ = Event(sim).value

    def test_callback_on_processed_event_runs_immediately(self, sim):
        ev = Event(sim)
        ev.succeed(9)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [9]


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "result"

        p = sim.process(proc())
        sim.run()
        assert p.value == "result"

    def test_joining_another_process(self, sim):
        def child():
            yield sim.timeout(2)
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        p = sim.process(parent())
        sim.run()
        assert p.value == 14
        assert sim.now == 2

    def test_process_exception_fails_joiner(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.process(child())
            except ValueError:
                return "handled"

        p = sim.process(parent())
        sim.run()
        assert p.value == "handled"

    def test_unhandled_process_exception_surfaces(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("nobody catches this")

        sim.process(child())
        with pytest.raises(ValueError):
            sim.run()

    def test_yielding_non_event_is_an_error(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_is_alive_transitions(self, sim):
        def proc():
            yield sim.timeout(5)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestInterrupts:
    def test_interrupt_wakes_waiting_process(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        def interrupter(target):
            yield sim.timeout(3)
            target.interrupt("wake up")

        p = sim.process(sleeper())
        sim.process(interrupter(p))
        sim.run()
        assert log == [(3, "wake up")]

    def test_interrupted_process_can_continue(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(1)
            return sim.now

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(2)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert p.value == 3

    def test_interrupt_dead_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_collects_values_in_order(self, sim):
        def make(delay, val):
            def proc():
                yield sim.timeout(delay)
                return val

            return sim.process(proc())

        a = make(3, "a")
        b = make(1, "b")

        def waiter():
            values = yield sim.all_of([a, b])
            return values

        p = sim.process(waiter())
        sim.run()
        assert p.value == ("a", "b")
        assert sim.now == 3

    def test_any_of_returns_first(self, sim):
        slow = sim.timeout(10, value="slow")
        fast = sim.timeout(2, value="fast")

        def waiter():
            idx, val = yield AnyOf(sim, [slow, fast])
            return idx, val

        p = sim.process(waiter())
        sim.run(until=p)
        assert p.value == (1, "fast")
        assert sim.now == 2

    def test_all_of_empty_fires_immediately(self, sim):
        def waiter():
            vals = yield sim.all_of([])
            return vals

        p = sim.process(waiter())
        sim.run()
        assert p.value == ()

    def test_all_of_fails_if_member_fails(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("member failure")

        def waiter():
            try:
                yield sim.all_of([sim.process(bad()), sim.timeout(5)])
            except RuntimeError:
                return "caught"

        p = sim.process(waiter())
        sim.run(until=p)
        assert p.value == "caught"


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace_run():
            sim = Simulator()
            trace = []

            def proc(tag, delays):
                for d in delays:
                    yield sim.timeout(d)
                    trace.append((tag, sim.now))

            sim.process(proc("x", [1, 2, 1]))
            sim.process(proc("y", [2, 1, 1]))
            sim.run()
            return trace

        assert trace_run() == trace_run()


class TestAnyOfDuplicateEvents:
    def test_duplicate_event_reports_first_index(self, sim):
        # Regression: the old self.events.index(event) lookup returned
        # the *first* position by scanning, which happened to be right,
        # but was O(n) per fire; the id->index map must preserve the
        # first-occurrence index for duplicates.
        t = Timeout(sim, 1.0, value="tick")

        def waiter():
            idx, value = yield AnyOf(sim, [t, t, sim.timeout(5)])
            return idx, value

        p = sim.process(waiter())
        sim.run(until=p)
        assert p.value == (0, "tick")

    def test_duplicate_already_fired_event(self, sim):
        fired = Event(sim)
        fired.succeed("v")

        def advance():
            yield sim.timeout(1)

        def waiter():
            yield sim.process(advance())  # let the event process
            idx, value = yield AnyOf(sim, [fired, fired])
            return idx, value

        p = sim.process(waiter())
        sim.run(until=p)
        assert p.value == (0, "v")

    def test_the_fourth_of_five_firing_first_reports_index_3(self, sim):
        events = [Timeout(sim, 0.5 if i == 3 else i + 1.0, value=i) for i in range(5)]
        cond = AnyOf(sim, events)
        assert sim.run(until=cond) == (3, 3)
        assert sim.now == 0.5


class TestTimeoutReset:
    def test_reset_rearms_processed_timeout(self, sim):
        times = []

        def proc():
            t = sim.timeout(1.0)
            yield t
            times.append(sim.now)
            yield t.reset()  # same delay
            times.append(sim.now)
            yield t.reset(0.5, value="late")
            times.append(sim.now)
            return t._value

        p = sim.process(proc())
        sim.run(until=p)
        assert times == [1.0, 2.0, 2.5]
        assert p.value == "late"

    def test_reset_of_pending_timeout_rejected(self, sim):
        t = sim.timeout(1.0)
        with pytest.raises(SimulationError):
            t.reset()

    def test_reset_returns_self(self, sim):
        def proc():
            t = sim.timeout(0.1)
            yield t
            assert t.reset(0.2) is t
            yield t

        sim.run(until=sim.process(proc()))


class TestCallbackFastPath:
    def test_single_waiter_uses_fast_slot(self, sim):
        ev = Event(sim)
        calls = []
        ev.add_callback(calls.append)
        assert ev._cb1 is not None
        assert not ev._cbs
        ev.succeed("x")
        sim.run()
        assert calls == [ev]

    def test_overflow_to_list_preserves_order(self, sim):
        ev = Event(sim)
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.add_callback(lambda e: order.append(3))
        ev.succeed()
        sim.run()
        assert order == [1, 2, 3]

    def test_discard_matches_equal_bound_methods(self, sim):
        # Bound methods are re-created per attribute access: discard
        # must compare by equality or interrupt() leaks stale resumes.
        class Holder:
            def cb(self, ev):
                pass

        h = Holder()
        ev = Event(sim)
        ev.add_callback(h.cb)
        ev._discard_callback(h.cb)  # a *different* bound-method object
        assert ev._cb1 is None and not ev._cbs

    def test_callback_after_processed_fires_immediately(self, sim):
        ev = Event(sim)
        ev.succeed("done")
        sim.run()
        seen = []
        ev.add_callback(seen.append)
        assert seen == [ev]


class TestEngineStats:
    def test_counts_scheduled_and_processed(self):
        sim = Simulator()

        def proc():
            for _ in range(10):
                yield sim.timeout(0.1)

        sim.run(until=sim.process(proc()))
        assert sim.stats.events_processed >= 10
        assert sim.stats.events_scheduled >= sim.stats.events_processed
        assert sim.stats.peak_heap >= 1
        assert sim.stats.wall_seconds > 0.0

    def test_as_dict_keys(self):
        sim = Simulator()
        d = sim.stats.as_dict()
        assert set(d) == {
            "events_scheduled",
            "events_processed",
            "peak_heap",
            "wall_seconds",
        }

    def test_timeout_reuse_avoids_new_schedules(self):
        # A reset timeout re-enters the heap but allocates no event:
        # scheduled count still rises (it is enqueued), but the object
        # count doesn't - sanity-check via identity.
        sim = Simulator()
        ids = set()

        def proc():
            t = sim.timeout(0.1)
            for _ in range(5):
                yield t
                ids.add(id(t))
                t.reset()

        sim.run(until=sim.process(proc()))
        assert len(ids) == 1
