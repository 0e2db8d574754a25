"""Additional engine edge-case tests."""

import pytest

from repro.sim import AnyOf, Interrupt, Pipe, Resource, Simulator
from repro.sim.engine import SimulationError


class TestAnyOfFailures:
    def test_any_of_fails_when_member_fails_first(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("boom")

        def waiter():
            try:
                yield AnyOf(sim, [sim.process(bad()), sim.timeout(5)])
            except RuntimeError:
                return "caught"

        p = sim.process(waiter())
        sim.run(until=p)
        assert p.value == "caught"

    def test_any_of_ignores_later_failure(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(5)
            raise RuntimeError("late boom")

        bad_proc = sim.process(bad())

        def waiter():
            idx, _val = yield AnyOf(sim, [sim.timeout(1), bad_proc])
            return idx

        p = sim.process(waiter())
        sim.run(until=p)
        assert p.value == 0
        # defuse the late failure so the drain doesn't raise
        def absorb():
            try:
                yield bad_proc
            except RuntimeError:
                pass

        sim.process(absorb())
        sim.run()


class TestInterruptResourceInteraction:
    def test_interrupted_waiter_does_not_receive_grant_twice(self):
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10)
            res.release()

        def impatient():
            try:
                yield res.acquire()
                order.append("granted")
                res.release()
            except Interrupt:
                order.append("interrupted")

        def third():
            yield sim.timeout(11)
            yield res.acquire()
            order.append("third")
            res.release()

        sim.process(holder())
        p = sim.process(impatient())

        def interrupter():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(interrupter())
        sim.process(third())
        sim.run()
        assert order[0] == "interrupted"
        # The interrupted waiter's pending acquire is withdrawn (the
        # abandon protocol), so the unit is not leaked:
        assert "third" in order
        assert res.in_use == 0


class TestRandomPolicyDeterminism:
    def test_same_seed_same_grant_order(self):
        def run(seed):
            sim = Simulator(seed=seed)
            res = Pipe(sim)
            order = []

            def granted(tag):
                if tag == "holder":
                    sim.call_later(1, lambda _: res.release())
                else:
                    order.append(tag)
                    res.release()

            res.acquire(granted, "holder")
            for tag in range(6):
                res.acquire(granted, tag)
            sim.run()
            assert res.in_use == 0 and res.queue_len == 0
            return order

        assert run(1) == run(1)
        # Different seeds usually differ (6! orderings; collision unlikely)
        assert run(1) != run(2) or run(3) != run(4)


class TestCallLater:
    """``call_later(d, fn, arg)``: the slot of an event, without the event."""

    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_shares_the_seq_order_of_events_issued_beside_it(self, delay):
        sim = Simulator()
        order = []
        sim.call_later(delay, order.append, "call-1")
        sim.timeout(delay).add_callback(lambda _ev: order.append("timeout-1"))
        sim.call_later(delay, order.append, "call-2")
        sim.timeout(delay).add_callback(lambda _ev: order.append("timeout-2"))
        sim.run()
        assert order == ["call-1", "timeout-1", "call-2", "timeout-2"]
        assert sim.now == delay

    def test_arg_defaults_to_none(self):
        sim = Simulator()
        got = []
        sim.call_later(1.0, got.append)
        sim.run()
        assert got == [None]

    def test_negative_delay_is_rejected_and_schedules_nothing(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-1e-9, print)
        assert sim.stats.events_scheduled == 0

    def test_exception_from_the_call_surfaces_from_run(self):
        sim = Simulator()
        ran = []

        def boom(_):
            raise RuntimeError("boom")

        sim.call_later(1.0, boom)
        sim.call_later(2.0, ran.append, "later")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # Like an undefused failure: the run stops there, the clock and
        # the rest of the queue are intact.
        assert sim.now == 1.0 and ran == []
        sim.run()
        assert ran == ["later"]

    def test_run_until_event_returns_right_after_the_call_that_fires_it(self):
        sim = Simulator()
        ev = sim.event()
        ran = []

        def fire(_):
            ev.succeed("fired")
            # Same instant, behind the event: must not run before the return.
            sim.call_later(0.0, ran.append, "after")

        sim.call_later(1.0, fire)
        assert sim.run(until=ev) == "fired"
        assert sim.now == 1.0 and ran == []

    def test_run_until_time_leaves_a_later_call_queued(self):
        sim = Simulator()
        ran = []
        sim.call_later(1.0, ran.append, "early")
        sim.call_later(3.0, ran.append, "late")
        sim.run(until=2.0)
        assert ran == ["early"] and sim.now == 2.0
        sim.run()
        assert ran == ["early", "late"] and sim.now == 3.0

    def test_each_call_is_one_processed_event_on_one_lane(self):
        sim = Simulator()
        sim.call_later(0.0, id)
        assert (sim.stats.fast_lane_events, sim.stats.heap_events) == (1, 0)
        sim.call_later(0.25, id)
        assert (sim.stats.fast_lane_events, sim.stats.heap_events) == (1, 1)
        sim.run()
        assert sim.stats.events_processed == sim.stats.events_scheduled == 2


class TestEngineMisc:
    def test_run_past_deadline_then_continue(self):
        sim = Simulator()
        done = []

        def proc():
            yield sim.timeout(10)
            done.append(sim.now)

        sim.process(proc())
        sim.run(until=5)
        assert done == []
        sim.run()
        assert done == [10]

    def test_condition_across_simulators_rejected(self):
        a, b = Simulator(), Simulator()
        with pytest.raises(SimulationError):
            AnyOf(a, [a.timeout(1), b.timeout(1)])

    def test_process_yielding_foreign_event_fails(self):
        a, b = Simulator(), Simulator()

        def proc():
            yield b.timeout(1)

        a.process(proc())
        with pytest.raises(SimulationError):
            a.run()


class TestSpawnLegYieldingNonEvent:
    """A leg that yields a non-event ends as a process doing so ends:
    the error is thrown into its generator (``finally:`` runs, what it
    holds comes back) and fails its join — it does not escape through
    the run loop leaving the join pending and the unit held."""

    @pytest.mark.parametrize("wait_first", [False, True], ids=["first-segment", "after-a-wait"])
    def test_join_fails_and_the_leg_unwinds(self, wait_first):
        sim = Simulator()
        res = Resource(sim, 1)
        seen = []

        def leg():
            yield res.acquire()
            try:
                if wait_first:
                    yield sim.timeout(1.0)
                seen.append(sim._active_process)
                yield 42
            finally:
                res.release()

        def parent():
            me = sim._active_process
            join = sim.spawn(leg())
            assert sim._active_process is me  # put back as the leg found it
            try:
                yield join
            except SimulationError as exc:
                return str(exc)

        proc = sim.process(parent())
        sim.run()
        assert "non-event 42" in proc.value and "leg" in proc.value
        assert res.in_use == 0 and res.queue_len == 0
        assert len(seen) == 1 and seen[0] is not proc  # the leg ran as itself
        assert sim._active_process is None and sim.now == (1.0 if wait_first else 0.0)


class TestGatherWithTwoFailingLegs:
    """A gather that already failed — and delivered that failure to its
    waiter — defuses every later failing leg: the waiter saw the first
    error, nobody can observe the second, and it must not be re-raised
    out of ``Simulator.run()``.  (A fan-out of block fetches against a
    dead server times out leg after leg.)"""

    @staticmethod
    def _leg(sim, delay, message):
        yield sim.timeout(delay)
        raise RuntimeError(message)

    def test_all_of_waiter_sees_the_first_failure_and_the_run_survives(self):
        sim = Simulator()

        def waiter():
            legs = [
                sim.process(self._leg(sim, 1, "first")),
                sim.process(self._leg(sim, 2, "second")),
                sim.process(self._leg(sim, 2, "third")),
            ]
            try:
                yield sim.all_of(legs)
            except RuntimeError as exc:
                return str(exc)

        p = sim.process(waiter())
        sim.run()  # drains the later failures too
        assert p.value == "first"
        assert sim.now == 2

    def test_spawn_join_waiter_sees_the_first_failure_and_the_run_survives(self):
        sim = Simulator()

        def waiter():
            try:
                yield sim.spawn(
                    self._leg(sim, 1, "first"), self._leg(sim, 2, "second")
                )
            except RuntimeError as exc:
                return str(exc)

        p = sim.process(waiter())
        sim.run()
        assert p.value == "first"
        assert sim.now == 2

    def test_a_leg_failing_after_the_gather_succeeded_still_surfaces(self):
        """Only a *failed* gather absorbs later failures: a leg shared
        with an ``AnyOf`` that already fired successfully is unobserved
        and still crashes the run."""
        sim = Simulator()
        late = sim.process(self._leg(sim, 5, "late"))

        def waiter():
            yield AnyOf(sim, [sim.timeout(1), late])

        sim.process(waiter())
        with pytest.raises(RuntimeError, match="late"):
            sim.run()


class TestStuckFanOutSurvivesGarbageCollection:
    """A leg parked on an event nothing else references (a message a
    dead server swallowed) is only reachable through its ``Join``.  If
    the join did not hold its legs, the leg, its generator and the event
    would be cyclic garbage while the joiner still waits, and a
    collection would close the generator — running its ``finally:`` and
    handing the units it holds to someone else in a *live* simulation,
    at an instant the host's allocator picks."""

    def test_parked_leg_keeps_its_unit_while_the_joiner_is_referenced(self):
        import gc

        sim = Simulator()
        res = Resource(sim, 1)
        finalised = []

        def leg():
            yield res.acquire()
            try:
                yield sim.event()  # never fires; nothing else holds it
            finally:
                finalised.append(sim.now)
                res.release()

        def joiner():
            yield sim.spawn(leg())

        def later():
            yield sim.timeout(1.0)
            yield res.acquire()
            return sim.now

        waiting = sim.process(joiner())
        queued = sim.process(later())
        sim.run()
        gc.collect()
        sim.run()
        assert finalised == [] and res.in_use == 1 and res.queue_len == 1
        assert waiting.is_alive and queued.is_alive
