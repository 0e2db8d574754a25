"""Unit and property tests for Resource and the NIC Pipe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Pipe, Resource, Simulator
from repro.sim.engine import Interrupt, SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_immediate_grant_when_free(self, sim):
        res = Resource(sim, 2)
        ev = res.acquire()
        assert ev.triggered
        assert res.in_use == 1
        assert res.available == 1

    def test_fifo_queueing(self, sim):
        res = Resource(sim, 1)
        order = []

        def user(tag, hold):
            yield res.acquire()
            order.append(("start", tag, sim.now))
            yield sim.timeout(hold)
            res.release()

        for i in range(3):
            sim.process(user(i, 10))
        sim.run()
        assert order == [("start", 0, 0), ("start", 1, 10), ("start", 2, 20)]

    def test_multi_unit_acquire_waits_for_all_units(self, sim):
        res = Resource(sim, 4)
        events = []

        def small(tag):
            yield res.acquire(1)
            yield sim.timeout(5)
            res.release(1)
            events.append((tag, sim.now))

        def big():
            yield res.acquire(4)
            events.append(("big", sim.now))
            res.release(4)

        sim.process(small("a"))
        sim.process(small("b"))
        sim.process(big())
        sim.run()
        # big must wait until both singles released at t=5
        assert ("big", 5) in events

    def test_big_request_not_starved_by_later_small_ones(self, sim):
        res = Resource(sim, 2)
        order = []

        def holder():
            yield res.acquire(2)
            yield sim.timeout(10)
            res.release(2)

        def big():
            yield sim.timeout(1)
            yield res.acquire(2)
            order.append(("big", sim.now))
            res.release(2)

        def small():
            yield sim.timeout(2)
            yield res.acquire(1)
            order.append(("small", sim.now))
            res.release(1)

        sim.process(holder())
        sim.process(big())
        sim.process(small())
        sim.run()
        assert order[0][0] == "big"  # FIFO: big asked first

    def test_over_release_rejected(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_acquire_more_than_capacity_rejected(self, sim):
        res = Resource(sim, 2)
        with pytest.raises(ValueError):
            res.acquire(3)

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, 0)

    @given(
        capacity=st.integers(1, 5),
        holds=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_never_exceeds_capacity(self, capacity, holds):
        sim = Simulator()
        res = Resource(sim, capacity)
        peak = []

        def user(hold):
            yield res.acquire()
            peak.append(res.in_use)
            yield sim.timeout(hold)
            res.release()

        for h in holds:
            sim.process(user(h))
        sim.run()
        assert max(peak) <= capacity
        assert res.in_use == 0

    def test_acquire_is_prefired_only_when_free_and_unqueued(self, sim):
        res = Resource(sim, 2)
        assert res.acquire(2).processed  # granted on the spot
        assert res.in_use == 2
        waiter = res.acquire()
        assert not waiter.triggered  # full
        res.release(2)
        sim.run()
        assert waiter.processed and res.in_use == 1
        # One unit free, but someone queued earlier would be jumped:
        res2 = Resource(sim, 3)
        assert res2.acquire(2).processed
        pending = res2.acquire(2)
        assert not pending.triggered
        assert not res2.acquire().triggered  # would jump `pending`
        assert res2.in_use == 2 and res2.queue_len == 2
        with pytest.raises(ValueError):
            res.acquire(3)


    def test_withdrawn_waiter_is_skipped_where_it_sits(self, sim):
        res = Resource(sim, 1)
        assert res.acquire().processed
        got = []

        def waiter(tag):
            try:
                yield res.acquire()
            except Interrupt:
                return
            got.append(tag)

        procs = [sim.process(waiter(tag)) for tag in "abc"]
        sim.run()
        assert res.queue_len == 3
        procs[1].interrupt()
        sim.run()
        assert res.queue_len == 2  # counted out at once, removed lazily
        res.release()
        sim.run()
        assert got == ["a"] and res.queue_len == 1
        res.release()
        sim.run()
        assert got == ["a", "c"] and res.queue_len == 0 and res.in_use == 1


class TestPipeLoneWaiter:
    """``release()`` hands a lone waiter the pipe without drawing."""

    def test_lone_waiter_is_handed_the_pipe_without_a_draw(self, sim):
        pipe, got = Pipe(sim), []
        pipe.acquire(got.append, "holder")
        pipe.acquire(got.append, "waiter")
        before = sim.rng.bit_generator.state
        pipe.release()
        sim.run()
        assert got == ["holder", "waiter"] and pipe.in_use == 1 and pipe.queue_len == 0
        assert sim.rng.bit_generator.state == before
        pipe.release()
        with pytest.raises(SimulationError):
            pipe.release()  # nothing is held: an idle release is an error

    def test_a_draw_among_one_consumes_no_generator_state(self):
        # What skipping the draw rests on: ``integers(0, 1)`` leaves the
        # stream where it was.  A numpy that changes this must fail here,
        # by name, not by silently moving every pinned trace hash.
        import numpy as np

        drawn, fresh = np.random.default_rng(20070625), np.random.default_rng(20070625)
        assert all(int(drawn.integers(0, 1)) == 0 for _ in range(1000))
        for _ in range(50):
            assert int(drawn.integers(0, 7)) == int(fresh.integers(0, 7))
            assert float(drawn.random()) == float(fresh.random())


class TestLongWaiterQueues:
    """Regression tests for the O(n^2) release/abandon paths.

    An old release rebuilt its candidate list per grant and an old
    abandon scanned the waiter queue linearly.  Both are bounded now — a
    FIFO release granting N waiters, a pipe handed down a queue of
    waiters and N abandons each run in (amortised) linear time, or with
    a constant small enough not to matter.  The wall-clock bounds are
    generous for CI noise; the old code exceeds them by an order of
    magnitude at these queue lengths.
    """

    N = 20_000
    PIPE_N = 5_000

    @pytest.mark.parametrize("arbitration", ["fifo", "random"])
    def test_bulk_release_grants_all_waiters_fast(self, arbitration):
        import time

        sim = Simulator()
        if arbitration == "fifo":
            res = Resource(sim, self.N)
            assert res.acquire(self.N).triggered
            events = [res.acquire() for _ in range(self.N)]
            assert res.queue_len == self.N
            t0 = time.perf_counter()
            res.release(self.N)
            elapsed = time.perf_counter() - t0
            sim.run()
            assert res.in_use == self.N and res.queue_len == 0
        else:
            # A pipe has one holder: the queue drains by being handed on.
            pipe = Pipe(sim)
            events = [sim.event() for _ in range(self.PIPE_N)]

            def granted(ev):
                ev.succeed()
                pipe.release()

            pipe.acquire(lambda _: None)  # held by the test
            for ev in events:
                pipe.acquire(granted, ev)
            assert pipe.queue_len == self.PIPE_N
            t0 = time.perf_counter()
            pipe.release()
            sim.run()
            elapsed = time.perf_counter() - t0
            assert pipe.in_use == 0 and pipe.queue_len == 0
        assert all(ev.processed for ev in events)
        assert elapsed < 2.0, f"draining {len(events)} waiters took {elapsed:.2f}s"

    def test_random_policy_grant_sequence_matches_rebuild_reference(self):
        # A pipe's hand-off order is nothing but ``rng.integers(0, n)``
        # popped from the arrival-ordered queue: replay that with an
        # identically seeded generator and compare.
        import numpy as np

        for seed in (1, 2, 3):
            sim = Simulator(seed=seed)
            pipe = Pipe(sim)
            order: list = []

            def granted(i):
                order.append(i)
                pipe.release()

            pipe.acquire(lambda _: None)  # held by the test
            for i in range(50):
                pipe.acquire(granted, i)
            pipe.release()
            sim.run()

            ref_rng = np.random.default_rng(seed)
            waiting = list(range(50))
            ref_order = []
            while waiting:
                ref_order.append(waiting.pop(int(ref_rng.integers(0, len(waiting)))))
            assert order == ref_order
            assert pipe.in_use == 0 and pipe.queue_len == 0

    def test_abandon_long_queue_is_fast_and_leak_free(self):
        import time

        sim = Simulator()
        res = Resource(sim, 1)
        assert res.acquire().processed
        holders = []

        def waiter():
            try:
                yield res.acquire()
            except Interrupt:
                return
            res.release()

        for _ in range(self.N):
            holders.append(sim.process(waiter()))
        sim.run(until=sim.now)  # let the kicks run so waiters are queued
        assert res.queue_len == self.N
        t0 = time.perf_counter()
        for p in holders:
            if p.is_alive:
                p.interrupt("cancel")
        elapsed = time.perf_counter() - t0
        sim.run()
        assert elapsed < 2.0, f"abandoning {self.N} waiters took {elapsed:.2f}s"
        assert res.queue_len == 0
        res.release()
        assert res.in_use == 0

