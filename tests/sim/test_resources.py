"""Unit and property tests for Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator
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


class TestLongWaiterQueues:
    """Regression tests for the O(n^2) release/abandon paths.

    The old random-policy release rebuilt the full eligible list (and
    indexed a deque, also O(n)) per grant; the old abandon path scanned
    the waiter deque linearly.  Both are now bounded — a single release
    granting N waiters and N abandons each run in (amortised) linear
    time.  The wall-clock bounds are generous for CI noise; the old
    code exceeds them by an order of magnitude at this queue length.
    """

    N = 20_000

    def _queue_up(self, sim, policy):
        res = Resource(sim, self.N, policy=policy)
        assert res.acquire(self.N).triggered
        events = [res.acquire() for _ in range(self.N)]
        assert res.queue_len == self.N
        return res, events

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_bulk_release_grants_all_waiters_fast(self, policy):
        import time

        sim = Simulator()
        res, events = self._queue_up(sim, policy)
        t0 = time.perf_counter()
        res.release(self.N)
        elapsed = time.perf_counter() - t0
        sim.run()
        assert all(ev.processed for ev in events)
        assert res.in_use == self.N and res.queue_len == 0
        assert elapsed < 2.0, f"release of {self.N} waiters took {elapsed:.2f}s"

    def test_random_policy_grant_sequence_matches_rebuild_reference(self):
        # The incremental eligible list must draw and grant exactly as
        # the old rebuild-from-scratch loop did: replay the reference
        # algorithm with an identically-seeded rng and compare orders.
        import numpy as np

        for seed, capacity in [(1, 7), (2, 13), (3, 4)]:
            sim = Simulator(seed=seed)
            res = Resource(sim, capacity, policy="random")
            assert res.acquire(capacity).triggered
            rnd = np.random.default_rng(seed + 99)
            wants = [int(rnd.integers(1, capacity + 1)) for _ in range(50)]
            order: list = []
            events = []
            for i, w in enumerate(wants):
                ev = res.acquire(w)
                ev.add_callback(lambda _e, i=i: order.append(i))
                events.append(ev)
            freed = capacity
            res.release(freed)
            sim.run()

            # Reference: the pre-change algorithm on the same queue.
            ref_rng = np.random.default_rng(seed)
            waiters = [(i, w) for i, w in enumerate(wants)]
            in_use = capacity - freed
            ref_order = []
            while waiters:
                eligible = [
                    k for k, (_i, w) in enumerate(waiters)
                    if in_use + w <= capacity
                ]
                if not eligible:
                    break
                idx = eligible[int(ref_rng.integers(0, len(eligible)))]
                i, w = waiters.pop(idx)
                in_use += w
                ref_order.append(i)
            assert order == ref_order

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

