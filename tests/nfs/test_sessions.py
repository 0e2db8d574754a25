"""Session slot-table and reply-cache tests."""

import pytest

from repro.nfs.sessions import Session
from repro.sim import Interrupt, Simulator
from repro.sim.engine import SimulationError


class TestHighWaterMark:
    """The slot table's occupancy is its ``Resource``'s: ``high_water``
    is sampled when units are granted, ``in_use`` is what is held."""

    @staticmethod
    def _holder(sim, session, hold_for):
        if not session.slots.try_acquire():
            yield session.slots.acquire()
        try:
            yield sim.timeout(hold_for)
        finally:
            session.slots.release()

    def test_counts_concurrent_holders(self):
        sim = Simulator()
        session = Session(sim, slots=2)
        sim.process(self._holder(sim, session, 0.2))
        sim.process(self._holder(sim, session, 0.1))
        sim.run()
        assert session.slots.high_water == 2
        assert session.slots.in_use == 0

    def test_queued_acquire_counted_when_granted(self):
        """With one slot, a queued second caller holds it only once the
        first gives it back: the mark never passes 1."""
        sim = Simulator()
        session = Session(sim, slots=1)
        sim.process(self._holder(sim, session, 0.1))
        sim.process(self._holder(sim, session, 0.1))
        sim.run(until=0.15)
        assert (session.slots.in_use, session.slots.queue_len) == (1, 0)
        sim.run()
        assert session.slots.high_water == 1
        assert session.slots.in_use == 0

    def test_abandoned_grant_not_counted(self):
        """A queued grant abandoned by an interrupted waiter (an RPC
        timeout) is returned exactly once.  A *free* slot is claimed on
        the spot, so the grant that can still be abandoned is the queued
        one: the table is full, the holder gives its slot back, and the
        waiter that was just granted it is interrupted in the same
        instant."""
        sim = Simulator()
        session = Session(sim, slots=1)
        outcome = []

        def phantom():
            try:
                yield session.slots.acquire()
            except Interrupt:
                # The abandon hook already returned the slot; the
                # phantom never actually held it.
                outcome.append("interrupted")
                return
            outcome.append("granted")
            session.slots.release()

        def holder():
            assert session.slots.try_acquire()
            yield sim.timeout(0.1)
            assert session.slots.queue_len == 1
            session.slots.release()  # grants the queued phantom ...
            assert (session.slots.in_use, session.slots.queue_len) == (1, 0)
            p.interrupt("rpc timeout")  # ... whose event has not fired yet
            assert session.slots.in_use == 0

        sim.process(holder())
        p = sim.process(phantom())
        sim.run()
        assert outcome == ["interrupted"]
        assert session.slots.high_water == 1
        # Returned exactly once: the table is empty and a second return
        # would be an over-release.
        assert session.slots.in_use == 0
        with pytest.raises(SimulationError):
            session.slots.release()


class TestReplyCache:
    def test_roundtrip_and_retire(self):
        sim = Simulator()
        session = Session(sim, slots=4)
        s1, s2 = session.next_seq(), session.next_seq()
        assert s1 != s2
        assert session.cached_reply(s1) is None
        session.cache_reply(s1, {"count": 3}, None, None)
        assert session.cached_reply(s1) == ({"count": 3}, None, None)
        session.retire(s1)
        assert session.cached_reply(s1) is None
        session.retire(s1)  # idempotent

    def test_error_replies_cached_too(self):
        sim = Simulator()
        session = Session(sim, slots=4)
        seq = session.next_seq()
        err = ValueError("status")
        session.cache_reply(seq, None, None, err)
        assert session.cached_reply(seq) == (None, None, err)
