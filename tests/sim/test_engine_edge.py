"""Additional engine edge-case tests."""

import pytest

from repro.sim import AnyOf, Event, Interrupt, Network, Pipe, Resource, Simulator
from repro.sim.engine import SimulationError
from repro.sim.network import CHUNK_BYTES, PER_MESSAGE_BYTES
from tests.sim.test_event_budget import assert_idle
from tests.sim.test_scheduler_equivalence import AlwaysHopSimulator


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

            def served(tag):
                if tag == "holder":
                    sim.call_later(1, lambda _: res.release())
                else:
                    order.append(tag)
                    res.release()

            res.serve(0.0, served, "holder")
            for tag in range(6):
                res.serve(0.25, served, tag)
            sim.run()
            assert res.in_use == 0 and res._waiters == []
            return order

        assert run(1) == run(1)
        # Different seeds usually differ (6! orderings; collision unlikely)
        assert run(1) != run(2) or run(3) != run(4)


class TestCallLater:
    """``call_later(d, fn)``: the slot of an event, without the event."""

    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_shares_the_seq_order_of_events_issued_beside_it(self, delay):
        sim = Simulator()
        order = []
        sim.call_later(delay, lambda _: order.append("call-1"))
        sim.timeout(delay).add_callback(lambda _ev: order.append("timeout-1"))
        sim.call_later(delay, lambda _: order.append("call-2"))
        sim.timeout(delay).add_callback(lambda _ev: order.append("timeout-2"))
        sim.run()
        assert order == ["call-1", "timeout-1", "call-2", "timeout-2"]
        assert sim.now == delay

    def test_the_call_is_handed_none(self):
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
        sim.call_later(2.0, lambda _: ran.append("later"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # Like an undefused failure: the run stops there, the clock and
        # the rest of the queue are intact.
        assert sim.now == 1.0 and ran == []
        sim.run()
        assert ran == ["later"]

    def test_run_until_event_returns_right_after_the_call_that_fires_it(self):
        sim = Simulator()
        ev = Event(sim)
        ran = []

        def fire(_):
            ev.succeed("fired")
            # Same instant, behind the event: must not run before the return.
            sim.call_later(0.0, lambda _: ran.append("after"))

        sim.call_later(1.0, fire)
        assert sim.run(until=ev) == "fired"
        assert sim.now == 1.0 and ran == []

    def test_run_until_time_leaves_a_later_call_queued(self):
        sim = Simulator()
        ran = []
        sim.call_later(1.0, lambda _: ran.append("early"))
        sim.call_later(3.0, lambda _: ran.append("late"))
        sim.run(until=2.0)
        assert ran == ["early"] and sim.now == 2.0
        sim.run()
        assert ran == ["early", "late"] and sim.now == 3.0

    def test_each_call_is_one_processed_event_on_one_lane(self):
        sim = Simulator()
        sim.call_later(0.0, id)
        assert (sim.stats.events_scheduled, sim.stats.peak_heap) == (1, 1)
        sim.call_later(0.25, id)
        assert (sim.stats.events_scheduled, sim.stats.peak_heap) == (2, 2)
        sim.run()
        assert sim.stats.events_processed == sim.stats.events_scheduled == 2


class TestQueueKey:
    """One heap of ``(time, key, fn, arg)``: the key is the sequence
    number, less ``2**62`` for an urgent call — earlier time first,
    then urgent before normal, then FIFO."""

    def test_urgent_call_scheduled_after_same_instant_calls_runs_first(self):
        sim, order = Simulator(), []

        def entry(_):
            for i in range(5):
                sim.call_later(0.0, lambda _, i=i: order.append(i))
            sim._enqueue(order.append, "urgent", 0.0, urgent=True)

        sim.call_later(1.0, entry)
        sim.run()
        assert order == ["urgent", 0, 1, 2, 3, 4]

    def test_urgent_calls_stay_fifo_among_themselves(self):
        sim, order = Simulator(), []
        for tag in ("u0", "u1", "u2"):
            sim.call_later(0.0, lambda _: order.append("normal"))
            sim._enqueue(order.append, tag, 0.0, urgent=True)
        sim.run()
        assert order == ["u0", "u1", "u2", "normal", "normal", "normal"]

    def test_a_later_time_never_overtakes_even_when_urgent(self):
        sim, order = Simulator(), []
        sim.call_later(1.0, lambda _: order.append("normal same time"))
        sim._enqueue(order.append, "urgent later", 1.0, urgent=True)
        sim.call_later(0.5, lambda _: order.append("normal sooner"))
        sim.run()
        assert order == ["normal sooner", "urgent later", "normal same time"]

    def test_nothing_else_is_due_while_an_urgent_call_is(self):
        sim = Simulator()
        seen = []

        def entry(_):
            seen.append(sim.nothing_else_due())
            sim._enqueue(seen.append, "urgent", 0.0, urgent=True)
            seen.append(sim.nothing_else_due())

        sim.call_later(1.0, entry)
        sim.run()
        assert seen == [True, False, "urgent"]

    def test_urgent_interrupt_beats_same_instant_calls(self):
        """An interrupt scheduled in the instant of a pending zero-delay
        timeout fires first: without the urgent key the second tick
        would come before it."""
        sim, order = Simulator(), []

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                order.append("interrupted")

        def noisy():
            for _ in range(3):
                yield sim.timeout(0.0)
                order.append("tick")

        victim = sim.process(sleeper())

        def killer():
            yield sim.timeout(0.0)
            victim.interrupt("now")

        sim.process(noisy())
        sim.process(killer())
        sim.run()
        assert order == ["tick", "interrupted", "tick", "tick"]


class TestTailRule:
    """A zero-delay call from the tail of a queue entry runs in place
    exactly when nothing else is due in that instant."""

    #: A payload of ``k * CHUNK - FRAME`` bytes is exactly k chunks on the wire.
    CHUNK, FRAME, BW = CHUNK_BYTES, PER_MESSAGE_BYTES, 1e6

    def _net(self, sim, latency):
        net = Network(sim, latency=latency)
        for name in "ab":
            net.add_nic(name, self.BW)
        return net

    def test_nothing_else_due_reads_the_queue_head(self):
        sim = Simulator()
        assert sim.nothing_else_due()
        sim.call_later(1.0, lambda _: None)
        assert sim.nothing_else_due()  # due later, not now
        sim.call_later(0.0, lambda _: None)
        assert not sim.nothing_else_due()
        sim.run(until=0.5)
        assert sim.nothing_else_due()
        sim.run(until=1.0)  # an entry due at the deadline runs
        assert sim.nothing_else_due() and sim.stats.events_processed == 2

    @staticmethod
    def _watched(sim, order):
        """A pipe whose grant hop, when one is queued, marks ``order``."""
        pipe = Pipe(sim)

        def start(job):
            order.append("hop")
            Pipe._start(pipe, job)

        pipe._start = start
        return pipe

    def test_tail_acquire_alone_in_its_instant_is_granted_in_place(self):
        sim, order = Simulator(), []
        pipe = self._watched(sim, order)

        def entry(_):
            pipe.serve(0.5, order.append, "served")
            order.append("entry over")

        sim.call_later(1.0, entry)
        sim.run()
        assert order == ["entry over", "served"] and pipe.in_use == 1
        assert sim.now == 1.5
        # The entry and the service time: no grant hop between them.
        assert sim.stats.events_processed == 2

    def test_another_entry_already_due_this_instant_forces_the_hop(self):
        sim, order = Simulator(), []
        pipe = self._watched(sim, order)
        sim.call_later(1.0, lambda _: pipe.serve(0.0, order.append, "served"))
        sim.call_later(1.0, lambda _: order.append("other"))
        sim.run()
        assert order == ["other", "hop", "served"]
        assert sim.stats.events_processed == 4

    def test_a_zero_delay_call_made_earlier_in_the_entry_forces_the_hop(self):
        sim, order = Simulator(), []
        pipe = self._watched(sim, order)

        def entry(_):
            sim.call_later(0.0, lambda _: order.append("first"))
            pipe.serve(0.0, order.append, "served")

        sim.call_later(1.0, entry)
        sim.run()
        assert order == ["first", "hop", "served"]

    def test_urgent_interrupt_enqueued_in_the_instant_of_a_tail_grant_runs_first(self):
        sim, order = Simulator(), []
        pipe = self._watched(sim, order)

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt as intr:
                order.append(f"interrupted:{intr.cause}")

        victim = sim.process(sleeper())

        def entry(_):
            victim.interrupt("now")
            pipe.serve(0.0, order.append, "served")

        sim.call_later(1.0, entry)
        sim.run()
        assert order == ["interrupted:now", "hop", "served"]

    def test_release_hands_on_through_the_queue_even_alone(self):
        sim, order = Simulator(), []
        pipe = self._watched(sim, order)
        pipe.serve(0.0, order.append, "holder")
        pipe.serve(0.0, order.append, "waiter")
        sim.run()

        def entry(_):
            pipe.release()
            order.append("entry over")

        sim.call_later(1.0, entry)
        sim.run()
        # Granted in place, the idle pipe: handed on, a zero-length
        # service hops.
        assert order == ["holder", "entry over", "hop", "waiter"]

    @staticmethod
    def _hand_off(kernel, also_due=False):
        """A holder and a waiter of 0.5 s services; at t=1 an entry
        releases the pipe — beside another call due then if
        ``also_due`` — and at t=1.5, queued long before, a call lands
        in the instant the waiter's service ends."""
        sim, order = kernel(), []
        pipe = TestTailRule._watched(sim, order)

        def note(tag):
            order.append((sim.now, tag))

        pipe.serve(0.5, note, "holder")
        pipe.serve(0.5, note, "waiter")
        sim.call_later(1.5, lambda _: note("queued for 1.5"))
        sim.run(until=0.75)

        def entry(_):
            pipe.release()
            note("entry over")

        sim.call_later(0.25, entry)
        if also_due:
            sim.call_later(0.25, lambda _: note("also due"))
        sim.run()
        return order, sim.stats.events_processed

    def test_release_hands_on_in_place_when_nothing_else_is_due(self):
        order, entries = self._hand_off(Simulator)
        hop_order, hop_entries = self._hand_off(AlwaysHopSimulator)
        assert order == [
            (0.5, "holder"), (1.0, "entry over"),
            (1.5, "queued for 1.5"), (1.5, "waiter"),
        ]
        # The waiter's end: the same time and place as behind the hop.
        assert [step for step in hop_order if step != "hop"] == order
        assert hop_order.count("hop") == 2 and entries == hop_entries - 2

    def test_release_beside_a_call_due_in_its_instant_still_hops(self):
        order, entries = self._hand_off(Simulator, also_due=True)
        assert order == [
            (0.5, "holder"), (1.0, "entry over"), (1.0, "also due"),
            "hop", (1.5, "queued for 1.5"), (1.5, "waiter"),
        ]
        # Only the holder's grant, made alone, differs.
        hop_order, hop_entries = self._hand_off(AlwaysHopSimulator, also_due=True)
        assert (hop_order, hop_entries) == (["hop"] + order, entries + 1)

    def test_zero_latency_flow_starts_and_ends_in_the_instants_it_did_inline(self):
        """A zero latency is an entry like any other: the flow asks for
        the tx pipe in a call due at the instant of the transfer — the
        instant its inline start used to take the pipe in — and lands
        when it always did, four chunk times later."""
        sim = Simulator()
        net = self._net(sim, latency=0.0)
        seen = []

        def sender():
            done = net.transfer("a", "b", 3 * self.CHUNK - self.FRAME)
            # Not held yet: the start is a call due this instant.
            seen.append((net.nics["a"].tx.in_use, sim.nothing_else_due(), done.triggered))
            yield done
            seen.append(sim.now)

        sim.run(until=sim.process(sender()))
        assert seen == [(0, False, False), pytest.approx(4 * self.CHUNK / self.BW)]
        # The kick, the start and 2k service times: the grants, ``done``
        # and the end run in place.
        assert sim.stats.events_processed == 1 + 1 + 2 * 3
        assert_idle(net)

    def test_zero_latency_empty_transfer_still_sends_its_framing(self):
        """No wire transfer is empty: a zero-byte one is a message of
        ``FRAME`` bytes, three entries (start, tx and rx service)."""
        sim = Simulator()
        net = self._net(sim, latency=0.0)
        done = net.transfer("a", "b", 0)
        assert not done.triggered
        sim.run()
        assert done.processed and net.flows_chunked == 1
        assert sim.now == pytest.approx(2 * self.FRAME / self.BW)
        assert sim.stats.events_processed == 3

    def test_run_until_done_returns_when_done_fired_in_place(self):
        sim = Simulator()
        net = self._net(sim, latency=1e-3)
        done = net.transfer("a", "b", 2 * self.CHUNK - self.FRAME)
        sim.call_later(1.0, lambda _: None)  # still queued at the return
        sim.run(until=done)
        assert done.processed
        assert sim.now == pytest.approx(1e-3 + 3 * self.CHUNK / self.BW)
        # Latency and two service times on each pipe: done cost no entry.
        assert sim.stats.events_processed == 5
        assert_idle(net)

    def test_failure_raised_by_a_waiter_of_an_in_place_done_surfaces_from_run(self):
        sim = Simulator()
        net = self._net(sim, latency=1e-3)

        def receiver():
            yield net.transfer("a", "b", 10)
            raise RuntimeError("receiver blew up")

        proc = sim.process(receiver())
        with pytest.raises(RuntimeError, match="receiver blew up"):
            sim.run()
        assert not proc.ok and net.flows_completed == 1
        assert_idle(net)

    def test_exception_from_a_callback_of_an_in_place_done_surfaces_from_run(self):
        sim = Simulator()
        net = self._net(sim, latency=1e-3)

        def boom(_event):
            raise RuntimeError("callback blew up")

        net.transfer("a", "b", 10).add_callback(boom)
        with pytest.raises(RuntimeError, match="callback blew up"):
            sim.run()
        # The rx pipe went back before the completion was attempted.
        assert_idle(net)
        sim.run()  # and the loop is fit to go on

    @staticmethod
    def _join_waiter(kernel, also_due=False):
        """A process waits on ``all_of`` two processes that return "x"
        and "y" after 1 s and 2 s; a call lands at 3 s, and — if
        ``also_due`` — the last leg's first waiter schedules a call due
        in its instant, ahead of the join."""
        sim, order = kernel(), []

        def note(tag):
            order.append((sim.now, tag))

        def leg(delay, value):
            yield sim.timeout(delay)
            return value

        x, y = sim.process(leg(1.0, "x")), sim.process(leg(2.0, "y"))
        if also_due:
            y.add_callback(lambda _: sim.call_later(0.0, lambda _: note("also due")))

        def waiter():
            got = yield sim.all_of([x, y])
            note(("joined", got))

        sim.process(waiter())
        sim.call_later(3.0, lambda _: note("later"))
        sim.run()
        return order, sim.stats.events_processed

    def test_a_join_completed_alone_in_its_instant_fires_in_place(self):
        order, entries = self._join_waiter(Simulator)
        hop_order, hop_entries = self._join_waiter(AlwaysHopSimulator)
        # The waiter resumes at the same time and place in the order.
        assert order == hop_order == [(2.0, ("joined", ("x", "y"))), (3.0, "later")]
        # Three kicks, two timers and the later call: the legs' ends,
        # the join and the waiter's end cost no entry.
        assert entries == 6 and hop_entries == entries + 4

    def test_a_join_completed_beside_a_due_call_still_queues(self):
        order, entries = self._join_waiter(Simulator, also_due=True)
        hop_order, hop_entries = self._join_waiter(AlwaysHopSimulator, also_due=True)
        assert order == hop_order == [
            (2.0, "also due"), (2.0, ("joined", ("x", "y"))), (3.0, "later"),
        ]
        # The join is an entry; the legs' ends and the waiter's end,
        # each alone in its instant, are not.
        assert entries == 8 and hop_entries == entries + 3

    def test_a_spawn_whose_legs_all_end_in_their_first_segment_queues_its_join(self):
        sim = Simulator()
        seen = []

        def instant(tag):
            return tag
            yield  # pragma: no cover

        def parent():
            join = sim.spawn(instant("a"), instant("b"))
            # The legs ended in the spawner's stack, no entry's tail.
            seen.append((join.triggered, join.processed))
            return (yield join)

        proc = sim.process(parent())
        sim.run()
        assert seen == [(True, False)] and proc.value == ("a", "b")
        assert sim.stats.events_processed == 2  # the kick and the join

    @pytest.mark.parametrize("fan_in", ["all_of", "any_of"])
    def test_a_fan_in_over_legs_that_have_fired_queues_its_firing(self, fan_in):
        sim = Simulator()
        early = sim.timeout(0.0)
        sim.run()
        seen = []

        def entry(_):
            # The entry's last act, with nothing else due: still queued.
            ev = getattr(sim, fan_in)([early])
            seen.append((ev.triggered, ev.processed))

        sim.call_later(1.0, entry)
        sim.run()
        assert seen == [(True, False)]

    @pytest.mark.parametrize("ending", ["first", "second"])
    def test_of_two_waiters_on_one_event_only_the_second_ends_in_place(self, ending):
        sim = Simulator()
        gate = sim.timeout(1.0)

        def waiter(tag):
            yield gate
            if tag != ending:
                yield sim.timeout(1.0)

        procs = {tag: sim.process(waiter(tag)) for tag in ("first", "second")}
        # Returns right after the gate's entry: an end made in place has
        # fired, a queued one has not.
        sim.run(until=gate)
        assert procs[ending].triggered
        assert procs[ending].processed == (ending == "second")
        sim.run()
        assert all(proc.processed for proc in procs.values())

    @staticmethod
    def _run_until_end(kernel):
        sim, log = kernel(), []

        def worker():
            yield sim.timeout(1.0)
            log.append(sim.now)
            return "done"

        later = sim.timeout(2.0)
        value = sim.run(until=sim.process(worker()))
        stats = sim.stats
        return value, sim.now, log, later.processed, stats.events_scheduled - stats.events_processed

    def test_run_until_a_process_that_ends_in_place_returns_as_behind_the_hop(self):
        state = self._run_until_end(Simulator)
        assert state == self._run_until_end(AlwaysHopSimulator)
        assert state == ("done", 1.0, [1.0], False, 1)

    def test_a_chain_of_nested_spawns_ending_in_place_stays_under_the_recursion_limit(self):
        """Each level parks before it spawns the next, so the chain is
        built from shallow stacks; at the end every join completes in
        place, fired by the run loop after the one below."""
        sim = Simulator()
        depth = 300

        def level(n):
            yield sim.timeout(1.0)
            if not n:
                return 0
            (below,) = yield sim.spawn(level(n - 1))
            return below + 1

        proc = sim.process(level(depth))
        sim.run()
        assert proc.value == depth and sim.now == depth + 1.0
        # The kick and a timer a level: every join and the end in place.
        assert sim.stats.events_processed == 1 + depth + 1

    def test_a_chain_of_5000_joined_processes_ending_in_one_instant_completes(self):
        """Each process joins the one started before it, and all end in
        the instant the first one's timer fires: every end is parked by
        the one before and fired by the loop, one after another — no
        frame deeper per level, so no recursion limit."""
        sim = Simulator()
        depth = 5000

        def first():
            yield sim.timeout(1.0)
            return 0

        def after(below):
            return (yield below) + 1

        proc = sim.process(first())
        for _ in range(depth - 1):
            proc = sim.process(after(proc))
        sim.run()
        assert proc.value == depth - 1 and sim.now == 1.0
        # The kicks and the timer: every end in place.
        assert sim.stats.events_processed == depth + 1

    def test_a_completion_parked_by_an_entry_that_then_raises_is_queued(self):
        sim, seen = Simulator(), []
        ev = Event(sim)
        ev.add_callback(lambda event: seen.append(event.value))

        def entry(_):
            ev._complete("parked", True)
            raise RuntimeError("entry blew up")

        sim.call_later(1.0, entry)
        with pytest.raises(RuntimeError, match="entry blew up"):
            sim.run()
        assert ev.triggered and not ev.processed and seen == []
        assert sim.stats.events_scheduled == 2
        sim.run()
        assert seen == ["parked"] and sim.now == 1.0

    @pytest.mark.parametrize("due", [False, True])
    def test_a_completion_parked_outside_run_is_taken_by_the_next_run(self, due):
        """Fired in place when nothing else is due, else queued behind
        what is — where ``succeed()`` would have put it."""
        sim, order = Simulator(), []
        ev = Event(sim)
        ev.add_callback(lambda event: order.append(event.value))
        if due:
            sim.call_later(0.0, lambda _: order.append("due"))
        ev._complete("parked", True)
        assert ev.triggered and not ev.processed
        sim.run()
        assert order == (["due", "parked"] if due else ["parked"])
        assert sim.stats.events_processed == (2 if due else 0)

    @pytest.mark.parametrize("dying", ["a", "b"])
    def test_nic_dying_mid_flow_still_drains_both_pipes(self, dying):
        sim = Simulator()
        net = self._net(sim, latency=1e-3)
        done = net.transfer("a", "b", 10 * self.CHUNK - self.FRAME)

        def die(_):
            net.nics[dying].down = True

        # Mid-chunk: a tx and an rx leg are in service, granted in place.
        sim.call_later(1e-3 + 3.5 * self.CHUNK / self.BW, die)
        sim.run()
        assert not done.triggered
        assert net.nics["a"].flows_dropped == 1 and net.flows_completed == 0
        assert net.nics["b"].rx_bytes == 0
        assert_idle(net)


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

    def test_run_until_an_already_failed_event_raises_it(self):
        """A failure is raised by ``run(until=ev)`` whether ``ev`` fails
        during the run or had failed, defused, before it."""
        sim = Simulator()
        ev = Event(sim)
        ev.fail(ValueError("boom"))
        ev.defuse()
        sim.run()
        assert ev.processed and not ev.ok
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=ev)

    def test_reset_refuses_a_timer_whose_firing_still_has_waiters_to_run(self):
        """Its first waiter may not re-arm it: the second, still to run,
        is kept in the timer's ``_cbs`` and would be handed the new arming."""
        sim = Simulator()
        timer = sim.timeout(1.0)
        seen = []

        def first():
            seen.append((yield timer))
            with pytest.raises(SimulationError, match="waiter"):
                timer.reset()

        def second():
            seen.append((yield timer))
            timer.reset(2.0)
            seen.append((yield timer))

        sim.process(first())
        sim.process(second())
        sim.run()
        assert seen == [None, None, None] and sim.now == 3.0

    def test_condition_across_simulators_rejected(self):
        a, b = Simulator(), Simulator()
        with pytest.raises(SimulationError):
            AnyOf(a, [a.timeout(1), b.timeout(1)])

    def test_all_of_across_simulators_rejected(self):
        a, b = Simulator(), Simulator()
        with pytest.raises(SimulationError):
            a.all_of([a.timeout(1), b.timeout(1)])

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

        def leg():
            yield res.acquire()
            try:
                if wait_first:
                    yield sim.timeout(1.0)
                yield 42
            finally:
                res.release()

        def parent():
            join = sim.spawn(leg())
            try:
                yield join
            except SimulationError as exc:
                return str(exc)

        proc = sim.process(parent())
        sim.run()
        assert "non-event 42" in proc.value and "leg" in proc.value
        assert res.in_use == 0 and res.queue_len == 0
        assert sim.now == (1.0 if wait_first else 0.0)


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
                yield Event(sim)  # never fires; nothing else holds it
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
