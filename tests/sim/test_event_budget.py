"""Exact event budgets and flow invariants of the network/CPU/RPC hot path.

Every count here is deterministic (no wall clock): one event per
physical delay or pipe arbitration point, nothing for relaying control.
A budget that grows means a relay hop came back; one that shrinks means
an arbitration point was dropped (see docs/architecture.md, "Layer 1").

The wire is pinned in both regimes.  Alone in its instants a message
costs its physical delays only (latency, tx service, rx service: the
grants and the completion run in place at the tail of those entries,
and a ``release()`` hands the pipe on in place), ``2k + 1`` for k
chunks; beside anything else due in the same instant it pays every
grant hop, ``4k + 2``, as every flow did before the tail rule — the
twin test ids keep those older counts in their names.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rpc
from repro.sim import CpuSpec, Event, Interrupt, Network, Node, NodeSpec, Pipe, Simulator
from repro.sim import network as network_mod
from repro.sim.cpu import Cpu
from repro.sim.network import FLOW_WINDOW
from repro.sim.resources import Resource
from tests.conftest import load_script
from tests.sim.test_scheduler_equivalence import AlwaysHopSimulator

BW = 1e6
CHUNK = 1000
LATENCY = 60e-6


def make_net(sim, n=4, latency=LATENCY, per_message_bytes=0):
    net = Network(
        sim, latency=latency, chunk_bytes=CHUNK, per_message_bytes=per_message_bytes
    )
    for i in range(n):
        net.add_nic(f"n{i}", BW)
    return net


def events_of(sim, gen):
    """Run ``gen`` as the only process; events it cost beyond the
    process's own start kick.  Its end, alone in its instant, fires in
    place: no entry."""
    before = sim.stats.events_processed
    proc = sim.process(gen)
    sim.run()
    assert proc.processed and proc.ok
    return sim.stats.events_processed - before - 1


def wait_for(make_event):
    """Process body: make the event inside the process, wait, hand on its value."""
    return (yield make_event())


def pipes(net):
    return [pipe for nic in net.nics.values() for pipe in (nic.tx, nic.rx)]


def assert_idle(net):
    for pipe in pipes(net):
        assert pipe.in_use == 0 and pipe._waiters == [], pipe.name


#: Its ``recording()`` counts physical delays: calls queued with a
#: positive delay (class ``delay``), by wrapping ``_enqueue`` from outside.
event_census = load_script("event_census")


def two_flows(pairs, nbytes, kernel=Simulator, per_message_bytes=0):
    """One flow per ``(src, dst)`` pair, both started in one instant.
    Returns ``(entries less two per sender — its kick and its end, an
    entry when something else is due beside it — finish time, rng state
    after)``."""
    sim = kernel(seed=11)
    net = make_net(sim, per_message_bytes=per_message_bytes)
    before = sim.stats.events_processed
    for src, dst in pairs:
        sim.process(wait_for(lambda src=src, dst=dst: net.transfer(src, dst, nbytes)))
    sim.run()
    assert net.flows_chunked == 2
    assert_idle(net)
    return sim.stats.events_processed - before - 4, sim.now, sim.rng.bit_generator.state


#: Disjoint pipes, yet in lockstep: each flow is due in the instant of
#: every grant and completion of the other.
TWINS = (("n0", "n2"), ("n1", "n3"))


class TestMessageBudget:
    def test_lone_subchunk_message_costs_six_events(self):
        """Alone: latency, tx service, rx service — the tx grant, the rx
        grant and the completion run in place.  Six is what the message
        costs beside a twin."""
        sim = Simulator()
        net = make_net(sim, per_message_bytes=120)
        assert events_of(sim, wait_for(lambda: net.transfer("n0", "n1", 344))) == 3
        # Store-and-forward: the last bit lands after two wire crossings.
        assert sim.now == pytest.approx(LATENCY + 2 * (344 + 120) / BW, rel=1e-12)

    def test_subchunk_message_beside_a_twin_still_costs_six_events(self):
        """Latency, tx grant, tx service, rx grant, rx service, completion."""
        entries, finished, _ = two_flows(TWINS, 344, per_message_bytes=120)
        assert entries == 2 * 6
        assert finished == pytest.approx(LATENCY + 2 * (344 + 120) / BW, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, FLOW_WINDOW + 1, FLOW_WINDOW + 2, 10])
    def test_lone_k_chunk_flow_costs_2k_plus_1(self, k):
        """Alone: the latency and a service time per chunk on each pipe,
        ``2k + 1`` physical delays and nothing else.  The flow contends
        with itself once — the short last chunk is off the tx pipe
        before the full chunk ahead of it is off the rx pipe, and queues
        — but ``release()`` hands it the pipe in place, nothing else
        being due.  ``4k + 2`` is the twin's count, below."""
        sim = Simulator()
        net = make_net(sim)
        nbytes = k * CHUNK - 1  # k chunks, the last one short
        with event_census.recording() as rec:
            cost = events_of(sim, wait_for(lambda: net.transfer("n0", "n1", nbytes)))
        assert cost == 2 * k + 1
        assert rec.count("delay") == 2 * k + 1
        # Pipelined: the short last chunk reaches the rx pipe behind the
        # full chunk before it, k chunk times in; alone it crosses twice.
        last = nbytes - (k - 1) * CHUNK
        ahead = k * CHUNK if k > 1 else last
        assert sim.now == pytest.approx(LATENCY + (ahead + last) / BW, rel=1e-9)
        assert net.flows_chunked == 1 and net.nics["n1"].rx_bytes == nbytes
        assert_idle(net)

    @pytest.mark.parametrize("k", [1, 2, 3, FLOW_WINDOW + 1, FLOW_WINDOW + 2, 10])
    def test_lone_flow_of_k_full_chunks_costs_2k_plus_1(self, k):
        """Equal chunks never meet on the rx pipe: every entry is a
        physical delay, and only the process's kick is not."""
        sim = Simulator()
        net = make_net(sim)
        with event_census.recording() as rec:
            cost = events_of(sim, wait_for(lambda: net.transfer("n0", "n1", k * CHUNK)))
        assert cost == 2 * k + 1
        assert rec.count("delay") == 2 * k + 1 and sim.stats.events_scheduled == 2 * k + 2
        assert sim.now == pytest.approx(LATENCY + (k + 1) * CHUNK / BW, rel=1e-9)
        assert_idle(net)

    @pytest.mark.parametrize("k", [1, 2, 3, FLOW_WINDOW + 1, FLOW_WINDOW + 2, 10])
    def test_twin_k_chunk_flows_cost_4k_plus_2_each(self, k):
        """In lockstep on disjoint pipes, each flow is due in the instant
        of every grant the other asks for: every hop stays."""
        nbytes = k * CHUNK - 1
        entries, finished, _ = two_flows(TWINS, nbytes)
        assert entries == 2 * (4 * k + 2)
        last = nbytes - (k - 1) * CHUNK
        ahead = k * CHUNK if k > 1 else last
        assert finished == pytest.approx(LATENCY + (ahead + last) / BW, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_two_flows_through_one_pipe_pay_every_hop_and_draw_the_same_numbers(self, k):
        """Two senders into one sink: the finish time and the random
        draws are those of a wire whose every relay is a queued call,
        ``2 (4k + 2)`` entries.  Fewer entries here: the completion of
        the flow that finishes last, alone in its instant, every
        ``release()`` hand-off of the sink's rx pipe made while nothing
        else was due, and both senders' ends run in place."""
        incast = (("n1", "n0"), ("n2", "n0"))
        entries, finished, rng_state = two_flows(incast, k * CHUNK - 1)
        hopping = two_flows(incast, k * CHUNK - 1, kernel=AlwaysHopSimulator)
        assert (finished, rng_state) == hopping[1:]
        assert hopping[0] == 2 * (4 * k + 2)
        assert entries < hopping[0] and entries == {1: 7, 3: 20, 10: 69}[k]

    def test_stalled_receiver_fills_the_window_and_no_more(self, monkeypatch):
        """Three senders into one sink: a flow runs ahead of the rx pipe
        by its window plus the leg it is blocked on, never further."""
        peaks = {}
        tx_served = network_mod._WireFlow._tx_served

        def watched(self, ev):
            tx_served(self, ev)
            peaks[self] = max(peaks.get(self, 0), self.live)

        monkeypatch.setattr(network_mod._WireFlow, "_tx_served", watched)
        sim = Simulator()
        net = make_net(sim, latency=0.0)
        for i in (1, 2, 3):
            sim.process(wait_for(lambda i=i: net.transfer(f"n{i}", "n0", 10 * CHUNK)))
        sim.run()
        assert sorted(peaks.values()) == [FLOW_WINDOW + 1] * 3
        # One chunk time to fill the switch, then the sink never idles.
        assert sim.now == pytest.approx(31 * CHUNK / BW, rel=1e-9)
        assert_idle(net)

    def test_loopback_message_costs_one_event(self):
        """No wire, but still a delivery: the receiver continues behind
        work already scheduled in this instant, not ahead of it."""
        sim = Simulator()
        net = make_net(sim)
        assert events_of(sim, wait_for(lambda: net.transfer("n0", "n0", 5000))) == 1
        assert sim.now == 0.0 and net.nics["n0"].loopback_bytes == 5000

    def test_dropped_flow_never_completes_and_costs_nothing(self):
        sim = Simulator()
        net = make_net(sim)
        net.nics["n1"].down = True
        proc = sim.process(wait_for(lambda: net.transfer("n0", "n1", 5000)))
        sim.run()
        assert proc.is_alive and sim.stats.events_processed == 1  # the kick
        assert net.nics["n0"].flows_dropped == 1 and net.flows_completed == 0
        assert_idle(net)


class TestCpuBudget:
    def test_free_core_costs_one_event(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=2, speed=2.0))
        assert events_of(sim, wait_for(lambda: cpu.consume(1.0))) == 1  # the service time
        assert sim.now == 0.5 and cpu.busy_time == 0.5
        assert cpu.cores.in_use == 0

    def test_busy_core_queues_fifo_with_one_grant_event_each(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1, speed=1.0))
        finished = []

        def job(tag):
            yield cpu.consume(1.0)
            finished.append((tag, sim.now))

        before = sim.stats.events_processed
        for tag in "abc":
            sim.process(job(tag))
        sim.run()
        assert finished == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        # Per job: kick and service; its end fires in place.  The event
        # that grants b and c the core is their service event, scheduled
        # by the job releasing it.
        assert sim.stats.events_processed - before == 3 * 2
        assert cpu.cores.high_water == 1

    def test_interrupt_while_queued_withdraws_without_leak(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1, speed=1.0))
        log = []

        def job(tag):
            try:
                yield cpu.consume(1.0)
                log.append((tag, sim.now))
            except Interrupt:
                log.append((tag, "interrupted"))

        sim.process(job("a"))
        queued = sim.process(job("b"))
        sim.process(job("c"))

        def canceller():
            yield sim.timeout(0.5)
            assert cpu.cores.queue_len == 2
            queued.interrupt()
            assert cpu.cores.queue_len == 1

        sim.process(canceller())
        sim.run()
        assert log == [("b", "interrupted"), ("a", 1.0), ("c", 2.0)]
        assert cpu.cores.in_use == 0 and cpu.cores.queue_len == 0
        assert cpu.busy_time == 2.0

    def test_interrupt_in_service_releases_the_core_once_and_charges_nothing(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1, speed=1.0))
        log = []

        def job(tag):
            try:
                yield cpu.consume(1.0)
                log.append((tag, sim.now))
            except Interrupt:
                log.append((tag, "interrupted", sim.now))

        serving = sim.process(job("a"))
        sim.process(job("b"))

        def canceller():
            yield sim.timeout(0.25)
            assert cpu.cores.in_use == 1 and cpu.cores.queue_len == 1
            serving.interrupt()
            # The core went straight to b: released once, granted once.
            assert cpu.cores.in_use == 1 and cpu.cores.queue_len == 0

        sim.process(canceller())
        sim.run()
        assert log == [("a", "interrupted", 0.25), ("b", 1.25)]
        assert cpu.cores.in_use == 0
        assert cpu.busy_time == 1.0  # b's second; a's quarter is not charged


class TestFifoGrantBudget:
    """A FIFO grant never costs an event of its own; a pipe grant does
    unless its caller is a tail and nothing else is due (TestTailRule in
    test_engine_edge.py)."""

    def test_free_acquire_is_already_fired_and_costs_nothing(self):
        sim = Simulator()
        res = Resource(sim, 2)
        ev = res.acquire()
        assert ev.processed and ev.value == 1 and res.in_use == 1
        assert sim.stats.events_scheduled == 0

        def user():
            got = yield res.acquire()
            assert got == 1 and res.in_use == 2
            res.release()

        assert events_of(sim, user()) == 0

    def test_free_acquire_with_hold_is_one_heap_event_at_the_end_of_service(self):
        sim = Simulator()
        res = Resource(sim, 1)

        def user():
            yield sim.timeout(1.0)
            assert (yield res.serve(0.5)) == 1
            # The unit went back in the fire path, before this resumed.
            assert sim.now == 1.5 and res.in_use == 0

        with event_census.recording() as rec:
            assert events_of(sim, user()) == 2  # the timeout and the hold
        assert rec.count("delay") == 2
        assert sim.now == 1.5 and res.in_use == 0

    def test_queued_hold_waiters_finish_back_to_back_in_arrival_order(self):
        sim = Simulator()
        res = Resource(sim, 1)
        finished = []

        def user(tag, hold):
            yield res.serve(hold)
            finished.append((tag, sim.now))

        before = sim.stats.events_processed
        for tag, hold in [("a", 0.5), ("b", 0.25), ("c", 1.0), ("d", 0.125)]:
            sim.process(user(tag, hold))
        sim.run()
        assert finished == [("a", 0.5), ("b", 0.75), ("c", 1.75), ("d", 1.875)]
        assert sim.stats.events_processed - before == 4 * 2  # kick, hold; the end in place
        assert res.in_use == 0 and res.high_water == 1

    def test_free_try_acquire_builds_no_event_and_yields_nothing(self, monkeypatch):
        sim = Simulator()
        res = Resource(sim, 2)

        def user():
            # The idiom: claimed in place, so the process runs straight on.
            if not res.try_acquire():
                yield res.acquire()
            assert res.in_use == 1 and res.high_water == 1
            res.release()
            yield sim.timeout(1.0)

        built = []
        init = Event.__init__

        def counted(self, sim):
            built.append(type(self).__name__)
            init(self, sim)

        monkeypatch.setattr(Event, "__init__", counted)
        assert events_of(sim, user()) == 1  # the timeout
        assert built == ["Process", "Event"] and res.in_use == 0

    def test_try_acquire_refuses_a_busy_or_queued_pool_and_a_bad_count(self):
        sim = Simulator()
        res = Resource(sim, 2)
        assert res.try_acquire(2)
        assert not res.try_acquire()
        waiter = res.acquire()
        res.release()  # one unit back: it goes to the waiter
        assert waiter.triggered and res.in_use == 2
        res.release()
        queued = res.acquire(2)  # waits behind the unit still held
        assert not res.try_acquire()  # free unit, but someone queues
        assert not queued.triggered
        for bad in (0, 3):
            assert not res.try_acquire(bad)
            with pytest.raises(ValueError):
                res.acquire(bad)

    def test_free_random_pipe_acquire_still_costs_its_grant_event(self):
        sim = Simulator()
        pipe = Pipe(sim)
        got = []
        with event_census.recording() as rec:
            pipe.serve(0.5, got.append, "mine")
            # Held at once, served a hop later: the grant is a queued call.
            assert pipe.in_use == 1 and got == []
            assert sim.stats.events_scheduled == 1
            sim.run()
        assert got == ["mine"] and rec.count("delay") == 1 and sim.now == 0.5
        assert sim.stats.events_processed == 2


class TestSpawnBudget:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_n_legs_that_wait_once_cost_n_plus_one_events(self, n):
        """One event per leg's wait: no start kicks, and the join, which
        the last leg completes alone in its instant, fires in place."""
        sim = Simulator()
        started = []

        def leg(i):
            started.append((i, sim.now))
            yield sim.timeout(1.0 + i)
            return i * i

        def parent():
            join = sim.spawn(*(leg(i) for i in range(n)))
            # Every leg has run its first segment in this very stack.
            assert started == [(i, 0.0) for i in range(n)]
            return (yield join)

        before = sim.stats.events_processed
        proc = sim.process(parent())
        sim.run()
        assert sim.stats.events_processed - before == 1 + n  # and the kick
        # Return values in spawn order, whatever order the legs ended in.
        assert proc.value == tuple(i * i for i in range(n))

    def test_join_value_is_in_spawn_order_not_completion_order(self):
        sim = Simulator()

        def leg(tag, delay):
            yield sim.timeout(delay)
            return tag

        def parent():
            return (yield sim.spawn(leg("slow", 3.0), leg("fast", 1.0), leg("mid", 2.0)))

        proc = sim.process(parent())
        sim.run()
        assert proc.value == ("slow", "fast", "mid") and sim.now == 3.0

    def test_a_leg_that_never_yields_settles_the_join(self):
        sim = Simulator()

        def instant(tag):
            return tag
            yield  # pragma: no cover

        def waits():
            yield sim.timeout(1.0)
            return "waited"

        def parent():
            alone = yield sim.spawn(instant("only"))
            mixed = yield sim.spawn(instant("a"), waits(), instant("b"))
            empty = yield sim.spawn()
            return alone, mixed, empty

        proc = sim.process(parent())
        sim.run()
        assert proc.value == (("only",), ("a", "waited", "b"), ())

    def test_a_leg_that_raises_in_its_first_segment_fails_the_join(self):
        sim = Simulator()
        ran = []

        def broken():
            raise RuntimeError("first segment")
            yield  # pragma: no cover

        def sibling():
            yield sim.timeout(1.0)
            ran.append(sim.now)

        def parent():
            try:
                yield sim.spawn(broken(), sibling())
            except RuntimeError as exc:
                return str(exc), sim.now

        proc = sim.process(parent())
        sim.run()
        # The failure reaches the joiner at once; the sibling runs on.
        assert proc.value == ("first segment", 0.0) and ran == [1.0]


class TestSpawnEventLegs:
    """A leg that is already an event gets the join's callback, no task."""

    def test_event_legs_cost_their_own_event_and_the_join_no_more(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=4, speed=1.0))

        def parent():
            return (yield sim.spawn(cpu.consume(3.0), sim.timeout(1.0, "t"), cpu.consume(2.0)))

        proc = sim.process(parent())
        sim.run()
        assert proc.value == (1, "t", 1) and sim.now == 3.0
        # The kick and the legs' own events: the join and the end fire
        # in place.
        assert sim.stats.events_processed == 1 + 3

    def test_values_come_in_spawn_order_with_generator_and_event_legs_mixed(self):
        sim = Simulator()
        net = make_net(sim)
        started = []

        def leg(tag, delay):
            started.append(tag)
            yield sim.timeout(delay)
            return tag

        landed = []

        def parent():
            wire = net.transfer("n0", "n1", 500)
            wire.add_callback(lambda _ev: landed.append(sim.now))
            join = sim.spawn(
                leg("slow", 3.0), sim.timeout(2.0, "event"), leg("fast", 1.0), wire,
            )
            assert started == ["slow", "fast"]  # generator legs ran their first segment
            return (yield join)

        proc = sim.process(parent())
        sim.run()
        assert list(proc.value) == ["slow", "event", "fast", None]
        assert landed == [pytest.approx(LATENCY + 2 * 500 / BW)]

    def test_an_already_fired_leg_counts_at_once(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1, speed=1.0))
        done = sim.timeout(0.0, "early")
        sim.run()
        assert done.processed

        def parent():
            only = yield sim.spawn(done, cpu.consume(0))
            mixed = yield sim.spawn(done, sim.timeout(1.0, "late"))
            return only, mixed

        before = sim.stats.events_processed
        proc = sim.process(parent())
        sim.run()
        assert proc.value == (("early", None), ("early", "late"))
        # Kick, the first join (both legs had fired: the builder queues
        # it) and the timeout; the second join and the end fire in place.
        assert sim.stats.events_processed - before == 3

    def test_a_failing_event_leg_fails_the_join_once(self):
        sim = Simulator()
        first, second = Event(sim), Event(sim)
        seen = []

        def parent():
            try:
                yield sim.spawn(first, sim.timeout(5.0), second)
            except RuntimeError as exc:
                seen.append((str(exc), sim.now))
            yield sim.timeout(10.0)

        sim.process(parent())
        sim.call_later(1.0, lambda _: first.fail(RuntimeError("first")))
        sim.call_later(2.0, lambda _: second.fail(RuntimeError("second")))
        sim.run()  # the second failure has no observer left and is defused
        assert seen == [("first", 1.0)] and sim.now == 11.0

    def test_interrupting_the_joiner_leaves_event_legs_running(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1, speed=1.0))

        def parent():
            try:
                yield sim.spawn(cpu.consume(2.0), cpu.consume(1.0))
            except Interrupt:
                return "interrupted"

        proc = sim.process(parent())
        sim.run(until=0.5)
        proc.interrupt()
        sim.run()
        # Nothing interrupts a leg: both charges ran to their ends.
        assert proc.value == "interrupted" and sim.now == 3.0
        assert cpu.busy_time == 3.0 and cpu.cores.in_use == 0


class TestRpcBudget:
    @staticmethod
    def _ping_pairs(n):
        """``n`` client/server node pairs on one network; returns
        ``(sim, net, [(client, server), ...])``."""
        sim = Simulator()
        net = Network(sim, latency=LATENCY, per_message_bytes=120)
        costs = rpc.RpcCosts(client_per_call=20e-6, server_per_call=25e-6)

        def ping(args, payload):
            return "pong", None
            yield  # pragma: no cover

        pairs = []
        cpu = CpuSpec(cores=2, speed=1.0)
        for i in range(n):
            client, server_node = (
                Node(sim, NodeSpec(name=f"{role}{i}", cpu=cpu, nic_bw=BW), net) for role in "cs"
            )
            server = rpc.RpcServer(sim, server_node, f"svc{i}", costs, threads=8)
            server.register("ping", ping)
            pairs.append((client, server))
        return sim, net, pairs

    def test_header_only_rpc_to_idle_server_costs_fourteen_events(self):
        """Eight physical delays (client CPU, then latency / tx service /
        rx service each way, server CPU between) are eight queue entries,
        and alone that is all of it: the four pipe grants and the two
        message completions run in place at the tail of those entries
        (fourteen is the count beside a twin, below).  The free cores
        and worker thread cost nothing — pre-fired FIFO grants and
        inline spawn legs touch neither the pipes nor a physical delay."""
        sim, net, [(client, server)] = self._ping_pairs(1)
        with event_census.recording() as rec:
            assert events_of(sim, rpc.call(client, server, "ping")) == 8
        assert rec.count("delay") == 8
        request = (rpc.HEADER_BYTES + rpc.ARGS_BYTES + 120) / BW
        reply = (rpc.HEADER_BYTES + 120) / BW
        assert sim.now == pytest.approx(
            20e-6 + LATENCY + 2 * request + 25e-6 + LATENCY + 2 * reply, rel=1e-12
        )
        assert server.calls_served == 1
        assert server.threads.in_use == 0 and server.threads.high_water == 1
        assert_idle(net)

    def test_header_only_rpcs_in_lockstep_still_cost_fourteen_events_each(self):
        """Two clients calling two servers in the same instants: each
        message is due beside its twin at every grant and completion,
        so the six zero-delay entries per RPC stay queue entries."""
        sim, net, pairs = self._ping_pairs(2)
        before = sim.stats.events_processed
        with event_census.recording() as rec:
            procs = [
                sim.process(rpc.call(client, server, "ping"))
                for client, server in pairs
            ]
            sim.run()
        assert all(p.processed and p.ok for p in procs)
        assert sim.stats.events_processed - before - 2 * 2 == 2 * 14
        assert rec.count("delay") == 2 * 8
        request = (rpc.HEADER_BYTES + rpc.ARGS_BYTES + 120) / BW
        reply = (rpc.HEADER_BYTES + 120) / BW
        assert sim.now == pytest.approx(
            20e-6 + LATENCY + 2 * request + 25e-6 + LATENCY + 2 * reply, rel=1e-12
        )
        assert_idle(net)


# -- flow invariants over random flow sets -----------------------------------

@st.composite
def flow_sets(draw):
    n_nodes = 4
    pattern = draw(st.sampled_from(["incast", "fanout", "mixed"]))
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        if pattern == "incast":
            src, dst = draw(st.integers(1, n_nodes - 1)), 0
        elif pattern == "fanout":
            src, dst = 0, draw(st.integers(1, n_nodes - 1))
        else:
            src = draw(st.integers(0, n_nodes - 1))
            dst = draw(st.integers(0, n_nodes - 1).filter(lambda d: d != src))
        # Long flows often enough that receivers stall and windows fill.
        chunks = draw(st.one_of(st.integers(0, 10), st.just(10)))
        tail = draw(st.integers(0, CHUNK - 1)) if chunks < 10 else 0
        # Starts staggered on a half-chunk-time grid, so ties are common.
        start = draw(st.integers(0, 12)) * (CHUNK / BW / 2)
        flows.append((start, f"n{src}", f"n{dst}", chunks * CHUNK + tail))
    fault = draw(
        st.one_of(
            st.none(),
            st.tuples(st.just("drop"), st.integers(0, n_nodes - 1), st.just(0.5)),
            st.tuples(
                st.just("down"), st.integers(0, n_nodes - 1),
                st.integers(0, 12).map(lambda i: i * (CHUNK / BW / 2)),
            ),
        )
    )
    return flows, fault


def run_flow_set(flows, fault, monkeypatch):
    """One run with every pipe and flow watched; returns its outcome."""
    sim = Simulator(seed=7)
    net = make_net(sim, latency=0.0)
    acquire, release = Resource.acquire, Resource.release

    # The NIC pipes are the only resources this simulation has.
    def checked_acquire(self, units=1):
        ev = acquire(self, units)
        assert self.in_use <= 1
        return ev

    def checked_release(self, units=1):
        release(self, units)
        assert 0 <= self.in_use <= 1

    tx_served = network_mod._WireFlow._tx_served

    def checked_tx_served(self, ev):
        tx_served(self, ev)
        assert self.live <= FLOW_WINDOW + 1

    monkeypatch.setattr(Resource, "acquire", checked_acquire)
    monkeypatch.setattr(Resource, "release", checked_release)
    monkeypatch.setattr(network_mod._WireFlow, "_tx_served", checked_tx_served)

    finished = {}

    def sender(i, start, src, dst, nbytes):
        yield sim.timeout(start)
        yield net.transfer(src, dst, nbytes)
        finished[i] = sim.now

    if fault is not None and fault[0] == "drop":
        net.nics[f"n{fault[1]}"].drop_prob = fault[2]
    for i, spec in enumerate(flows):
        sim.process(sender(i, *spec))
    if fault is not None and fault[0] == "down":
        def kill():
            yield sim.timeout(fault[2])
            net.nics[f"n{fault[1]}"].down = True

        sim.process(kill())
    sim.run()

    nics = list(net.nics.values())
    moved = sum(flows[i][3] for i in finished)
    assert sum(n.tx_bytes for n in nics) == moved
    assert sum(n.rx_bytes for n in nics) == moved
    assert net.flows_completed == len(finished) == net.flows_chunked
    lost = sum(n.flows_dropped for n in nics)
    assert len(finished) + lost == len(flows)
    if fault is None:
        assert lost == 0
    assert_idle(net)
    counters = [(n.tx_bytes, n.rx_bytes, n.loopback_bytes, n.flows_dropped) for n in nics]
    return finished, sim.stats.events_processed, counters


@settings(max_examples=60, deadline=None, derandomize=True)
@given(flow_sets())
def test_flow_invariants_hold_and_replays_are_identical(spec):
    flows, fault = spec
    with pytest.MonkeyPatch.context() as mp:
        first = run_flow_set(flows, fault, mp)
        assert run_flow_set(flows, fault, mp) == first


# -- interrupted waiter ---------------------------------------------------------

def test_interrupted_waiter_leaves_the_flow_running():
    """The pipes belong to the flow, not to the waiting generator: an
    interrupt (an RPC retry timer) detaches the waiter and nothing else."""
    nbytes = 6 * CHUNK

    def run(interrupt_at):
        sim = Simulator()
        net = make_net(sim)
        outcome = []

        def waiter():
            try:
                yield net.transfer("n0", "n1", nbytes)
                outcome.append(("done", sim.now))
            except Interrupt:
                outcome.append(("interrupted", sim.now))

        proc = sim.process(waiter())
        # A second flow queues behind the first on both pipes: it sees
        # the first one's holds end exactly when they would have anyway.
        def follow():
            yield net.transfer("n0", "n1", 2 * CHUNK)
            return sim.now

        follower = sim.process(follow())
        if interrupt_at is not None:
            def timer():
                yield sim.timeout(interrupt_at)
                proc.interrupt("rpc timeout")

            sim.process(timer())
        sim.run()
        assert_idle(net)
        return outcome, follower.value, net.flows_completed, net.nics["n1"].rx_bytes, sim.now

    undisturbed = run(None)
    interrupted = run(LATENCY + 1.5 * CHUNK / BW)
    assert undisturbed[0][0][0] == "done"
    assert interrupted[0] == [("interrupted", LATENCY + 1.5 * CHUNK / BW)]
    assert interrupted[1:] == undisturbed[1:]
    assert interrupted[2] == 2 and interrupted[3] == nbytes + 2 * CHUNK
