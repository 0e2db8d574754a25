"""A wire message is constant, small host work — asserted by count, not time.

``profile_calls`` counts every Python and C call the simulator makes
while one process sends 1 000 sub-chunk messages back to back between
two NICs.  Alone on the wire each costs its three physical delays as
queue entries (latency, two service times): the two grants and the
completion run in place at the tail of those entries.  Two senders in
lockstep pay all six (each is due in the instant of the other's grants
and completion), every hop but the completion a bare call.  Either way
the only ``Event`` a message allocates is the ``done`` its sender waits
on.  When every hop was a single-waiter ``Timeout`` or grant event a
message took 79 calls, and 44 while a one-chunk message still ran the
multi-chunk flow's windowing; the bounds fail if that machinery (or a
relay per hop) comes back, on any machine.

A CPU charge is pinned the same way: one queue entry, one object (its
event), and — since ``Cpu.consume`` returns that event instead of being
a generator that yields it — no generator frame of the simulator's own
entered while 1 000 of them run.

So is an idle RPC: its eight queue entries (two CPU charges and two
three-entry messages), and a free worker thread claimed without an
event or a resume of the caller's generator chain.
"""

import inspect
import os

from repro import rpc
from repro.sim import Cpu, CpuSpec, Network, Node, NodeSpec, Simulator
from repro.sim.engine import Event

from tests.conftest import drive, profile_calls

#: The simulator's own code: a generator entered in here is the kernel's.
SIM_DIR = os.path.dirname(inspect.getfile(Simulator)) + os.sep
MESSAGES = 1000
NBYTES = 200
#: A queue entry costs one ``heappush`` and one ``len`` (the peak); its
#: sequence number is a counter, not a call.
MAX_CALLS_PER_MESSAGE = 33  # measured 32.023; 44.025 through the multi-chunk flow
#: 47.022 while the completion asked ``nothing_else_due()`` itself.
MAX_CALLS_PER_TWIN_MESSAGE = 47  # measured 46.023: the six entries and two refused grant checks
CHARGES = 1000
MAX_CALLS_PER_CHARGE = 16  # measured 15.021
RPCS = 1000
#: 139.025 while a one-chunk message ran the flow's windowing and a free
#: worker thread was a pre-fired grant the caller's generators resumed on.
MAX_CALLS_PER_IDLE_RPC = 111  # measured 110.023


def _profiled(sim, processes):
    """Run ``processes`` (generators) under a call counter; returns
    ``(calls made, Events built)``."""
    procs = []

    def run():
        procs.extend([sim.process(gen) for gen in processes])
        sim.run()

    calls, entered = profile_calls(run)
    assert all(proc.processed and proc.ok for proc in procs)
    return calls, entered[Event.__init__.__code__]


def _profiled_senders(pairs):
    """One sender per ``(src, dst)`` pair, started together; returns
    ``(sim, net, calls made, Events built)``."""
    sim = Simulator()
    net = Network(sim)
    for name in {name for pair in pairs for name in pair}:
        net.add_nic(name, 125e6)

    def sender(src, dst):
        for _ in range(MESSAGES):
            yield net.transfer(src, dst, NBYTES)

    calls, events_built = _profiled(sim, [sender(src, dst) for src, dst in pairs])
    return sim, net, calls, events_built


def test_a_message_is_six_events_one_allocated_and_at_most_sixty_calls():
    """Alone: three entries, at most 33 calls (the id keeps the counts
    of a wire whose grants and completions always hopped)."""
    sim, net, calls, events_built = _profiled_senders([("a", "b")])
    assert net.flows_chunked == MESSAGES and net.nics["b"].rx_bytes == MESSAGES * NBYTES
    # The sending process is an event too, and costs a kick; its end,
    # alone in its instant, fires in place.
    assert sim.stats.events_processed == 3 * MESSAGES + 1
    assert events_built == MESSAGES + 1
    assert calls <= MAX_CALLS_PER_MESSAGE * MESSAGES, calls / MESSAGES


def test_a_message_beside_a_twin_is_still_six_events_and_one_allocated():
    sim, net, calls, events_built = _profiled_senders([("a", "b"), ("c", "d")])
    assert net.flows_chunked == 2 * MESSAGES
    assert net.nics["b"].rx_bytes == net.nics["d"].rx_bytes == MESSAGES * NBYTES
    assert sim.stats.events_processed == 6 * 2 * MESSAGES + 2 * 2
    assert events_built == 2 * MESSAGES + 2
    assert calls <= MAX_CALLS_PER_TWIN_MESSAGE * 2 * MESSAGES, calls / (2 * MESSAGES)


def test_a_cpu_charge_is_one_event_one_object_and_no_generator_frame():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(cores=1, speed=2.0))

    def worker():
        for _ in range(CHARGES):
            yield cpu.consume(1e-3)

    calls, entered = profile_calls(drive, sim, worker())
    events_built = entered[Event.__init__.__code__]
    kernel_generator_frames = sum(
        n
        for code, n in entered.items()
        if code.co_flags & inspect.CO_GENERATOR and code.co_filename.startswith(SIM_DIR)
    )

    assert cpu.busy_time == sum([5e-4] * CHARGES) and cpu.cores.in_use == 0
    # One queue entry per charge, plus the worker's kick (its end fires
    # in place).
    assert sim.stats.events_processed == CHARGES + 1
    assert events_built == CHARGES + 1
    assert kernel_generator_frames == 0
    assert calls <= MAX_CALLS_PER_CHARGE * CHARGES, calls / CHARGES


def test_an_idle_rpc_is_eight_events_and_its_free_thread_no_grant():
    """One client, a server nobody else uses, no payload either way."""
    sim = Simulator()
    net = Network(sim)
    server_node = Node(sim, NodeSpec(name="s", cpu=CpuSpec(cores=2, speed=1.3), nic_bw=117e6), net)
    client = Node(sim, NodeSpec(name="c", cpu=CpuSpec(cores=2, speed=1.0), nic_bw=117e6), net)
    server = rpc.RpcServer(sim, server_node, "svc", rpc.RpcCosts())

    def noop(args, payload):
        return None, None
        yield  # pragma: no cover

    server.register("noop", noop)

    def caller():
        for _ in range(RPCS):
            yield from rpc.call(client, server, "noop")

    calls, events_built = _profiled(sim, [caller()])
    assert server.calls_served == RPCS and server.threads.in_use == 0
    # Client charge, request (latency, tx, rx), server charge, reply; and
    # the caller's kick.
    assert sim.stats.events_processed == 8 * RPCS + 1
    assert calls <= MAX_CALLS_PER_IDLE_RPC * RPCS, calls / RPCS
    # The two charges' events and the two messages' ``done``: no ``_Grant``.
    assert events_built == 4 * RPCS + 1
