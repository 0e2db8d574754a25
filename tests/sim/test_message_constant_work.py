"""A wire message is constant, small host work — asserted by count, not time.

``sys.setprofile`` counts every Python and C call the simulator makes
while one process sends 1 000 sub-chunk messages back to back between
two NICs.  Alone on the wire each costs its three physical delays as
queue entries (latency, two service times): the two grants and the
completion run in place at the tail of those entries.  Two senders in
lockstep pay all six (each is due in the instant of the other's grants
and completion), every hop but the completion a bare call.  Either way
the only ``Event`` a message allocates is the ``done`` its sender waits
on.  When every hop was a single-waiter ``Timeout`` or grant event a
message took 79 calls; the bounds fail if that machinery (or a relay
per hop) comes back, on any machine.

A CPU charge is pinned the same way: one queue entry, one object (its
event), and — since ``Cpu.consume`` returns that event instead of being
a generator that yields it — no generator frame of the simulator's own
entered while 1 000 of them run.
"""

import gc
import sys

import inspect

from repro.sim import Cpu, CpuSpec, Network, Simulator
from repro.sim.engine import Event

MESSAGES = 1000
NBYTES = 200
#: A queue entry costs one ``heappush`` and one ``len`` (the peak); its
#: sequence number is a counter, not a call.
MAX_CALLS_PER_MESSAGE = 46  # measured 45.025; 58.025 while every grant and done hopped
MAX_CALLS_PER_TWIN_MESSAGE = 59  # measured 58.022: the six entries and three refused tail checks
CHARGES = 1000
MAX_CALLS_PER_CHARGE = 16  # measured 15.025


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

    calls = events_built = 0
    event_init = Event.__init__.__code__

    def profiler(frame, event, _arg):
        nonlocal calls, events_built
        if event in ("call", "c_call"):
            calls += 1
            if frame.f_code is event_init and event == "call":
                events_built += 1

    # A cycle collection landing inside the measurement would finalise
    # another simulator's suspended generators under the profiler.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        procs = [sim.process(sender(src, dst)) for src, dst in pairs]
        sim.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert all(proc.processed and proc.ok for proc in procs)
    return sim, net, calls, events_built


def test_a_message_is_six_events_one_allocated_and_at_most_sixty_calls():
    """Alone: three entries, at most 49 calls (the id keeps the counts
    of a wire whose grants and completions always hopped)."""
    sim, net, calls, events_built = _profiled_senders([("a", "b")])
    assert net.flows_chunked == MESSAGES and net.nic("b").rx_bytes == MESSAGES * NBYTES
    # The sending process is an event too, and costs a kick and a completion.
    assert sim.stats.events_processed == 3 * MESSAGES + 2
    assert events_built == MESSAGES + 1
    assert calls <= MAX_CALLS_PER_MESSAGE * MESSAGES, calls / MESSAGES


def test_a_message_beside_a_twin_is_still_six_events_and_one_allocated():
    sim, net, calls, events_built = _profiled_senders([("a", "b"), ("c", "d")])
    assert net.flows_chunked == 2 * MESSAGES
    assert net.nic("b").rx_bytes == net.nic("d").rx_bytes == MESSAGES * NBYTES
    assert sim.stats.events_processed == 6 * 2 * MESSAGES + 2 * 2
    assert events_built == 2 * MESSAGES + 2
    assert calls <= MAX_CALLS_PER_TWIN_MESSAGE * 2 * MESSAGES, calls / (2 * MESSAGES)


def test_a_cpu_charge_is_one_event_one_object_and_no_generator_frame():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(cores=1, speed=2.0))

    def worker():
        for _ in range(CHARGES):
            yield cpu.consume(1e-3)

    calls = events_built = kernel_generator_frames = 0
    event_init = Event.__init__.__code__

    def profiler(frame, event, _arg):
        nonlocal calls, events_built, kernel_generator_frames
        if event in ("call", "c_call"):
            calls += 1
            if event == "call":
                code = frame.f_code
                if code is event_init:
                    events_built += 1
                elif code.co_flags & inspect.CO_GENERATOR and frame.f_globals[
                    "__name__"
                ].startswith("repro.sim"):
                    kernel_generator_frames += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        proc = sim.process(worker())
        sim.run(until=proc)
    finally:
        sys.setprofile(None)
        gc.enable()

    assert cpu.busy_time == sum([5e-4] * CHARGES) and cpu.cores.in_use == 0
    # One queue entry per charge, plus the worker's kick and completion.
    assert sim.stats.events_processed == CHARGES + 2
    assert events_built == CHARGES + 1
    assert kernel_generator_frames == 0
    assert calls <= MAX_CALLS_PER_CHARGE * CHARGES, calls / CHARGES
