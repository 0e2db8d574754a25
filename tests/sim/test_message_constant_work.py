"""A wire message is constant, small host work — asserted by count, not time.

``sys.setprofile`` counts every Python and C call the simulator makes
while one process sends 1 000 sub-chunk messages back to back between
two NICs.  Each costs its six queue entries (latency, two grants, two
service times, completion) and every hop but the completion is a bare
call: the only ``Event`` a message allocates is the ``done`` its sender
waits on.  When every hop was a single-waiter ``Timeout`` or grant
event a message took 79 calls; the bound fails if that machinery (or a
relay per hop) comes back, on any machine.
"""

import gc
import sys

from repro.sim import Network, Simulator
from repro.sim.engine import Event

MESSAGES = 1000
NBYTES = 200
MAX_CALLS_PER_MESSAGE = 60


def test_a_message_is_six_events_one_allocated_and_at_most_sixty_calls():
    sim = Simulator()
    net = Network(sim)
    net.add_nic("a", 125e6)
    net.add_nic("b", 125e6)

    def sender():
        for _ in range(MESSAGES):
            yield from net.transfer("a", "b", NBYTES)

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
        proc = sim.process(sender())
        sim.run(until=proc)
    finally:
        sys.setprofile(None)
        gc.enable()

    assert net.flows_chunked == MESSAGES and net.nic("b").rx_bytes == MESSAGES * NBYTES
    # The sending process is an event too, and costs a kick and a completion.
    assert sim.stats.events_processed == 6 * MESSAGES + 2
    assert events_built == MESSAGES + 1
    assert calls <= MAX_CALLS_PER_MESSAGE * MESSAGES, calls / MESSAGES
