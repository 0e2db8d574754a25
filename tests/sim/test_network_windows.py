"""Store-and-forward and per-flow window semantics of the network."""

import pytest

from repro.sim import Network, Simulator
from repro.sim.network import FLOW_WINDOW, PER_MESSAGE_BYTES


def make_net(sim, n=4, bw=100e6):
    net = Network(sim, latency=0)
    for i in range(n):
        net.add_nic(f"n{i}", bw)
    return net


class TestStoreAndForward:
    def test_small_message_crosses_two_pipes(self):
        sim = Simulator()
        net = make_net(sim, bw=1e6)

        def xfer():
            yield net.transfer("n0", "n1", 1000)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        assert p.value == pytest.approx(2 * (1000 + PER_MESSAGE_BYTES) / 1e6, rel=1e-12)

    def test_large_flow_pipelines_to_full_bandwidth(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6)
        size = 50_000_000

        def xfer():
            yield net.transfer("n0", "n1", size)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        ideal = size / 100e6
        # pipelined: only ~one extra chunk-time of fill
        assert p.value <= ideal * 1.03

    def test_busy_receiver_does_not_block_sender_for_others(self):
        """Head-of-line freedom: while n2 is saturated by n1, a flow
        n0->n3 through the idle pair must proceed at full speed even
        if n0 also has a flow to the busy n2."""
        sim = Simulator()
        net = make_net(sim, bw=100e6)
        done = {}

        def xfer(tag, src, dst, size):
            yield net.transfer(src, dst, size)
            done[tag] = sim.now

        sim.process(xfer("hog", "n1", "n2", 100_000_000))
        sim.process(xfer("contended", "n0", "n2", 100_000_000))
        sim.process(xfer("free", "n0", "n3", 50_000_000))
        sim.run()
        # The free flow shares only n0's tx with the contended flow:
        # ~1.0s for 50 MB at a half-shared 100 MB/s pipe, far less than
        # the ~2s the n2 receivers need.
        assert done["free"] < 1.4
        assert done["hog"] >= 1.9

    def test_window_bounds_outstanding_chunks(self):
        """A flow cannot run unboundedly ahead of a stalled receiver:
        its tx occupancy is limited to the window."""
        sim = Simulator()
        net = make_net(sim, bw=100e6)

        # Saturate n2's rx with a competing flow so our flow's rx legs
        # stall; the sender should then stop after ~FLOW_WINDOW chunks
        # rather than monopolising its tx pipe.
        def hog():
            yield net.transfer("n1", "n2", 200_000_000)

        progress = {}

        def windowed():
            yield net.transfer("n0", "n2", 50_000_000)
            progress["done"] = sim.now

        def prober():
            # n0's tx should be mostly idle while the windowed flow is
            # stalled on n2: a probe transfer through n0 finishes fast.
            yield sim.timeout(0.5)
            t0 = sim.now
            yield net.transfer("n0", "n3", 10_000_000)
            progress["probe"] = sim.now - t0

        sim.process(hog())
        sim.process(windowed())
        sim.process(prober())
        sim.run()
        assert progress["probe"] < 0.25  # ~0.1s unimpeded
        assert FLOW_WINDOW >= 1


class TestRandomArbitrationFairness:
    def test_many_flows_complete_within_spread(self):
        """Randomised grants are fair enough: equal flows into one sink
        finish within a modest spread of each other."""
        sim = Simulator()
        net = Network(sim, latency=0)
        net.add_nic("sink", 100e6)
        n = 6
        for i in range(n):
            net.add_nic(f"s{i}", 100e6)
        ends = []

        def xfer(i):
            yield net.transfer(f"s{i}", "sink", 20_000_000)
            ends.append(sim.now)

        for i in range(n):
            sim.process(xfer(i))
        sim.run()
        ideal = n * 20_000_000 / 100e6
        assert max(ends) == pytest.approx(ideal, rel=0.05)
        assert min(ends) > ideal * 0.5  # nobody starved or raced ahead 2x
