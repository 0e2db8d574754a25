"""Network model tests: bandwidth, sharing, latency, loopback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Network, Simulator


def make_net(sim, n=4, bw=100e6, latency=0.0, per_message_bytes=0):
    net = Network(sim, latency=latency, per_message_bytes=per_message_bytes)
    for i in range(n):
        net.add_nic(f"n{i}", bw)
    return net


class TestSingleFlow:
    def test_uncontended_flow_gets_full_bandwidth(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6)

        def xfer():
            yield net.transfer("n0", "n1", 100_000_000)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_latency_charged_once(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6, latency=0.5)

        def xfer():
            yield net.transfer("n0", "n1", 1000)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        assert 0.5 < p.value < 0.51

    def test_mismatched_bandwidths_use_minimum(self):
        sim = Simulator()
        net = Network(sim, latency=0, per_message_bytes=0)
        net.add_nic("fast", 100e6)
        net.add_nic("slow", 10e6)

        def xfer():
            yield net.transfer("fast", "slow", 10_000_000)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_loopback_is_free_on_the_wire(self):
        sim = Simulator()
        net = make_net(sim)

        def xfer():
            yield net.transfer("n0", "n0", 10**9)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        assert p.value == 0.0

    def test_per_message_overhead_adds_bytes(self):
        sim = Simulator()
        net = make_net(sim, bw=1e6, per_message_bytes=1000)

        def xfer():
            yield net.transfer("n0", "n1", 0)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        # Store-and-forward: the 1000-byte frame crosses tx then rx.
        assert p.value == pytest.approx(0.002, rel=0.01)

    def test_negative_size_rejected(self):
        sim = Simulator()
        net = make_net(sim)
        with pytest.raises(ValueError):
            net.transfer("n0", "n1", -1)

    def test_unknown_nic_rejected(self):
        sim = Simulator()
        net = make_net(sim, n=1)
        with pytest.raises(KeyError, match="no NIC registered for node 'ghost'"):
            net.transfer("n0", "ghost", 1)
        with pytest.raises(KeyError, match="no NIC registered for node 'ghost'"):
            net.transfer("ghost", "n0", 1)

    def test_duplicate_nic_rejected(self):
        sim = Simulator()
        net = make_net(sim, n=1)
        with pytest.raises(ValueError):
            net.add_nic("n0", 1e6)


class TestSharing:
    def test_two_flows_into_one_receiver_halve_throughput(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6)
        done = []

        def xfer(src):
            yield net.transfer(src, "n2", 100_000_000)
            done.append(sim.now)

        sim.process(xfer("n0"))
        sim.process(xfer("n1"))
        sim.run()
        # 200 MB through a 100 MB/s rx pipe: both finish ≈ 2 s.
        assert max(done) == pytest.approx(2.0, rel=0.02)

    def test_two_flows_out_of_one_sender_halve_throughput(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6)
        done = []

        def xfer(dst):
            yield net.transfer("n0", dst, 50_000_000)
            done.append(sim.now)

        sim.process(xfer("n1"))
        sim.process(xfer("n2"))
        sim.run()
        assert max(done) == pytest.approx(1.0, rel=0.02)

    def test_disjoint_flows_do_not_interfere(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6)
        done = []

        def xfer(src, dst):
            yield net.transfer(src, dst, 100_000_000)
            done.append(sim.now)

        sim.process(xfer("n0", "n1"))
        sim.process(xfer("n2", "n3"))
        sim.run()
        assert max(done) == pytest.approx(1.0, rel=0.02)

    def test_full_duplex_tx_and_rx_independent(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6)
        done = []

        def xfer(src, dst):
            yield net.transfer(src, dst, 100_000_000)
            done.append(sim.now)

        # n0 sends to n1 while receiving from n1: full duplex, no slowdown.
        sim.process(xfer("n0", "n1"))
        sim.process(xfer("n1", "n0"))
        sim.run()
        assert max(done) == pytest.approx(1.0, rel=0.02)

    def test_incast_n_to_one_scales_as_n(self):
        sim = Simulator()
        net = Network(sim, latency=0, per_message_bytes=0)
        for i in range(5):
            net.add_nic(f"n{i}", 100e6)
        done = []

        def xfer(src):
            yield net.transfer(src, "n4", 25_000_000)
            done.append(sim.now)

        for i in range(4):
            sim.process(xfer(f"n{i}"))
        sim.run()
        assert max(done) == pytest.approx(1.0, rel=0.02)

    @given(
        sizes=st.lists(st.integers(10_000, 5_000_000), min_size=1, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_makespan_bounded_by_serial_and_ideal(self, sizes):
        """Shared-receiver makespan lies between ideal and fully serial."""
        bw = 100e6
        sim = Simulator()
        net = Network(sim, latency=0, per_message_bytes=0)
        net.add_nic("dst", bw)
        for i in range(len(sizes)):
            net.add_nic(f"s{i}", bw)

        def xfer(i, size):
            yield net.transfer(f"s{i}", "dst", size)

        for i, size in enumerate(sizes):
            sim.process(xfer(i, size))
        sim.run()
        ideal = sum(sizes) / bw
        assert sim.now >= ideal * 0.999
        # Chunked interleaving should never be slower than serial + slack.
        assert sim.now <= ideal * 1.05 + len(sizes) * (net.chunk_bytes / bw)

    def test_accounting_tracks_bytes(self):
        sim = Simulator()
        net = make_net(sim, per_message_bytes=0)

        def xfer():
            yield net.transfer("n0", "n1", 1234)

        sim.process(xfer())
        sim.run()
        assert net.nics["n0"].tx_bytes == 1234
        assert net.nics["n1"].rx_bytes == 1234
        assert net.flows_completed == 1


class TestByteAccounting:
    """Regression: counters must be uniform — payload bytes only, with
    loopback tallied separately (it never touches the wire)."""

    def test_wire_counters_exclude_framing(self):
        sim = Simulator()
        net = make_net(sim, bw=100e6, per_message_bytes=120)

        def xfer():
            yield net.transfer("n0", "n1", 10_000)

        sim.process(xfer())
        sim.run()
        # Framing used to leak into the counters (10_120 here).
        assert net.nics["n0"].tx_bytes == 10_000
        assert net.nics["n1"].rx_bytes == 10_000
        assert net.flows_completed == 1

    def test_framing_still_costs_wire_time(self):
        sim = Simulator()
        bare = make_net(sim, bw=100e6, per_message_bytes=0)
        framed = Network(sim, latency=0.0, per_message_bytes=100_000)
        framed.add_nic("a", 100e6)
        framed.add_nic("b", 100e6)

        times = {}

        def xfer(net, key):
            t0 = sim.now
            yield net.transfer(*(("n0", "n1") if key == "bare" else ("a", "b")), 1_000_000)
            times[key] = sim.now - t0

        sim.process(xfer(bare, "bare"))
        sim.process(xfer(framed, "framed"))
        sim.run()
        assert times["framed"] > times["bare"]

    def test_loopback_counted_separately(self):
        sim = Simulator()
        net = make_net(sim, per_message_bytes=120)

        def xfer():
            yield net.transfer("n0", "n0", 5_000)

        sim.process(xfer())
        sim.run()
        nic = net.nics["n0"]
        assert nic.loopback_bytes == 5_000
        assert nic.tx_bytes == 0 and nic.rx_bytes == 0
        assert net.flows_completed == 1
