"""Tests for disk, CPU, node, and stats models."""

import pytest

from repro.sim import (
    Cpu,
    CpuSpec,
    Disk,
    DiskSpec,
    Network,
    Node,
    NodeSpec,
    Simulator,
)
from repro.sim.resources import Resource


#: A node bus faster than any media rate below: each chunk's bus leg
#: plus its media residual is the media time, so the rates are the disk's.
FAST_BUS = 1e9


class TestDisk:
    def make(self, sim, **kw):
        spec = DiskSpec(
            read_bw=kw.pop("read_bw", 50e6),
            write_bw=kw.pop("write_bw", 25e6),
            positioning=kw.pop("positioning", 0.010),
        )
        return Disk(sim, spec, Resource(sim, 1), FAST_BUS)

    def test_sequential_write_rate(self):
        sim = Simulator()
        disk = self.make(sim, positioning=0.0)

        def io():
            yield from disk.io(0, 25_000_000, write=True)
            return sim.now

        p = sim.process(io())
        sim.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_full_positioning_charged_on_long_jump(self):
        sim = Simulator()
        disk = self.make(sim)

        def io():
            yield from disk.io(0, 0, write=False)
            yield from disk.io(1_000_000_000, 0, write=False)  # far jump
            return sim.now

        p = sim.process(io())
        sim.run()
        assert p.value == pytest.approx(0.020, rel=0.01)

    def test_short_forward_sweep_is_cheap(self):
        sim = Simulator()
        disk = self.make(sim)

        def io():
            yield from disk.io(0, 1000, write=False)
            t_mid = sim.now
            yield from disk.io(51_000, 1000, write=False)  # 50 KB forward gap
            return sim.now - t_mid

        p = sim.process(io())
        sim.run()
        # settle + gap pass-over, far below the 10 ms full positioning
        expected = disk.spec.settle + 50_000 / 50e6 + 1000 / 50e6
        assert p.value == pytest.approx(expected, rel=0.02)

    def test_backward_jump_pays_full_positioning(self):
        sim = Simulator()
        disk = self.make(sim)

        def io():
            yield from disk.io(1_000_000, 1000, write=False)
            t_mid = sim.now
            yield from disk.io(0, 1000, write=False)  # rewind
            return sim.now - t_mid

        p = sim.process(io())
        sim.run()
        assert p.value == pytest.approx(0.010 + 1000 / 50e6, rel=0.02)

    def test_sequential_continuation_skips_positioning(self):
        sim = Simulator()
        disk = self.make(sim)

        def io():
            yield from disk.io(0, 1000, write=True)
            t_mid = sim.now
            yield from disk.io(1000, 1000, write=True)  # continues
            return t_mid, sim.now

        p = sim.process(io())
        sim.run()
        t_mid, t_end = p.value
        xfer = 1000 / 25e6
        assert t_mid == pytest.approx(0.010 + xfer, rel=0.01)
        assert t_end - t_mid == pytest.approx(xfer, rel=0.01)

    def test_arm_serialises_requests(self):
        sim = Simulator()
        disk = self.make(sim, positioning=0.0)
        ends = []

        def io(off):
            yield from disk.io(off, 25_000_000, write=True)
            ends.append(sim.now)

        sim.process(io(0))
        sim.process(io(10**9))
        sim.run()
        assert ends == [pytest.approx(1.0, rel=0.01), pytest.approx(2.0, rel=0.01)]

    def test_two_disks_share_io_bus_ceiling(self):
        """Two disks on a 30 MB/s bus deliver 30, not 2x25, MB/s."""
        sim = Simulator()
        bus = Resource(sim, 1)
        spec = DiskSpec(read_bw=50e6, write_bw=25e6, positioning=0.0)
        d0 = Disk(sim, spec, bus, 30e6)
        d1 = Disk(sim, spec, bus, 30e6)
        ends = []

        def io(disk):
            yield from disk.io(0, 30_000_000, write=True)
            ends.append(sim.now)

        sim.process(io(d0))
        sim.process(io(d1))
        sim.run()
        # 60 MB total through a 30 MB/s bus ≈ 2 s (each disk alone would take 1.2 s).
        assert max(ends) == pytest.approx(2.0, rel=0.05)

    def test_read_and_write_rates_differ(self):
        sim = Simulator()
        disk = self.make(sim, positioning=0.0)

        def io():
            yield from disk.io(0, 50_000_000, write=False)
            t_read = sim.now
            yield from disk.io(0, 50_000_000, write=True)
            return t_read, sim.now - t_read

        p = sim.process(io())
        sim.run()
        t_read, t_write = p.value
        assert t_read == pytest.approx(1.0, rel=0.02)
        assert t_write == pytest.approx(2.0, rel=0.02)

    def test_counters(self):
        sim = Simulator()
        disk = self.make(sim)

        def io():
            yield from disk.io(0, 1000, write=True)
            yield from disk.io(0, 500, write=False)

        sim.process(io())
        sim.run()
        assert disk.write_bytes == 1000
        assert disk.read_bytes == 500
        assert disk.requests == 2

    def test_invalid_args_rejected(self):
        sim = Simulator()
        disk = self.make(sim)
        with pytest.raises(ValueError):
            list(disk.io(-1, 10, write=True))
        with pytest.raises(ValueError):
            DiskSpec(read_bw=0)


class TestCpu:
    def test_work_scaled_by_speed(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1, speed=2.0))

        def work():
            yield cpu.consume(1.0)
            return sim.now

        p = sim.process(work())
        sim.run()
        assert p.value == pytest.approx(0.5)

    def test_cores_run_in_parallel(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=2, speed=1.0))
        ends = []

        def work():
            yield cpu.consume(1.0)
            ends.append(sim.now)

        for _ in range(4):
            sim.process(work())
        sim.run()
        # 4 jobs, 2 cores: finish in two waves at t=1 and t=2.
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_zero_work_is_free(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuSpec(cores=1))

        def work():
            yield cpu.consume(0.0)
            return sim.now

        p = sim.process(work())
        sim.run()
        assert p.value == 0.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            CpuSpec(cores=0)
        with pytest.raises(ValueError):
            CpuSpec(speed=0)


class TestNode:
    def test_node_builds_all_components(self):
        sim = Simulator()
        net = Network(sim)
        spec = NodeSpec(name="s0", disks=(DiskSpec(), DiskSpec()))
        node = Node(sim, spec, net)
        assert node.cpu is not None
        assert len(node.disks) == 2
        assert net.nics["s0"] is node.nic
        assert node.io_bus is not None

    def test_diskless_node_has_no_bus(self):
        sim = Simulator()
        net = Network(sim)
        node = Node(sim, NodeSpec(name="c0"), net)
        assert node.disks == []
        assert node.io_bus is None

    def test_send_between_nodes(self):
        sim = Simulator()
        net = Network(sim, latency=0)
        a = Node(sim, NodeSpec(name="a", nic_bw=10e6), net)
        b = Node(sim, NodeSpec(name="b", nic_bw=10e6), net)

        def xfer():
            yield net.transfer(a.name, b.name, 10_000_000)
            return sim.now

        p = sim.process(xfer())
        sim.run()
        # one extra chunk-time of store-and-forward pipeline fill
        assert p.value == pytest.approx(1.0, rel=0.05)


class TestStats:
    def test_nearest_rank_shared_between_stats_and_tracing(self):
        from repro.sim.stats import nearest_rank
        from repro.obs.rpc_trace import nearest_rank as tracing_nearest_rank

        assert tracing_nearest_rank is nearest_rank
        assert nearest_rank([1, 2, 3, 4], 0.5) == 2
        assert nearest_rank([1, 2, 3, 4], 1.0) == 4
