"""Fault-injector tests: schedules, targets, determinism."""

import pytest

from repro import rpc
from repro.sim import DiskFailed, FaultInjector, Network, Simulator
from repro.sim.faults import FaultInjector as DirectImport  # noqa: F401
from repro.vfs import Payload

from tests.conftest import build_cluster, drive

MB = 1024 * 1024


class TestSchedules:
    def test_actions_fire_at_sim_times(self, cluster):
        sim = cluster.sim
        inj = FaultInjector(sim)
        fired = []
        inj.at(2.0, lambda: fired.append(sim.now), name="late")
        inj.at(1.0, lambda: fired.append(sim.now), name="early")
        sim.run()
        assert fired == [1.0, 2.0]
        assert [(t, n) for t, n in inj.events] == [(1.0, "early"), (2.0, "late")]

    def test_past_schedule_rejected(self, cluster):
        sim = cluster.sim

        def idle():
            yield sim.timeout(5.0)

        sim.process(idle())
        sim.run()
        with pytest.raises(ValueError):
            FaultInjector(sim).at(1.0, lambda: None)

    def test_server_outage_window(self, cluster):
        server = rpc.RpcServer(
            cluster.sim, cluster.storage[0], "svc", rpc.RpcCosts()
        )
        inj = FaultInjector(cluster.sim)
        inj.outage(server, start=1.0, duration=0.5)
        observed = []

        def probe():
            for _ in range(4):
                observed.append((cluster.sim.now, server.up))
                yield cluster.sim.timeout(0.6)

        drive(cluster.sim, probe())
        assert [up for _t, up in observed] == [True, True, False, True]
        assert [t for t, _up in observed] == pytest.approx([0.0, 0.6, 1.2, 1.8])
        assert inj.events == [(1.0, "fail server svc"), (1.5, "restore server svc")]


class TestDiskFaults:
    def test_failed_disk_raises_and_recovers(self, cluster):
        disk = cluster.storage[0].disks[0]
        inj = FaultInjector(cluster.sim)
        inj.fail_disk(disk)

        def io():
            yield from disk.io(0, 4096, write=True)

        with pytest.raises(DiskFailed):
            drive(cluster.sim, io())
        inj.restore_disk(disk)
        drive(cluster.sim, io())
        assert disk.write_bytes == 4096
        assert [what for _t, what in inj.events] == [
            f"fail disk {disk.name}", f"restore disk {disk.name}",
        ]


class TestNicFaults:
    def test_nic_down_loses_flows(self, cluster):
        inj = FaultInjector(cluster.sim)
        inj.nic_down(cluster.storage[0].nic)

        def xfer():
            yield cluster.network.transfer("c0", "s0", 10_000)

        p = cluster.sim.process(xfer())
        cluster.sim.run()
        # The flow vanished: it never completes and no bytes land.
        assert p.is_alive
        assert cluster.storage[0].nic.rx_bytes == 0
        assert cluster.clients[0].nic.flows_dropped == 1
        inj.nic_up(cluster.storage[0].nic)

        def xfer2():
            yield cluster.network.transfer("c0", "s0", 10_000)

        drive(cluster.sim, xfer2())
        assert cluster.storage[0].nic.rx_bytes == 10_000

    # Alone, the 50 MB flow below lands at t = 0.4504 s.
    @pytest.mark.parametrize(
        "cut_at", [30e-6, 0.1, 0.4495], ids=["in-latency", "mid-flow", "last-chunk"]
    )
    def test_nic_death_cuts_the_flow_in_flight(self, cluster, cut_at):
        sim, net = cluster.sim, cluster.network
        src, dst = cluster.clients[0].nic, cluster.storage[0].nic
        done = net.transfer("c0", "s0", 50 * MB)
        inj = FaultInjector(sim)
        inj.at(cut_at, lambda: inj.nic_down(dst))
        sim.run()
        # A dead NIC carries nothing: the flow never completes, no bytes
        # are counted, and what it held on the pipes has drained.
        assert not done.triggered and net.flows_completed == 0
        assert src.tx_bytes == 0 and dst.rx_bytes == 0
        assert src.flows_dropped == 1 and dst.flows_dropped == 0
        for pipe in (src.tx, src.rx, dst.tx, dst.rx):
            assert pipe.in_use == 0 and pipe._waiters == [], pipe.name
        assert sim.now < cut_at + 0.02  # a few buffered chunks, not the flow

    def test_survivor_reclaims_the_pipe_from_a_dead_sender(self, cluster):
        sim = cluster.sim
        done = {}

        def xfer(src):
            yield cluster.network.transfer(src, "s0", 40 * MB)
            done[src] = sim.now

        sim.process(xfer("c0"))
        sim.process(xfer("c1"))
        inj = FaultInjector(sim)
        inj.at(0.2, lambda: inj.nic_down(cluster.clients[1].nic))
        sim.run()
        assert "c1" not in done
        # Shared until 0.2 s (~11.7 MB each), alone after: ~0.2 + 30 MB at
        # full rate = 0.46 s, against 0.72 s had the dead sender kept going.
        assert done["c0"] == pytest.approx(0.46, abs=0.02)

    def test_nic_death_mid_rpc_raises_timeout(self, cluster):
        """Kill the server NIC mid-request: the payload never reaches the
        handler and the RPC retry layer surfaces RpcTimeout."""
        sim = cluster.sim
        server = rpc.RpcServer(sim, cluster.storage[0], "svc", rpc.RpcCosts(), threads=2)
        received = []

        def sink(args, payload):
            received.append(sim.now)
            return {"ok": True}, None
            yield  # pragma: no cover

        server.register("put", sink)
        inj = FaultInjector(sim)
        # A 50 MB payload takes ~0.45 s on the wire; cut it at 0.1 s.
        inj.at(0.1, lambda: inj.nic_down(cluster.storage[0].nic))
        policy = rpc.RpcPolicy(timeout=0.3, max_retries=1, backoff=1.0)

        def scenario():
            try:
                yield from rpc.call(
                    cluster.clients[0], server, "put", {},
                    payload=Payload.synthetic(50 * MB), policy=policy,
                )
            except rpc.RpcTimeout as exc:
                return exc, sim.now

        exc, gave_up = drive(sim, scenario())
        assert isinstance(exc, rpc.RpcTimeout)
        assert exc.attempts == 2
        # 0.3 s first patience + 0.3 s retry patience.
        assert gave_up == pytest.approx(0.6, abs=0.05)
        # The first attempt was cut in flight; the retransmission found
        # the NIC already down at flow start.
        assert cluster.clients[0].nic.flows_dropped == 2
        sim.run()
        assert received == [] and cluster.storage[0].nic.rx_bytes == 0

    def test_nic_delay_slows_flows(self, cluster):
        inj = FaultInjector(cluster.sim)

        def timed():
            t0 = cluster.sim.now
            yield cluster.network.transfer("c0", "s0", 1000)
            return cluster.sim.now - t0

        base = drive(cluster.sim, timed())
        inj.nic_delay(cluster.storage[0].nic, 0.25)
        slowed = drive(cluster.sim, timed())
        assert slowed == pytest.approx(base + 0.25, rel=1e-6)

    def test_drop_probability_is_seed_deterministic(self):
        def run(seed):
            sim = Simulator(seed=seed)
            net = Network(sim, latency=0.0)
            net.add_nic("a", 100e6)
            net.add_nic("b", 100e6)
            net.nics["a"].drop_prob = 0.5
            for _ in range(40):
                net.transfer("a", "b", 1000)
            sim.run()
            return net.nics["a"].flows_dropped

        dropped = run(1234)
        assert dropped == run(1234)  # same seed, same losses
        assert 0 < dropped < 40  # the coin actually flips both ways


class TestNodeCrash:
    def test_crash_and_restart_node(self, cluster):
        node = cluster.storage[0]
        server = rpc.RpcServer(cluster.sim, node, "svc", rpc.RpcCosts())
        inj = FaultInjector(cluster.sim)
        inj.crash_node(node, services=[server])
        assert node.nic.down and node.disks[0].failed and not server.up
        inj.restart_node(node, services=[server])
        assert not node.nic.down and not node.disks[0].failed and server.up
        kinds = [name.split()[0] for _t, name in inj.events]
        assert kinds == ["crash", "restart"]
