"""Tests for the testbed model and the table of architectures."""

from dataclasses import replace

import pytest

from repro.cluster.configs import ARCHITECTURES, make_deployment
from repro.cluster.testbed import FAST_ETHERNET, GIGE, Testbed
from repro.nfs import NfsConfig
from repro.nfs.server import Nfs4Server
from repro.rpc import RpcPolicy
from repro.pvfs2 import Pvfs2Config
from repro.vfs import Payload

from tests.conftest import drive


class TestTestbed:
    def test_standard_layout(self):
        tb = Testbed(n_clients=8)
        assert len(tb.server_nodes) == 6
        assert len(tb.storage_nodes) == 6
        assert all(len(n.disks) == 1 for n in tb.storage_nodes)
        assert len(tb.client_nodes) == 8

    def test_three_tier_layout(self):
        tb = Testbed(server_disks=(0, 0, 0, 2, 2, 2))
        assert len(tb.storage_nodes) == 3
        assert len(tb.diskless_server_nodes) == 3
        assert all(len(n.disks) == 2 for n in tb.storage_nodes)
        # nodes + disks constant: 6 nodes, 6 disks (paper §6.1)
        assert sum(len(n.disks) for n in tb.server_nodes) == 6

    def test_client_cpu_classes(self):
        tb = Testbed(n_clients=9)
        assert tb.client_nodes[0].cpu.spec.speed == pytest.approx(1.3)
        assert tb.client_nodes[8].cpu.spec.speed == pytest.approx(1.7)

    def test_client_count_bounds(self):
        for n in (0, 10):
            with pytest.raises(ValueError, match="between 1 and 9"):
                Testbed(n_clients=n)

    def test_network_speed_applies(self):
        tb = Testbed(net_bw=FAST_ETHERNET)
        assert tb.server_nodes[0].nic.bandwidth == FAST_ETHERNET


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
class TestArchitectures:
    def test_end_to_end_roundtrip(self, arch):
        """Every architecture runs the same application correctly."""
        dep = make_deployment(arch, n_clients=2)
        tb = dep.testbed
        c0 = dep.make_client(tb.client_nodes[0])
        c1 = dep.make_client(tb.client_nodes[1])
        blob = bytes(range(256)) * 64  # 16 KB

        def scenario():
            yield from c0.mount()
            yield from c1.mount()
            yield from c0.mkdir("/x")
            f = yield from c0.create("/x/file")
            yield from c0.write(f, 0, Payload(blob))
            yield from c0.fsync(f)
            yield from c0.close(f)
            g = yield from c1.open("/x/file")
            data = yield from c1.read(g, 0, len(blob))
            attrs = yield from c1.getattr("/x/file")
            return data, attrs

        data, attrs = drive(tb.sim, scenario())
        assert data.data == blob
        assert attrs.size == len(blob)
        assert dep.label == arch

    def test_data_lands_in_the_shared_backend(self, arch):
        """All five architectures export the same PVFS2 deployment."""
        dep = make_deployment(arch, n_clients=1)
        tb = dep.testbed
        client = dep.make_client(tb.client_nodes[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/data")
            yield from client.write(f, 0, Payload.synthetic(512 * 1024))
            yield from client.fsync(f)
            yield from client.close(f)

        drive(tb.sim, scenario())
        stored = sum(
            fd.size for d in dep.pvfs.daemons for fd in d.bstreams.values()
        )
        assert stored == 512 * 1024


class TestDeploymentShapes:
    def test_direct_pnfs_has_ds_per_storage_node(self):
        dep = make_deployment("direct-pnfs")
        assert len(dep.servers) == 7  # 6 data servers + MDS

    def test_3tier_builds_its_own_testbed(self):
        dep = make_deployment("pnfs-3tier")
        assert len(dep.testbed.storage_nodes) == 3
        assert len(dep.servers) == 4  # 3 DS + MDS

    def test_nfsv4_single_server_on_extra_node(self):
        dep = make_deployment("nfsv4")
        (server,) = dep.servers
        assert server.node is dep.testbed.extra_node

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            make_deployment("afs")

    def test_2tier_layout_is_blind_to_placement(self):
        """The 2-tier MDS issues 1 MB-stripe layouts regardless of the
        2 MB PVFS2 distribution — the §3.4.1 block-size mismatch."""
        dep = make_deployment("pnfs-2tier", n_clients=1)
        tb = dep.testbed
        client = dep.make_client(tb.client_nodes[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/m")
            return f

        f = drive(tb.sim, scenario())
        layout = f.layout
        assert layout.aggregation["stripe_unit"] == 1024 * 1024
        assert dep.pvfs.cfg.stripe_size == 2 * 1024 * 1024


KB = 1024
MB = 1024 * KB

#: ``RpcServer`` names and the order of ``Deployment.servers`` are
#: hashed into the trace pins (the fault log prints names; torture picks
#: ``servers[target % len]``): a fold must not rename or reorder them.
SERVER_NAMES = {
    "direct-pnfs": [f"server{i}.direct-ds" for i in range(6)] + ["server0.direct-mds"],
    "direct-pnfs-sharded": [f"server{i}.direct-ds" for i in range(6)]
    + ["server0.direct-mds", "server1.direct-mds"],
    "pnfs-2tier": [f"server{i}.2tier-ds" for i in range(6)] + ["server0.2tier-mds"],
    "pnfs-3tier": [f"server{i}.3tier-ds" for i in range(3)] + ["3tier-mds"],
    "nfsv4": ["nfsv4-server"],
    "pvfs2": [f"server{i}.pvfs2d" for i in range(6)] + ["server0.pvfs2-mds"],
}

#: The exact server CPU per request / reply byte of each row's NFS
#: servers (``repr`` of the float), as ``(data server, MDS)`` pairs; the
#: nfsv4 server is a data server, the native PVFS2 front has none.  A
#: surcharge sum written in another association order moves these
#: before it moves a trace pin.
EFFECTIVE_PER_BYTE = {
    "direct-pnfs": (("1.35e-08", "2.55e-08"), ("5.5e-09", "5.5e-09")),
    "direct-pnfs-sharded": (("1.35e-08", "2.55e-08"), ("5.5e-09", "5.5e-09")),
    "pnfs-2tier": (("6.349999999999999e-08", "1.35e-08"), ("5.5e-09", "5.5e-09")),
    "pnfs-3tier": (("5.55e-08", "7.05e-08"), ("5.5e-09", "5.5e-09")),
    "nfsv4": (("5.55e-08", "5.5e-09"), None),
    "pvfs2": (None, None),
}


class TestArchitectureTable:
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_server_names_and_order_are_the_hashed_ones(self, arch):
        assert [s.name for s in make_deployment(arch).servers] == SERVER_NAMES[arch]

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_effective_per_byte_costs_are_pinned(self, arch):
        got = {}
        for server in make_deployment(arch, n_clients=1).servers:
            if isinstance(server, Nfs4Server):
                costs = server.rpc.costs
                role = "mds" if server.name.endswith("-mds") else "ds"
                got.setdefault(role, set()).add(
                    (repr(costs.server_per_byte_in), repr(costs.server_per_byte_out))
                )
        ds, mds = EFFECTIVE_PER_BYTE[arch]
        assert got == {role: {pair} for role, pair in (("ds", ds), ("mds", mds)) if pair}

    def test_an_ablation_is_a_row_with_one_field_replaced(self):
        matched = replace(ARCHITECTURES["pnfs-2tier"], layout_stripe=2 * MB)
        dep = make_deployment(matched, n_clients=1)
        client = dep.make_client(dep.testbed.client_nodes[0])

        def scenario():
            yield from client.mount()
            return (yield from client.create("/m"))

        f = drive(dep.testbed.sim, scenario())
        assert f.layout.aggregation["stripe_unit"] == 2 * MB
        assert dep.label == client.label == "pnfs-2tier"

    def test_sharded_is_direct_with_two_metadata_servers(self):
        direct = ARCHITECTURES["direct-pnfs"]
        assert replace(direct, n_meta=2) == ARCHITECTURES["direct-pnfs-sharded"]

    def test_every_row_field_distinguishes_two_architectures(self):
        """The row holds what differs between architectures, nothing else."""
        rows = list(ARCHITECTURES.values())
        for name in rows[0].__dataclass_fields__:
            assert len({getattr(row, name) for row in rows}) >= 2, name

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_figures_run_the_dataclass_defaults(self, arch):
        """One set of protocol numbers: a figure deployment's configs
        are ``NfsConfig()`` / ``Pvfs2Config()``, field for field."""
        dep = make_deployment(arch, n_clients=1)
        assert dep.pvfs.cfg == Pvfs2Config()
        for server in dep.servers:
            if server not in dep.pvfs.daemons + dep.pvfs.metadata_servers:
                assert server.cfg == NfsConfig()

    def test_testbed_argument_is_built_on(self):
        tb = Testbed(n_clients=3, latency=1e-3)
        assert make_deployment("nfsv4", testbed=tb).testbed is tb
        with pytest.raises(ValueError, match="server_disks"):
            make_deployment("pnfs-3tier", testbed=tb)

    def test_2tier_data_server_loss_is_proxied_through_the_mds(self):
        """The fault helpers off Direct-pNFS: a 2-tier client whose data
        server dies proxies that server's stripes through the MDS, and
        goes direct again after the restart."""
        dep = make_deployment(
            "pnfs-2tier",
            n_clients=2,
            nfs_overrides=dict(
                rsize=64 * KB, wsize=64 * KB, readahead=0,
                rpc_policy=RpcPolicy(timeout=0.25, max_retries=1), ds_retry_interval=1.0,
            ),
            pvfs_overrides=dict(stripe_size=64 * KB),
        )
        sim, system = dep.testbed.sim, dep.pnfs
        writer, reader = (dep.make_client(node) for node in dep.testbed.client_nodes)
        blob = bytes(range(256)) * (8 * KB)  # 2 MB: stripes on every data server

        def setup():
            yield from writer.mount()
            yield from reader.mount()
            f = yield from writer.create("/data")
            yield from writer.write(f, 0, Payload(blob))
            yield from writer.close(f)

        drive(sim, setup())
        system.kill_data_server("server1")
        victim = system.data_server_for("server1")

        def read_back():
            g = yield from reader.open("/data", write=False)
            data = yield from reader.read(g, 0, len(blob))
            yield from reader.close(g)
            return data

        assert drive(sim, read_back()).data == blob
        assert reader.failovers >= 1 and reader.proxied_bytes > 0

        system.restart_data_server("server1")
        served_before = victim.rpc.calls_served

        def after_restart():
            yield sim.timeout(1.5)  # past ds_retry_interval
            f = yield from reader.create("/data2")
            yield from reader.write(f, 0, Payload(blob))
            yield from reader.close(f)

        drive(sim, after_restart())
        assert reader.recoveries >= 1
        assert victim.rpc.calls_served > served_before  # direct again
