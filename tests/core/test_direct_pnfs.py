"""End-to-end Direct-pNFS tests: translator, locality, durability."""

import pytest

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.core.layout_translator import TRANSLATIONS, translate_aggregation
from repro.nfs import NfsConfig
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import Payload

from tests.conftest import build_cluster, drive


def make_direct(cluster, stripe_size=64 * 1024, **nfs_kw):
    pvfs = Pvfs2System(
        cluster.sim, cluster.storage, Pvfs2Config(stripe_size=stripe_size)
    )
    nfs_kw.setdefault("rsize", 64 * 1024)
    nfs_kw.setdefault("wsize", 64 * 1024)
    system = PnfsSystem(cluster.sim, pvfs, NfsConfig(**nfs_kw), ARCHITECTURES["direct-pnfs"])
    return system, pvfs


@pytest.fixture
def direct(cluster):
    system, pvfs = make_direct(cluster)
    client = system.make_client(cluster.clients[0])
    drive(cluster.sim, client.mount())
    return client, system, pvfs


class TestLayoutTranslator:
    def test_layout_mirrors_pvfs2_distribution(self, cluster, direct):
        client, system, pvfs = direct

        def scenario():
            return (yield from client.create("/f"))

        f = drive(cluster.sim, scenario())
        layout = f.layout
        dist_desc = pvfs.mds.files[f.handle].dist_desc
        assert layout.aggregation == {
            "type": "round_robin",
            "nslots": len(pvfs.daemons),
            "stripe_unit": pvfs.cfg.stripe_size,
            "first_slot": dist_desc["start_server"],
        }
        assert layout.device_slots == list(range(len(pvfs.daemons)))
        assert system.mds.layouts_granted >= 1

    def test_varstrip_distribution_translates_to_varstrip_driver(self, cluster):
        pvfs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config())
        system = PnfsSystem(cluster.sim, pvfs, NfsConfig(), ARCHITECTURES["direct-pnfs"])
        client = system.make_client(cluster.clients[0])
        pattern = [(0, 4096), (1, 8192), (2, 4096)]

        def scenario():
            yield from client.mount()
            # create with an explicit varstrip distribution via the MDS
            dist = {"type": "varstrip", "nservers": 3, "pattern": pattern}
            info, _ = yield from system.mds.backend._mds_call(
                "create", {"path": "/vs", "dist": dist}
            )
            return (yield from client.open("/vs"))

        f = drive(cluster.sim, scenario())
        layout = f.layout
        assert layout.aggregation["type"] == "varstrip"
        assert [tuple(p) for p in layout.aggregation["pattern"]] == pattern

    def test_varstrip_that_skips_a_device_still_yields_a_slot_per_server(self, cluster):
        """The layout spans the distribution's servers, not just the
        devices its pattern names: device 1 holds no strip here."""
        pvfs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config())
        system = PnfsSystem(cluster.sim, pvfs, NfsConfig(), ARCHITECTURES["direct-pnfs"])
        client = system.make_client(cluster.clients[0])
        pattern = [(0, 4096), (2, 8192)]

        def scenario():
            yield from client.mount()
            dist = {"type": "varstrip", "nservers": 3, "pattern": pattern}
            yield from system.mds.backend._mds_call("create", {"path": "/skip", "dist": dist})
            return (yield from client.open("/skip"))

        layout = drive(cluster.sim, scenario()).layout
        assert layout.device_slots == [0, 1, 2] and len(layout.fhs) == 3
        assert [tuple(p) for p in layout.aggregation["pattern"]] == pattern

    def test_unknown_aggregation_type_rejected(self):
        with pytest.raises(ValueError):
            translate_aggregation({"type": "proprietary-blob"})

    def test_translation_registry_extensible(self):
        """A new parallel-FS placement is a new row."""
        TRANSLATIONS["blockiness"] = lambda d: {"type": "round_robin", "nslots": 1, "stripe_unit": 1}
        try:
            agg = translate_aggregation({"type": "blockiness"})
            assert agg["type"] == "round_robin"
        finally:
            del TRANSLATIONS["blockiness"]


class TestEndToEnd:
    def test_write_read_roundtrip(self, cluster, direct):
        client, _system, _pvfs = direct
        blob = bytes(range(256)) * 800  # ~200 KB across stripes

        def scenario():
            f = yield from client.create("/data")
            yield from client.write(f, 0, Payload(blob))
            yield from client.close(f)
            g = yield from client.open("/data")
            return (yield from client.read(g, 0, len(blob)))

        assert drive(cluster.sim, scenario()).data == blob

    def test_bytes_land_on_correct_storage_nodes(self, cluster, direct):
        """The defining property: every byte is written exactly where the
        PVFS2 distribution says, via the colocated data server only —
        the local-only conduits would raise otherwise."""
        client, _system, pvfs = direct
        data = bytes(range(200)) * 1000  # 200 KB

        def scenario():
            f = yield from client.create("/placed")
            yield from client.write(f, 0, Payload(data))
            yield from client.fsync(f)
            return f

        f = drive(cluster.sim, scenario())
        dist = pvfs.mds.files[f.handle]
        for run in dist.dist.runs(0, len(data))[:20]:
            daemon = pvfs.daemons[run.server]
            dfile = dist.dfiles[run.server]
            stored = daemon.bstreams[dfile].read(run.local, run.length)
            assert stored.data == data[run.logical : run.logical + run.length]

    def test_no_interserver_data_traffic(self, cluster, direct):
        """Data servers never exchange data (Figure 5: 'Data servers do
        not communicate')."""
        client, _system, pvfs = direct

        def scenario():
            f = yield from client.create("/local")
            yield from client.write(f, 0, Payload.synthetic(2 * 1024 * 1024))
            yield from client.fsync(f)

        # Track NIC traffic among storage nodes before/after (MDS node
        # excluded: control traffic legitimately flows to it).
        non_mds = [n for n in cluster.storage if n is not pvfs.mds.node]
        before = [(n.nic.tx_bytes, n.nic.rx_bytes) for n in non_mds]
        drive(cluster.sim, scenario())
        for node, (tx0, rx0) in zip(non_mds, before):
            # Each non-MDS storage node's traffic is only client I/O and
            # MDS control; verify volume ~= what the client sent it
            # (no 5/6 amplification as in 2-tier).
            wire_in = node.nic.rx_bytes - rx0
            assert wire_in < 1.5 * (2 * 1024 * 1024 / 2)  # ≤ its share + slack

    def test_fsync_commits_to_disk(self, cluster, direct):
        client, _system, pvfs = direct

        def scenario():
            f = yield from client.create("/durable")
            yield from client.write(f, 0, Payload.synthetic(3_000_000))
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        # fsync may leave up to the disk write-cache allowance pending…
        assert all(
            d.dirty_backlog <= pvfs.cfg.disk_cache_bytes for d in pvfs.daemons
        )
        # …but once the flusher drains, every byte is on a platter
        # (plus a few 4 KB metadata-journal writes from the create).
        cluster.sim.run()
        disk_bytes = sum(n.disks[0].write_bytes for n in cluster.storage)
        assert 3_000_000 <= disk_bytes <= 3_000_000 + 16 * 4096

    def test_size_visible_after_layoutcommit(self, cluster, direct):
        client, _system, _pvfs = direct

        def scenario():
            f = yield from client.create("/sz")
            yield from client.write(f, 0, Payload.synthetic(123_456))
            yield from client.close(f)
            return (yield from client.getattr("/sz"))

        assert drive(cluster.sim, scenario()).size == 123_456

    def test_two_clients_share_a_file(self, cluster, direct):
        client, system, _pvfs = direct
        other = system.make_client(cluster.clients[1])

        def scenario():
            yield from other.mount()
            f = yield from client.create("/shared")
            yield from client.write(f, 0, Payload(b"c0 wrote this"))
            yield from client.close(f)
            g = yield from other.open("/shared")
            return (yield from other.read(g, 0, 32))

        assert drive(cluster.sim, scenario()).data == b"c0 wrote this"

    def test_metadata_ops_work(self, cluster, direct):
        client, _system, _pvfs = direct

        def scenario():
            yield from client.mkdir("/dir")
            yield from client.create("/dir/a")
            yield from client.create("/dir/b")
            names = yield from client.readdir("/dir")
            yield from client.remove("/dir/a")
            names2 = yield from client.readdir("/dir")
            return names, names2

        names, names2 = drive(cluster.sim, scenario())
        assert names == ["a", "b"]
        assert names2 == ["b"]
