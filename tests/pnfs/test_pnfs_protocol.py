"""pNFS protocol tests over LocalFs-backed data servers.

Builds a small pNFS file-layout deployment where the MDS and three data
servers all export views of one shared in-memory file system (sparse
data-server addressing), using the synthetic layout provider — the
structure of the 2-/3-tier architectures without PVFS2 underneath.
"""

import pytest

from repro.nfs import Nfs4Server, NfsConfig
from repro.pnfs import PnfsClient, PnfsMetadataServer, SyntheticFileLayoutProvider
from repro.vfs import Payload

from tests.conftest import build_cluster, drive
from tests.localfs import LocalClient, LocalFileSystem


def make_pnfs(cluster, n_ds=3, stripe_unit=64 * 1024, **cfg_kw):
    cfg = NfsConfig(**cfg_kw)
    sim = cluster.sim
    backing = LocalFileSystem()
    data_servers = [
        Nfs4Server(sim, node, LocalClient(sim, backing), cfg, name=f"{node.name}.ds")
        for node in cluster.storage[:n_ds]
    ]
    provider = SyntheticFileLayoutProvider(n_ds, stripe_unit)
    mds = PnfsMetadataServer(
        sim,
        cluster.storage[0],
        LocalClient(sim, backing),
        cfg,
        data_servers,
        provider,
    )
    return mds, data_servers, backing, cfg


@pytest.fixture
def pnfs(cluster):
    mds, data_servers, backing, cfg = make_pnfs(cluster)
    client = PnfsClient(cluster.sim, cluster.clients[0], mds, cfg)
    drive(cluster.sim, client.mount())
    return client, mds, data_servers, backing


class TestMountAndLayout:
    def test_getdevlist_at_mount(self, cluster, pnfs):
        client, _mds, data_servers, _backing = pnfs
        assert client.devices == data_servers

    def test_layoutget_on_open(self, cluster, pnfs):
        client, mds, _ds, _backing = pnfs

        def scenario():
            f = yield from client.create("/f")
            return f

        f = drive(cluster.sim, scenario())
        layout = f.state["layout"]
        assert layout is not None
        assert len(layout.device_slots) == 3
        assert layout.aggregation["type"] == "round_robin"
        assert mds.layouts_granted >= 1
        assert [lo for lo, _cb in mds._issued[f.state["fh"]]] == [layout]

    def test_layout_return(self, cluster, pnfs):
        client, mds, _ds, _backing = pnfs

        def scenario():
            f = yield from client.create("/r")
            yield from client.layout_return(f)
            return f

        f = drive(cluster.sim, scenario())
        assert f.state["layout"] is None
        assert mds._issued[f.state["fh"]] == []


class TestDataPath:
    def test_write_read_roundtrip_through_data_servers(self, cluster, pnfs):
        client, _mds, _ds, _backing = pnfs
        blob = bytes(range(256)) * 1024  # 256 KB > stripe unit

        def scenario():
            f = yield from client.create("/data")
            yield from client.write(f, 0, Payload(blob))
            yield from client.close(f)
            g = yield from client.open("/data")
            return (yield from client.read(g, 0, len(blob)))

        assert drive(cluster.sim, scenario()).data == blob

    def test_io_goes_to_data_servers_not_mds(self, cluster):
        mds, data_servers, _backing, cfg = make_pnfs(cluster)
        client = PnfsClient(cluster.sim, cluster.clients[0], mds, cfg)

        def scenario():
            yield from client.mount()
            f = yield from client.create("/big")
            yield from client.write(f, 0, Payload.synthetic(8 * 1024 * 1024))
            yield from client.fsync(f)

        mds_before = mds.rpc.calls_served
        ds_before = [ds.rpc.calls_served for ds in data_servers]
        drive(cluster.sim, scenario())
        ds_calls = sum(ds.rpc.calls_served - b for ds, b in zip(data_servers, ds_before))
        mds_calls = mds.rpc.calls_served - mds_before
        # 8 MB at wsize 2 MB = 4 WRITEs + 3 COMMITs on the data path...
        assert ds_calls >= 4
        # ... while the MDS saw only control traffic (mount/open/commit).
        assert mds_calls <= 6

    def test_stripes_spread_over_all_data_servers(self, cluster):
        mds, data_servers, _backing, cfg = make_pnfs(
            cluster, stripe_unit=64 * 1024, wsize=64 * 1024, rsize=64 * 1024
        )
        client = PnfsClient(cluster.sim, cluster.clients[0], mds, cfg)

        def scenario():
            yield from client.mount()
            f = yield from client.create("/spread")
            yield from client.write(f, 0, Payload.synthetic(6 * 64 * 1024))
            yield from client.fsync(f)

        before = [ds.rpc.calls_served for ds in data_servers]
        drive(cluster.sim, scenario())
        per_ds = [ds.rpc.calls_served - b for ds, b in zip(data_servers, before)]
        assert all(calls >= 2 for calls in per_ds)  # 2 WRITEs + commits each

    def test_commit_goes_to_touched_data_servers(self, cluster, pnfs):
        client, _mds, data_servers, backing = pnfs

        def scenario():
            f = yield from client.create("/c")
            # one byte: touches only the slot-0 data server
            yield from client.write(f, 0, Payload(b"z"))
            before = [ds.rpc.calls_served for ds in data_servers]
            yield from client.fsync(f)
            return before

        before = drive(cluster.sim, scenario())
        after = [ds.rpc.calls_served for ds in data_servers]
        deltas = [a - b for a, b in zip(after, before)]
        # WRITE went out before fsync? No: 1 byte < wsize stays dirty until
        # fsync, so slot 0 sees WRITE+COMMIT and others see nothing.
        assert deltas[0] == 2
        assert deltas[1] == deltas[2] == 0

    def test_eof_handling_across_stripes(self, cluster, pnfs):
        client, _mds, _ds, _backing = pnfs

        def scenario():
            f = yield from client.create("/eof")
            yield from client.write(f, 0, Payload(b"a" * 100_000))  # crosses stripes
            yield from client.close(f)
            g = yield from client.open("/eof")
            full = yield from client.read(g, 0, 1 << 20)
            return full

        out = drive(cluster.sim, scenario())
        assert out.nbytes == 100_000


class TestLayoutCommitAndRecall:
    def test_layoutcommit_updates_mds_size(self, cluster, pnfs):
        client, _mds, _ds, backing = pnfs

        def scenario():
            f = yield from client.create("/sz")
            yield from client.write(f, 0, Payload.synthetic(150_000))
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        entry = backing.namespace.resolve("/sz")
        assert entry.attrs.size == 150_000

    def test_recall_invalidates_client_layout(self, cluster, pnfs):
        client, mds, _ds, _backing = pnfs

        def scenario():
            f = yield from client.create("/rec")
            yield from client.write(f, 0, Payload(b"x" * 1000))
            yield from client.fsync(f)
            fh = f.state["fh"]
            yield from mds.recall_layouts(fh)
            assert f.state["layout"] is None
            # Cached data still readable without a layout...
            data = yield from client.read(f, 0, 1000)
            assert f.state["layout"] is None
            # ...but the next wire I/O transparently re-fetches one.
            yield from client.write(f, 5000, Payload(b"y" * 100))
            yield from client.fsync(f)
            return f, data

        f, data = drive(cluster.sim, scenario())
        assert data.nbytes == 1000
        assert f.state["layout"] is not None
        assert mds.layouts_recalled == 1

    def test_two_clients_each_get_layouts(self, cluster):
        mds, _ds, _backing, cfg = make_pnfs(cluster)
        c0 = PnfsClient(cluster.sim, cluster.clients[0], mds, cfg)
        c1 = PnfsClient(cluster.sim, cluster.clients[1], mds, cfg)

        def scenario():
            yield from c0.mount()
            yield from c1.mount()
            f0 = yield from c0.create("/both")
            yield from c0.write(f0, 0, Payload(b"from c0!"))
            yield from c0.close(f0)
            f1 = yield from c1.open("/both")
            data = yield from c1.read(f1, 0, 8)
            return data, f0, f1

        data, f0, f1 = drive(cluster.sim, scenario())
        assert data.data == b"from c0!"
        assert len(mds._issued[f1.state["fh"]]) == 2
