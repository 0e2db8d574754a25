"""Replicated and hierarchical aggregation through the full pNFS stack.

The optional aggregation drivers (§4.3) are exercised end-to-end here:
a custom layout provider issues replicated / hierarchical layouts over
LocalFs-backed data servers, and the stock pNFS client fans writes out
to every replica and spreads reads across them.
"""

import pytest

from repro.nfs import Nfs4Server, NfsConfig
from repro.pnfs import FileLayout, PnfsClient, PnfsMetadataServer
from repro.pnfs.providers import LayoutProvider
from repro.vfs import Payload

from tests.conftest import build_cluster, drive
from tests.localfs import LocalClient, LocalFileSystem

KB = 1024


class FixedLayoutProvider(LayoutProvider):
    """Issues the same aggregation description for every file."""

    def __init__(self, ndevices: int, aggregation: dict):
        self.ndevices = ndevices
        self.aggregation = aggregation

    def get_layout(self, fh, path):
        return FileLayout(
            device_slots=list(range(self.ndevices)),
            fhs=[fh] * self.ndevices,
            aggregation=dict(self.aggregation),
        )
        yield  # pragma: no cover


def build(cluster, aggregation, n_ds=4):
    """MDS + n data servers, each over its OWN LocalFs (so replica
    placement is observable per server)."""
    sim = cluster.sim
    cfg = NfsConfig(rsize=32 * KB, wsize=32 * KB)
    stores = [LocalFileSystem() for _ in range(n_ds)]
    # Share one namespace via the MDS's store for metadata; data
    # servers write into their own stores keyed by the same handles.
    mds_store = LocalFileSystem()
    data_servers = [
        Nfs4Server(sim, cluster.storage[i % len(cluster.storage)],
                   _MirrorClient(sim, mds_store, stores[i]), cfg,
                   name=f"ds{i}")
        for i in range(n_ds)
    ]
    mds = PnfsMetadataServer(
        sim,
        cluster.storage[0],
        _MetaOnlyClient(sim, mds_store),
        cfg,
        data_servers,
        FixedLayoutProvider(n_ds, aggregation),
    )
    client = PnfsClient(sim, cluster.clients[0], mds, cfg)
    drive(sim, client.mount())
    return client, stores, mds


class _MetaOnlyClient(LocalClient):
    """MDS backend whose sizes come from LAYOUTCOMMIT hints (data lives
    on the data servers, not in the MDS's own store)."""

    def getattr(self, path):
        yield from self._tick()
        return self.fs.namespace.resolve(path).attrs.copy()

    def getattr_handle(self, handle):
        yield from self._tick()
        return self.fs.namespace.by_handle(handle).attrs.copy()


class _MirrorClient(LocalClient):
    """LocalFs client that resolves handles via the MDS namespace but
    stores data in a per-server store (sparse data-server addressing)."""

    def __init__(self, sim, mds_store, data_store):
        super().__init__(sim, mds_store)
        self.data = data_store

    def read(self, f, offset, nbytes):
        yield from self._tick()
        return self.data.data_for(f.handle).read(offset, nbytes)

    def write(self, f, offset, payload):
        yield from self._tick()
        self.data.data_for(f.handle).write(offset, payload)
        return payload.nbytes


class TestReplicated:
    AGG = {
        "type": "replicated",
        "inner": {"type": "round_robin", "nslots": 2, "stripe_unit": 16 * KB},
        "replicas": [0, 2],
    }

    def test_writes_fan_out_to_both_replica_sets(self, cluster):
        client, stores, _mds = build(cluster, self.AGG)
        blob = bytes(range(256)) * 128  # 32 KB = 2 stripes

        def scenario():
            f = yield from client.create("/mirrored")
            yield from client.write(f, 0, Payload(blob))
            yield from client.fsync(f)
            return f

        f = drive(cluster.sim, scenario())
        fh = f.state["fh"]
        # stripe 0 -> slots 0 and 2; stripe 1 -> slots 1 and 3
        assert stores[0].data_for(fh).read(0, 16 * KB).data == blob[: 16 * KB]
        assert stores[2].data_for(fh).read(0, 16 * KB).data == blob[: 16 * KB]
        assert stores[1].data_for(fh).read(16 * KB, 16 * KB).data == blob[16 * KB :]
        assert stores[3].data_for(fh).read(16 * KB, 16 * KB).data == blob[16 * KB :]

    def test_reads_alternate_replicas_and_verify(self, cluster):
        client, _stores, _mds = build(cluster, self.AGG)
        blob = b"R" * (64 * KB)

        def scenario():
            f = yield from client.create("/r2")
            yield from client.write(f, 0, Payload(blob))
            yield from client.close(f)
            g = yield from client.open("/r2", write=False)
            return (yield from client.read(g, 0, len(blob)))

        assert drive(cluster.sim, scenario()).data == blob


class TestHierarchical:
    AGG = {
        "type": "hierarchical",
        "ngroups": 2,
        "group_size": 2,
        "outer_unit": 32 * KB,
        "inner_unit": 16 * KB,
    }

    def test_two_level_placement(self, cluster):
        client, stores, _mds = build(cluster, self.AGG)
        blob = bytes(range(64)) * KB  # 64 KB = 4 inner units

        def scenario():
            f = yield from client.create("/h")
            yield from client.write(f, 0, Payload(blob))
            yield from client.fsync(f)
            return f

        f = drive(cluster.sim, scenario())
        fh = f.state["fh"]
        # outer 0 -> group 0 (slots 0,1); outer 1 -> group 1 (slots 2,3)
        assert stores[0].data_for(fh).size > 0
        assert stores[1].data_for(fh).size > 0
        assert stores[2].data_for(fh).size > 0
        assert stores[3].data_for(fh).size > 0

    def test_roundtrip(self, cluster):
        client, _stores, _mds = build(cluster, self.AGG)
        blob = bytes(range(256)) * 300

        def scenario():
            f = yield from client.create("/h2")
            yield from client.write(f, 0, Payload(blob))
            yield from client.close(f)
            g = yield from client.open("/h2", write=False)
            return (yield from client.read(g, 0, len(blob)))

        assert drive(cluster.sim, scenario()).data == blob
