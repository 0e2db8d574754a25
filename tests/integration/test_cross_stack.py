"""Cross-stack integration tests.

Exercise combinations the unit suites do not: NFS exporting PVFS2
directly, multiple architectures sharing one backend deployment, cache
coherence across open/close, and concurrent mixed workloads.
"""

import pytest

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import Payload

from tests.conftest import build_cluster, drive


class TestNfsOverPvfs2:
    """A standalone NFSv4 server exporting a PVFS2 client backend."""

    @pytest.fixture
    def stack(self, cluster):
        pvfs = Pvfs2System(
            cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024)
        )
        cfg = NfsConfig(rsize=128 * 1024, wsize=128 * 1024)
        server = Nfs4Server(
            cluster.sim, cluster.storage[0], pvfs.make_client(cluster.storage[0]), cfg
        )
        client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
        drive(cluster.sim, client.mount())
        return client, server, pvfs

    def test_roundtrip_lands_striped(self, cluster, stack):
        client, _server, pvfs = stack
        blob = bytes(range(256)) * 1200  # ~300 KB across stripes

        def scenario():
            f = yield from client.create("/via-nfs")
            yield from client.write(f, 0, Payload(blob))
            yield from client.close(f)
            g = yield from client.open("/via-nfs")
            return (yield from client.read(g, 0, len(blob)))

        assert drive(cluster.sim, scenario()).data == blob
        # striped across all three daemons
        assert sum(1 for d in pvfs.daemons if d.bstreams) == 3

    def test_getattr_size_ripples_through_daemons(self, cluster, stack):
        client, _server, pvfs = stack

        def scenario():
            f = yield from client.create("/sz")
            yield from client.write(f, 0, Payload.synthetic(200_000))
            yield from client.close(f)
            before = [d.rpc.calls_served for d in pvfs.daemons]
            self_attrs = yield from client.getattr("/sz")
            after = [d.rpc.calls_served for d in pvfs.daemons]
            return self_attrs, before, after

        attrs, before, after = drive(cluster.sim, scenario())
        assert attrs.size == 200_000
        # the §3.4.1 ripple: one NFS GETATTR queried every storage server
        assert all(a > b for a, b in zip(after, before))


class TestNativeAndDirectShareBackend:
    def test_native_pvfs2_sees_direct_pnfs_writes(self, cluster):
        pvfs = Pvfs2System(
            cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024)
        )
        direct = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        nfs_client = direct.make_client(cluster.clients[0])
        native = pvfs.make_client(cluster.clients[1])
        blob = b"interop" * 1000

        def scenario():
            yield from nfs_client.mount()
            yield from native.mount()
            f = yield from nfs_client.create("/interop")
            yield from nfs_client.write(f, 0, Payload(blob))
            yield from nfs_client.close(f)
            g = yield from native.open("/interop")
            via_native = yield from native.read(g, 0, len(blob))
            # and back: native writes, direct reads
            yield from native.write(g, len(blob), Payload(b"!native!"))
            yield from native.fsync(g)
            h = yield from nfs_client.open("/interop")
            tail = yield from nfs_client.read(h, len(blob), 8)
            return via_native, tail

        via_native, tail = drive(cluster.sim, scenario())
        assert via_native.data == blob
        assert tail.data == b"!native!"


class TestCloseToOpenCache:
    @pytest.fixture
    def direct(self, cluster):
        pvfs = Pvfs2System(
            cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024)
        )
        system = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        return system

    def test_reopen_serves_reads_from_cache(self, cluster, direct):
        client = direct.make_client(cluster.clients[0])
        ds_calls = lambda: sum(ds.rpc.calls_served for ds in direct.data_servers)

        def scenario():
            yield from client.mount()
            f = yield from client.create("/hdr")
            yield from client.write(f, 0, Payload(b"h" * 30_000))
            yield from client.close(f)
            g = yield from client.open("/hdr")
            yield from client.read(g, 0, 30_000)  # warm the inode cache
            yield from client.close(g)
            before = ds_calls()
            for _ in range(5):  # compiler re-reading a header
                h = yield from client.open("/hdr")
                data = yield from client.read(h, 0, 30_000)
                assert data.nbytes == 30_000
                yield from client.close(h)
            return ds_calls() - before

        extra_data_rpcs = drive(cluster.sim, scenario())
        assert extra_data_rpcs == 0  # all five re-reads hit the page cache

    def test_reopen_after_remote_change_invalidates(self, cluster, direct):
        c0 = direct.make_client(cluster.clients[0])
        c1 = direct.make_client(cluster.clients[1])

        def scenario():
            yield from c0.mount()
            yield from c1.mount()
            f = yield from c0.create("/coh")
            yield from c0.write(f, 0, Payload(b"AAAA"))
            yield from c0.close(f)
            g0 = yield from c0.open("/coh")
            yield from c0.read(g0, 0, 4)
            yield from c0.close(g0)
            # c1 extends the file: size changes, c0 must revalidate
            g1 = yield from c1.open("/coh")
            yield from c1.write(g1, 4, Payload(b"BBBB"))
            yield from c1.close(g1)
            g0b = yield from c0.open("/coh")
            data = yield from c0.read(g0b, 0, 8)
            return data

        assert drive(cluster.sim, scenario()).data == b"AAAABBBB"

    def test_layout_cached_across_opens(self, cluster, direct):
        client = direct.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/lay")
            yield from client.write(f, 0, Payload(b"x"))
            yield from client.close(f)
            granted_after_create = direct.mds.layouts_granted
            for _ in range(3):
                g = yield from client.open("/lay")
                yield from client.close(g)
            return direct.mds.layouts_granted - granted_after_create

        assert drive(cluster.sim, scenario()) == 0  # layouts live with the inode


class TestConcurrentMixedLoad:
    def test_streaming_and_small_io_coexist(self, cluster):
        """A bulk writer and a small-file workload run concurrently
        without corrupting each other."""
        pvfs = Pvfs2System(
            cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024)
        )
        system = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        bulk = system.make_client(cluster.clients[0])
        small = system.make_client(cluster.clients[1])

        def bulk_proc():
            yield from bulk.mount()
            f = yield from bulk.create("/bulk")
            yield from bulk.write(f, 0, Payload.synthetic(4 * 1024 * 1024))
            yield from bulk.close(f)

        def small_proc():
            yield from small.mount()
            yield from small.mkdir("/small")
            for i in range(10):
                f = yield from small.create(f"/small/f{i}")
                yield from small.write(f, 0, Payload(bytes([i]) * 100))
                yield from small.close(f)
            out = []
            for i in range(10):
                f = yield from small.open(f"/small/f{i}")
                data = yield from small.read(f, 0, 100)
                out.append(data.data)
                yield from small.close(f)
            return out

        sim = cluster.sim
        p1 = sim.process(bulk_proc())
        p2 = sim.process(small_proc())
        sim.run(until=sim.all_of([p1, p2]))
        assert p2.value == [bytes([i]) * 100 for i in range(10)]
        assert sum(fd.size for d in pvfs.daemons for fd in d.bstreams.values()) >= 4 * 1024 * 1024
