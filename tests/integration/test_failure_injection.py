"""Failure injection: storage-daemon crashes and durability semantics.

The paper's §5 durability stance — commit to stable storage only at
fsync/close, because "many scientific applications can re-create lost
data" — has an observable flip side: data that was never fsync'd does
not survive a storage-node crash, while fsync'd data does.
"""

import pytest

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.nfs import NfsConfig
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import Payload
from repro.vfs.api import FsError

from tests.conftest import build_cluster, drive


@pytest.fixture
def stack(cluster):
    pvfs = Pvfs2System(
        cluster.sim, cluster.storage, Pvfs2Config(stripe_size=16 * 1024)
    )
    direct = PnfsSystem(
        cluster.sim, pvfs, NfsConfig(rsize=32 * 1024, wsize=32 * 1024), ARCHITECTURES["direct-pnfs"]
    )
    return cluster, pvfs, direct


class TestCrashDurability:
    def test_fsynced_data_survives_crash(self, stack):
        cluster, pvfs, direct = stack
        client = direct.make_client(cluster.clients[0])
        blob = bytes(range(256)) * 32  # 8 KB: one stripe

        def scenario():
            yield from client.mount()
            f = yield from client.create("/durable")
            yield from client.write(f, 0, Payload(blob))
            yield from client.fsync(f)
            # Let the flushers drain fully, then crash every daemon.
            yield cluster.sim.timeout(5.0)
            for daemon in pvfs.daemons:
                daemon.crash()
            g = yield from client.open("/durable", write=False)
            # bypass the client cache: fresh client reads from storage
            fresh = direct.make_client(cluster.clients[1])
            yield from fresh.mount()
            h = yield from fresh.open("/durable", write=False)
            return (yield from fresh.read(h, 0, len(blob)))

        out = drive(cluster.sim, scenario())
        assert out.data == blob

    def test_unflushed_data_lost_on_crash(self, stack):
        cluster, pvfs, _direct = stack
        native = pvfs.make_client(cluster.clients[0])
        blob = b"\xff" * 4096

        def scenario():
            yield from native.mount()
            f = yield from native.create("/volatile")
            yield from native.write(f, 0, Payload(blob))
            # No fsync: the daemon buffers it.  Crash before the
            # write-behind flusher has a chance to run.
            for daemon in pvfs.daemons:
                daemon.crash()
            return (yield from native.read(f, 0, len(blob)))

        out = drive(cluster.sim, scenario())
        # Size survives (metadata), content reads back as zeros.
        assert out.nbytes == len(blob)
        assert out.data == b"\x00" * len(blob)

    def test_crash_fails_inflight_fsync(self, stack):
        cluster, pvfs, _direct = stack
        native = pvfs.make_client(cluster.clients[0])

        def crasher():
            # Crash the daemons the moment a flush barrier is waiting.
            while not any(d._drain_waiters for d in pvfs.daemons):
                yield cluster.sim.timeout(0.01)
            for daemon in pvfs.daemons:
                daemon.crash()

        def scenario():
            yield from native.mount()
            f = yield from native.create("/failing")
            # enough data that the flush barrier must actually wait
            # (well beyond the per-daemon write-cache allowance)
            yield from native.write(f, 0, Payload.synthetic(180_000_000))
            cluster.sim.process(crasher())
            try:
                yield from native.fsync(f)
            except FsError:
                return "eio"
            return "no-error"

        assert drive(cluster.sim, scenario()) == "eio"

    def test_system_serves_after_crash(self, stack):
        cluster, pvfs, direct = stack
        client = direct.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/before")
            yield from client.write(f, 0, Payload(b"pre-crash"))
            yield from client.close(f)
            pvfs.daemons[0].crash()
            # New work proceeds against the restarted daemon.
            g = yield from client.create("/after")
            yield from client.write(g, 0, Payload(b"post-crash"))
            yield from client.fsync(g)
            yield from client.close(g)
            h = yield from client.open("/after", write=False)
            return (yield from client.read(h, 0, 10))

        assert drive(cluster.sim, scenario()).data == b"post-crash"

    def test_persisted_accounting(self, stack):
        cluster, pvfs, direct = stack
        client = direct.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/acct")
            yield from client.write(f, 0, Payload.synthetic(300_000))
            yield from client.fsync(f)
            yield cluster.sim.timeout(5.0)  # drain write-behind fully

        drive(cluster.sim, scenario())
        persisted = sum(
            d.persisted_bytes(h) for d in pvfs.daemons for h in d.bstreams
        )
        assert persisted == 300_000
