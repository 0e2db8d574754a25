"""Regression: a failed asynchronous write-back must not lose pages.

The bug: ``_spawn_writeback`` moves a range from ``dirty`` to
``flushing`` before the WRITE goes out; when the WRITE failed, the
error path removed the range from ``flushing`` too, so the pages were
in neither set — fsync had nothing left to retry and the data silently
evaporated.  The fix re-marks the range dirty, latches the error on the
open file (Linux errseq-style), and surfaces it at the next
fsync/close; after the server recovers, a retried fsync flushes the
pages for real.
"""

from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.rpc import RpcPolicy, RpcTimeout
from repro.vfs import Payload

from tests.conftest import drive
from tests.localfs import LocalClient, LocalFileSystem

KB = 1024
WSIZE = 64 * KB
BLOB = bytes(range(256)) * 1024  # 256 KB -> 4 wsize blocks


def make_faulty(cluster):
    """Client/server pair with the fault layer on (short timeouts)."""
    cfg = NfsConfig(
        rsize=WSIZE,
        wsize=WSIZE,
        rpc_policy=RpcPolicy(timeout=0.2, max_retries=1),
    )
    backing = LocalFileSystem()
    server = Nfs4Server(
        cluster.sim, cluster.storage[0], LocalClient(cluster.sim, backing), cfg
    )
    client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
    drive(cluster.sim, client.mount())
    return client, server, backing


class TestWritebackFailure:
    def test_fsync_surfaces_failure_and_retry_is_durable(self, cluster):
        """Kill the server mid-writeback: fsync must raise, the pages
        must return to ``dirty``, and a post-recovery fsync must make
        every byte durable.  (Pre-fix: the ranges left both ``dirty``
        and ``flushing`` and the data was gone for good.)"""
        client, server, _backing = make_faulty(cluster)
        sim = cluster.sim

        def fill():
            f = yield from client.create("/data")
            # 4 aligned wsize blocks: write() kicks all of them as
            # asynchronous write-backs immediately.
            yield from client.write(f, 0, Payload(BLOB))
            return f

        f = drive(sim, fill())
        assert f.pc.flushing or f.pc.dirty

        # The WRITE RPCs are now in flight; the service dies under them.
        server.rpc.fail()

        def failing_fsync():
            try:
                yield from client.fsync(f)
            except RpcTimeout as exc:
                return exc
            return None

        exc = drive(sim, failing_fsync())
        assert isinstance(exc, RpcTimeout), "fsync must surface the failure"
        assert client.writeback_errors > 0
        # Every lost range is dirty again — nothing fell into the gap
        # between ``dirty`` and ``flushing``.
        assert f.pc.dirty.total == len(BLOB)
        assert not f.pc.flushing
        # The latch is one-shot: it reported, and is clear again.
        assert f.pc.wb_error is None

        # Recovery: the service comes back; the retried fsync pushes the
        # re-marked pages and the file is durable on the server.
        server.rpc.restore()

        def retry_and_verify():
            yield from client.fsync(f)
            yield from client.close(f)

        drive(sim, retry_and_verify())
        assert not f.pc.dirty and not f.pc.flushing

        # Read back through a cold client: every byte must have reached
        # the server (the writer's own cache cannot mask loss).
        reader = Nfs4Client(sim, cluster.clients[1], server, server.cfg)

        def readback():
            yield from reader.mount()
            g = yield from reader.open("/data", write=False)
            data = yield from reader.read(g, 0, len(BLOB))
            yield from reader.close(g)
            return data

        assert drive(sim, readback()).data == BLOB

    def test_close_surfaces_latched_writeback_error(self, cluster):
        client, server, _backing = make_faulty(cluster)
        sim = cluster.sim

        def fill():
            f = yield from client.create("/doomed")
            yield from client.write(f, 0, Payload(BLOB))
            return f

        f = drive(sim, fill())
        server.rpc.fail()

        def closing():
            try:
                yield from client.close(f)
            except RpcTimeout as exc:
                return exc
            return None

        assert isinstance(drive(sim, closing()), RpcTimeout)
        assert client.writeback_errors > 0
        assert f.pc.dirty.total == len(BLOB)

    def test_healthy_path_unchanged(self, cluster):
        """With no failure, the fix is invisible: fsync commits, no
        errors latched, no ranges left behind."""
        client, server, backing = make_faulty(cluster)
        sim = cluster.sim

        def scenario():
            f = yield from client.create("/ok")
            yield from client.write(f, 0, Payload(BLOB))
            yield from client.fsync(f)
            yield from client.close(f)
            return f

        f = drive(sim, scenario())
        assert client.writeback_errors == 0
        assert f.pc.wb_error is None
        assert not f.pc.dirty and not f.pc.flushing
        entry = backing.namespace.resolve("/ok")
        assert backing.contents[entry.handle].size == len(BLOB)
