"""Fine-grained write-back / readahead behaviour tests."""

import pytest

from repro import rpc as rpc_mod
from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.sim import FaultInjector
from repro.vfs import FsError, Payload

from tests.conftest import build_cluster, drive
from tests.localfs import LocalClient, LocalFileSystem

KB = 1024


def make(cluster, **cfg_kw):
    cfg_kw.setdefault("rsize", 64 * KB)
    cfg_kw.setdefault("wsize", 64 * KB)
    cfg = NfsConfig(**cfg_kw)
    backing = LocalFileSystem()
    server = Nfs4Server(
        cluster.sim, cluster.storage[0], LocalClient(cluster.sim, backing), cfg
    )
    client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
    drive(cluster.sim, client.mount())
    return client, server, backing


def fresh_reader(cluster, server):
    """A second client with a cold cache (the writer's inode cache
    would otherwise serve everything locally)."""
    reader = Nfs4Client(cluster.sim, cluster.clients[1], server, server.cfg)
    drive(cluster.sim, reader.mount())
    return reader


def write_calls(server, tracer_window):
    pass


class TestWriteBackAlignment:
    def test_unaligned_stream_flushes_interior_blocks(self, cluster):
        client, server, _ = make(cluster)

        def scenario():
            f = yield from client.create("/u")
            # [1000, 1000 + 3*wsize): interior aligned blocks flush async
            yield from client.write(f, 1000, Payload.synthetic(3 * 64 * KB))
            return f

        f = drive(cluster.sim, scenario())
        # blocks [64K,128K) and [128K,192K) are full and were kicked;
        # the unaligned head and tail remain dirty
        dirty = list(f.state["pc"].dirty)
        assert (1000, 64 * KB) in dirty
        assert dirty[-1][1] == 1000 + 3 * 64 * KB

    def test_fsync_sends_each_dirty_byte_exactly_once(self, cluster):
        client, server, backing = make(cluster)

        def scenario():
            f = yield from client.create("/once")
            yield from client.write(f, 0, Payload.synthetic(200 * KB))
            yield from client.fsync(f)
            return f

        f = drive(cluster.sim, scenario())
        entry = backing.namespace.resolve("/once")
        assert backing.contents[entry.handle].size == 200 * KB
        assert not f.state["pc"].dirty
        assert not f.state["pc"].flushing
        assert client.bytes_written == 200 * KB  # no double-send

    def test_overwrite_of_inflight_block_is_rewritten(self, cluster):
        """A block overwritten after its writeback started must be sent
        again so the server ends with the latest data."""
        client, _server, backing = make(cluster)

        def scenario():
            f = yield from client.create("/rw")
            yield from client.write(f, 0, Payload(b"A" * 64 * KB))  # kicks flush
            yield from client.write(f, 0, Payload(b"B" * 64 * KB))  # re-dirty
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        entry = backing.namespace.resolve("/rw")
        assert backing.contents[entry.handle].read(0, 64 * KB).data == b"B" * 64 * KB


class TestCloseErrorSemantics:
    def test_dirty_pages_survive_failed_close(self, cluster):
        """A close whose flush fails must report the error *and* keep
        the re-dirtied pages in the inode cache, so a later open of the
        same file re-flushes them once the server recovers (torture
        seed 65: write → reopen during an outage → post-heal fsync
        reported clean while the data was gone)."""
        client, server, backing = make(
            cluster, rpc_policy=rpc_mod.RpcPolicy(timeout=0.2, max_retries=1, backoff=1.0)
        )
        inj = FaultInjector(cluster.sim)

        def scenario():
            f = yield from client.create("/c2o")
            yield from client.write(f, 0, Payload(b"X" * 10 * KB))
            inj.outage(server.rpc, start=cluster.sim.now, duration=2.0)
            try:
                yield from client.close(f)
            except (FsError, rpc_mod.RpcTimeout):
                closed_with_error = True
            else:
                closed_with_error = False
            yield cluster.sim.timeout(3.0)  # outage heals
            f2 = yield from client.open("/c2o")
            yield from client.fsync(f2)
            yield from client.close(f2)
            return closed_with_error

        assert drive(cluster.sim, scenario())
        entry = backing.namespace.resolve("/c2o")
        assert backing.contents[entry.handle].read(0, 10 * KB).data == b"X" * 10 * KB

    def test_clean_close_does_not_adopt_stale_dirty_state(self, cluster):
        """The dirty set retained by a clean close is empty: a reopen
        must start with nothing to flush."""
        client, _server, _backing = make(cluster)

        def scenario():
            f = yield from client.create("/clean")
            yield from client.write(f, 0, Payload(b"Y" * 4 * KB))
            yield from client.close(f)
            f2 = yield from client.open("/clean")
            return f2

        f2 = drive(cluster.sim, scenario())
        assert not f2.state["pc"].dirty
        assert not f2.state["pc"].commit_needed


class TestReadaheadBehaviour:
    def test_no_duplicate_block_fetches_in_stream(self, cluster):
        client, server, _ = make(cluster, readahead=256 * KB)
        reader = fresh_reader(cluster, server)
        total = 1024 * KB

        def scenario():
            f = yield from client.create("/s")
            yield from client.write(f, 0, Payload.synthetic(total))
            yield from client.close(f)
            g = yield from reader.open("/s", write=False)
            before = server.rpc.calls_served
            pos = 0
            while pos < total:
                yield from reader.read(g, pos, 16 * KB)
                pos += 16 * KB
            return server.rpc.calls_served - before

        fetches = drive(cluster.sim, scenario())
        # near-perfect pipelining: total/rsize READ RPCs, plus one for
        # the unaligned demand fetch that starts the stream
        assert fetches <= total // (64 * KB) + 1

    def test_random_reads_fetch_only_what_they_touch(self, cluster):
        client, server, _ = make(cluster, readahead=256 * KB)
        reader = fresh_reader(cluster, server)

        def scenario():
            f = yield from client.create("/r")
            yield from client.write(f, 0, Payload.synthetic(1024 * KB))
            yield from client.close(f)
            g = yield from reader.open("/r", write=False)
            before = server.rpc.calls_served
            for block in (9, 3, 12, 6, 1):  # strictly non-sequential
                yield from reader.read(g, block * 64 * KB, 4 * KB)
            return server.rpc.calls_served - before

        fetches = drive(cluster.sim, scenario())
        # 5 misses + at most the single open-window prefetch burst
        assert fetches <= 5 + 4

    def test_interleaved_read_write_consistency(self, cluster):
        client, _server, _ = make(cluster, readahead=128 * KB)

        def scenario():
            f = yield from client.create("/mix")
            yield from client.write(f, 0, Payload(b"x" * 256 * KB))
            yield from client.close(f)
            g = yield from client.open("/mix")
            out = []
            pos = 0
            while pos < 256 * KB:
                data = yield from client.read(g, pos, 32 * KB)
                out.append(data.data)
                # overwrite just behind the read cursor
                yield from client.write(g, pos, Payload(b"y" * 32 * KB))
                pos += 32 * KB
            yield from client.close(g)
            h = yield from client.open("/mix", write=False)
            final = yield from client.read(h, 0, 256 * KB)
            return b"".join(out), final.data

        reads, final = drive(cluster.sim, scenario())
        assert reads == b"x" * 256 * KB  # reads saw pre-overwrite data
        assert final == b"y" * 256 * KB  # writes all landed

    def test_eof_mid_block_stream(self, cluster):
        client, _server, _ = make(cluster)
        total = 200 * KB + 123  # not block aligned

        def scenario():
            f = yield from client.create("/odd")
            yield from client.write(f, 0, Payload.synthetic(total))
            yield from client.close(f)
            g = yield from client.open("/odd", write=False)
            moved = 0
            pos = 0
            while True:
                data = yield from client.read(g, pos, 16 * KB)
                if data.nbytes == 0:
                    break
                moved += data.nbytes
                pos += data.nbytes
            return moved

        assert drive(cluster.sim, scenario()) == total
