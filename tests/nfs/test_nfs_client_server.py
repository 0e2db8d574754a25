"""Functional tests of the NFSv4 client/server over a LocalFs backend."""

import pytest

from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.vfs import NoEntry, Payload

from tests.conftest import build_cluster, drive
from tests.localfs import LocalClient, LocalFileSystem


def make_nfs(cluster, **cfg_kw):
    """One NFS server on storage[0] exporting an in-memory local FS."""
    cfg = NfsConfig(**cfg_kw)
    backing = LocalFileSystem()
    server_node = cluster.storage[0]
    backend = LocalClient(cluster.sim, backing)
    server = Nfs4Server(cluster.sim, server_node, backend, cfg)
    return server, backing, cfg


@pytest.fixture
def nfs(cluster):
    server, backing, cfg = make_nfs(cluster)
    client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
    drive(cluster.sim, client.mount())
    return client, server, backing


class TestBasicIo:
    def test_create_write_read_roundtrip(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            f = yield from client.create("/f")
            yield from client.write(f, 0, Payload(b"nfs data"))
            out = yield from client.read(f, 0, 64)
            return out

        assert drive(cluster.sim, scenario()).data == b"nfs data"

    def test_data_reaches_backend_only_after_flush(self, cluster, nfs):
        client, _server, backing = nfs

        def scenario():
            f = yield from client.create("/f")
            yield from client.write(f, 0, Payload(b"cached"))  # < wsize: stays dirty
            fd = backing.contents.get(f.state["fh"])
            size_before = fd.size if fd is not None else 0
            yield from client.fsync(f)
            return size_before

        before = drive(cluster.sim, scenario())
        # before fsync nothing had been written through
        assert before == 0
        entry = backing.namespace.resolve("/f")
        assert backing.contents[entry.handle].read(0, 6).data == b"cached"

    def test_close_flushes(self, cluster, nfs):
        client, _server, backing = nfs

        def scenario():
            f = yield from client.create("/g")
            yield from client.write(f, 0, Payload(b"x" * 100))
            yield from client.close(f)

        drive(cluster.sim, scenario())
        entry = backing.namespace.resolve("/g")
        assert backing.contents[entry.handle].size == 100

    def test_read_through_cache_after_reopen(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            f = yield from client.create("/h")
            yield from client.write(f, 0, Payload(b"0123456789"))
            yield from client.close(f)
            g = yield from client.open("/h")
            first = yield from client.read(g, 0, 4)
            second = yield from client.read(g, 4, 6)  # sequential: cache/ra
            return first, second

        first, second = drive(cluster.sim, scenario())
        assert first.data == b"0123"
        assert second.data == b"456789"

    def test_read_past_eof_truncated(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            f = yield from client.create("/i")
            yield from client.write(f, 0, Payload(b"abc"))
            out = yield from client.read(f, 2, 50)
            beyond = yield from client.read(f, 10, 5)
            return out, beyond

        out, beyond = drive(cluster.sim, scenario())
        assert out.data == b"c"
        assert beyond.nbytes == 0

    def test_overwrite_in_cache(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            f = yield from client.create("/j")
            yield from client.write(f, 0, Payload(b"aaaa"))
            yield from client.write(f, 1, Payload(b"bb"))
            out = yield from client.read(f, 0, 4)
            yield from client.close(f)
            return out

        assert drive(cluster.sim, scenario()).data == b"abba"

    def test_cross_client_read_after_close(self, cluster, nfs):
        client, server, _backing = nfs
        other = Nfs4Client(cluster.sim, cluster.clients[1], server, client.cfg)

        def scenario():
            yield from other.mount()
            f = yield from client.create("/shared")
            yield from client.write(f, 0, Payload(b"visible"))
            yield from client.close(f)
            g = yield from other.open("/shared")
            return (yield from other.read(g, 0, 16))

        assert drive(cluster.sim, scenario()).data == b"visible"


class TestWriteCoalescing:
    def test_small_writes_coalesce_to_wsize_rpcs(self, cluster):
        server, _backing, cfg = make_nfs(cluster, wsize=64 * 1024, rsize=64 * 1024)
        client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)

        def scenario():
            yield from client.mount()
            f = yield from client.create("/big")
            for i in range(64):  # 64 x 8 KB = 512 KB sequential
                yield from client.write(f, i * 8192, Payload.synthetic(8192))
            yield from client.fsync(f)

        calls_before = server.rpc.calls_served
        drive(cluster.sim, scenario())
        # mount + open + writes + commit; writes must be 512K/64K = 8 RPCs.
        write_calls = server.rpc.calls_served - calls_before - 3
        assert write_calls == 8

    def test_unaligned_tail_flushed_on_fsync(self, cluster, nfs):
        client, _server, backing = nfs

        def scenario():
            f = yield from client.create("/tail")
            yield from client.write(f, 0, Payload(b"z" * 1000))
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        entry = backing.namespace.resolve("/tail")
        assert backing.contents[entry.handle].size == 1000

    def test_fsync_without_writes_is_cheap(self, cluster, nfs):
        client, server, _backing = nfs

        def scenario():
            f = yield from client.create("/nop")
            before = server.rpc.calls_served
            yield from client.fsync(f)
            return server.rpc.calls_served - before

        assert drive(cluster.sim, scenario()) == 0  # no COMMIT needed


class TestReadahead:
    def test_sequential_small_reads_batch_into_rsize_fetches(self, cluster):
        server, _backing, cfg = make_nfs(
            cluster, rsize=128 * 1024, wsize=128 * 1024, readahead=256 * 1024
        )
        client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
        total = 512 * 1024

        def scenario():
            yield from client.mount()
            f = yield from client.create("/stream")
            yield from client.write(f, 0, Payload.synthetic(total))
            yield from client.close(f)
            g = yield from client.open("/stream")
            before = server.rpc.calls_served
            pos = 0
            while pos < total:
                out = yield from client.read(g, pos, 8192)
                assert out.nbytes == 8192
                pos += 8192
            return server.rpc.calls_served - before

        read_rpcs = drive(cluster.sim, scenario())
        # 512 KB at rsize 128 KB: a handful of window fetches serve all
        # 64 application reads — not one RPC per read.
        assert read_rpcs <= 12

    def test_random_reads_do_not_trigger_runaway_prefetch(self, cluster):
        server, _backing, cfg = make_nfs(
            cluster, rsize=64 * 1024, wsize=64 * 1024, readahead=128 * 1024
        )
        client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
        total = 1024 * 1024

        def scenario():
            yield from client.mount()
            f = yield from client.create("/rand")
            yield from client.write(f, 0, Payload.synthetic(total))
            yield from client.close(f)
            g = yield from client.open("/rand")
            before = server.rpc.calls_served
            # Strided backwards: never sequential.
            for i in reversed(range(0, 16)):
                yield from client.read(g, i * 65536, 4096)
            return server.rpc.calls_served - before

        read_rpcs = drive(cluster.sim, scenario())
        # One fetch per miss plus at most the single open-time window.
        assert read_rpcs <= 16 + 3

    def test_readahead_data_is_correct(self, cluster, nfs):
        client, _server, _backing = nfs
        blob = bytes(range(256)) * 64  # 16 KB patterned

        def scenario():
            f = yield from client.create("/pat")
            yield from client.write(f, 0, Payload(blob))
            yield from client.close(f)
            g = yield from client.open("/pat")
            chunks = []
            pos = 0
            while pos < len(blob):
                out = yield from client.read(g, pos, 1000)
                chunks.append(out.data)
                pos += 1000
            return b"".join(chunks)

        assert drive(cluster.sim, scenario()) == blob


class TestMetadata:
    def test_mkdir_readdir_remove(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/x")
            yield from client.create("/d/y")
            names = yield from client.readdir("/d")
            yield from client.remove("/d/x")
            names2 = yield from client.readdir("/d")
            return names, names2

        names, names2 = drive(cluster.sim, scenario())
        assert names == ["x", "y"]
        assert names2 == ["y"]

    def test_getattr_and_attr_cache(self, cluster, nfs):
        client, server, _backing = nfs

        def scenario():
            f = yield from client.create("/a")
            yield from client.write(f, 0, Payload(b"12345"))
            yield from client.close(f)
            a1 = yield from client.getattr("/a")
            before = server.rpc.calls_served
            a2 = yield from client.getattr("/a")  # served from attr cache
            return a1, a2, server.rpc.calls_served - before

        a1, a2, extra_calls = drive(cluster.sim, scenario())
        assert a1.size == 5
        assert a2.size == 5
        assert extra_calls == 0

    def test_open_missing_raises(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            try:
                yield from client.open("/ghost")
            except NoEntry:
                return "noent"

        assert drive(cluster.sim, scenario()) == "noent"

    def test_rename_and_truncate(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            f = yield from client.create("/r1")
            yield from client.write(f, 0, Payload(b"123456"))
            yield from client.close(f)
            yield from client.rename("/r1", "/r2")
            yield from client.truncate("/r2", 3)
            attrs = yield from client.getattr("/r2")
            return attrs

        assert drive(cluster.sim, scenario()).size == 3

    def test_setattr_mode(self, cluster, nfs):
        client, _server, _backing = nfs

        def scenario():
            yield from client.create("/m")
            attrs = yield from client.setattr("/m", mode=0o600)
            return attrs

        assert drive(cluster.sim, scenario()).mode == 0o600


class TestSessions:
    def test_slot_table_bounds_concurrency(self, cluster):
        server, _backing, cfg = make_nfs(cluster, session_slots=2)
        client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)

        def scenario():
            yield from client.mount()
            f = yield from client.create("/c")
            yield from client.write(f, 0, Payload.synthetic(16 * 2 * 1024 * 1024))
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        session = client._sessions[server]
        assert session.slots.high_water == 2
        assert session.slots.in_use == 0
