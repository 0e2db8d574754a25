"""Metadata/namespace cache coherence of the NFSv4 client.

Regressions for the bug swarm the metadata torture harness flushed
out: truncate must invalidate page-cache state (not just attributes),
remove/rename must evict retained close-to-open caches, getattr must
reflect the client's own cached extends, and a truncate must recall
conflicting read delegations and reply with fresh attributes.
"""

import pytest

from repro.nfs import NfsConfig
from repro.vfs import Payload

from tests.conftest import build_nfs, drive


@pytest.fixture
def nfs(cluster):
    return build_nfs(cluster, rsize=64 * 1024, wsize=64 * 1024)


class TestTruncateCoherence:
    def test_truncate_clips_open_file_cache(self, cluster, nfs):
        """Cross-client truncate-while-open: after this client's own
        truncate, reads through a still-open handle must not serve the
        pre-truncate bytes from cache."""
        c0, _c1, _server = nfs

        def scenario():
            f = yield from c0.create("/t")
            yield from c0.write(f, 0, Payload(b"X" * 8192))
            yield from c0.fsync(f)
            yield from c0.read(f, 0, 8192)  # populate the page cache
            yield from c0.truncate("/t", 100)
            got = yield from c0.read(f, 0, 8192)
            size = f.state["pc"].size
            yield from c0.close(f)
            return got, size

        got, size = drive(cluster.sim, scenario())
        assert size == 100
        assert got.nbytes == 100  # EOF clipped at the new size
        assert got.data == b"X" * 100

    def test_cross_client_truncate_then_reader_sees_cut(self, cluster, nfs):
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/u")
            yield from c0.write(f, 0, Payload(b"Y" * 4096))
            yield from c0.close(f)
            g = yield from c1.open("/u", write=False)
            yield from c1.read(g, 0, 4096)  # c1 caches all 4096 bytes
            yield from c0.truncate("/u", 10)
            # c1's open predates the truncate; its *next open* must
            # revalidate.  Close, let attrs expire, reopen, read.
            yield from c1.close(g)
            yield cluster.sim.timeout(NfsConfig().ac_timeo + 1.0)
            h = yield from c1.open("/u", write=False)
            got = yield from c1.read(h, 0, 4096)
            yield from c1.close(h)
            return got

        got = drive(cluster.sim, scenario())
        assert got.nbytes == 10
        assert got.data == b"Y" * 10

    def test_truncate_discards_dirty_beyond_cut(self, cluster, nfs):
        """Dirty pages past the cut must never be written back: that
        would resurrect the truncated range server-side."""
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/v")
            yield from c0.write(f, 0, Payload(b"A" * 16384))  # dirty, cached
            yield from c0.truncate("/v", 1000)
            yield from c0.fsync(f)
            yield from c0.close(f)
            g = yield from c1.open("/v", write=False)
            got = yield from c1.read(g, 0, 16384)
            yield from c1.close(g)
            return got

        got = drive(cluster.sim, scenario())
        assert got.nbytes == 1000
        assert got.data == b"A" * 1000

    def test_truncate_bumps_mtime_in_reply(self, cluster, nfs):
        c0, _c1, _server = nfs

        def scenario():
            f = yield from c0.create("/w")
            yield from c0.write(f, 0, Payload(b"B" * 100))
            yield from c0.close(f)
            before = yield from c0.getattr("/w")
            yield cluster.sim.timeout(1.0)
            yield from c0.truncate("/w", 10)
            after = yield from c0.getattr("/w")
            return before, after

        before, after = drive(cluster.sim, scenario())
        assert after.size == 10
        assert after.mtime > before.mtime

    def test_truncate_recalls_read_delegations(self, cluster):
        c0, c1, server = build_nfs(cluster, rsize=64 * 1024, wsize=64 * 1024)

        def scenario():
            f = yield from c0.create("/d")
            yield from c0.write(f, 0, Payload(b"C" * 2048))
            yield from c0.close(f)
            g = yield from c1.open("/d", write=False)  # c1 gets a delegation
            yield from c1.close(g)
            assert "/d" in c1._delegations
            yield from c0.truncate("/d", 7)
            # The recall runs detached from the truncate reply: settle.
            yield cluster.sim.timeout(1.0)

        drive(cluster.sim, scenario())
        assert server.delegations_recalled == 1
        assert "/d" not in c1._delegations


class TestNamespaceEviction:
    def test_remove_then_recreate_does_not_adopt_dead_pages(self, cluster, nfs):
        """A recreated same-size file must not pass close-to-open
        revalidation against the dead file's retained cache."""
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/r")
            yield from c0.write(f, 0, Payload(b"OLD!" * 256))
            yield from c0.close(f)
            g = yield from c0.open("/r", write=False)
            yield from c0.read(g, 0, 1024)  # retained pages on close
            yield from c0.close(g)
            yield from c0.remove("/r")
            h = yield from c0.create("/r")
            yield from c0.write(h, 0, Payload(b"NEW?" * 256))
            yield from c0.close(h)
            k = yield from c0.open("/r", write=False)
            got = yield from c0.read(k, 0, 1024)
            yield from c0.close(k)
            # And a second client must agree.
            m = yield from c1.open("/r", write=False)
            other = yield from c1.read(m, 0, 1024)
            yield from c1.close(m)
            return got, other

        got, other = drive(cluster.sim, scenario())
        assert got.data == b"NEW?" * 256
        assert other.data == b"NEW?" * 256

    def test_rename_over_evicts_target_cache(self, cluster, nfs):
        """The rename target's inode dies: its retained pages must not
        be served for the file now living at that name."""
        c0, _c1, _server = nfs

        def scenario():
            v = yield from c0.create("/victim")
            yield from c0.write(v, 0, Payload(b"DEAD" * 256))
            yield from c0.close(v)
            g = yield from c0.open("/victim", write=False)
            yield from c0.read(g, 0, 1024)
            yield from c0.close(g)
            s = yield from c0.create("/src")
            yield from c0.write(s, 0, Payload(b"LIVE" * 256))
            yield from c0.close(s)
            yield from c0.rename("/src", "/victim")
            h = yield from c0.open("/victim", write=False)
            got = yield from c0.read(h, 0, 1024)
            yield from c0.close(h)
            return got

        got = drive(cluster.sim, scenario())
        assert got.data == b"LIVE" * 256

    def test_renamed_file_keeps_cache_under_new_name(self, cluster, nfs):
        c0, _c1, server = nfs

        def scenario():
            f = yield from c0.create("/a")
            yield from c0.write(f, 0, Payload(b"K" * 4096))
            yield from c0.close(f)
            g = yield from c0.open("/a", write=False)
            yield from c0.read(g, 0, 4096)
            yield from c0.close(g)
            yield from c0.rename("/a", "/b")
            before = server.rpc.calls_served
            h = yield from c0.open("/b", write=False)
            got = yield from c0.read(h, 0, 4096)
            yield from c0.close(h)
            return got, server.rpc.calls_served - before

        got, rpcs = drive(cluster.sim, scenario())
        assert got.data == b"K" * 4096
        assert rpcs == 2  # open + close: the cache followed the rename


class TestOwnWriteAttrs:
    def test_getattr_sees_own_cached_extend(self, cluster, nfs):
        """Linux semantics: local i_size is authoritative while dirty
        extends sit in the page cache — getattr must not report the
        smaller server size from a stale attribute cache entry."""
        c0, _c1, _server = nfs

        def scenario():
            f = yield from c0.create("/own")
            yield from c0.write(f, 0, Payload(b"s" * 100))
            yield from c0.fsync(f)
            yield from c0.getattr("/own")  # attr cache now holds size 100
            yield from c0.write(f, 0, Payload(b"L" * 5000))  # cached extend
            attrs = yield from c0.getattr("/own")
            yield from c0.close(f)
            return attrs

        attrs = drive(cluster.sim, scenario())
        assert attrs.size == 5000

    def test_getattr_after_close_reports_flushed_size(self, cluster, nfs):
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/flushed")
            yield from c0.write(f, 0, Payload(b"z" * 3000))
            yield from c0.close(f)
            attrs = yield from c1.getattr("/flushed")
            return attrs

        attrs = drive(cluster.sim, scenario())
        assert attrs.size == 3000
