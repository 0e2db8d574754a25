"""Close-to-open inode cache behaviour of the NFSv4 client."""

import pytest

from repro.vfs import Payload

from tests.conftest import build_nfs, drive


@pytest.fixture
def nfs(cluster):
    return build_nfs(cluster, rsize=64 * 1024, wsize=64 * 1024)


class TestCloseToOpen:
    def test_reopen_reuses_pages_when_unchanged(self, cluster, nfs):
        c0, _c1, server = nfs

        def scenario():
            f = yield from c0.create("/f")
            yield from c0.write(f, 0, Payload(b"D" * 10_000))
            yield from c0.close(f)
            g = yield from c0.open("/f")
            yield from c0.read(g, 0, 10_000)
            yield from c0.close(g)
            before = server.rpc.calls_served
            h = yield from c0.open("/f")
            data = yield from c0.read(h, 0, 10_000)
            yield from c0.close(h)
            # open + close RPCs only, no READ
            return data, server.rpc.calls_served - before

        data, rpcs = drive(cluster.sim, scenario())
        assert data.data == b"D" * 10_000
        assert rpcs == 2

    def test_size_change_by_other_client_invalidates(self, cluster, nfs):
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/g")
            yield from c0.write(f, 0, Payload(b"old!"))
            yield from c0.close(f)
            g = yield from c0.open("/g")
            yield from c0.read(g, 0, 4)
            yield from c0.close(g)
            h = yield from c1.open("/g")
            yield from c1.write(h, 0, Payload(b"newer"))  # size 4 -> 5
            yield from c1.close(h)
            k = yield from c0.open("/g")
            return (yield from c0.read(k, 0, 5))

        assert drive(cluster.sim, scenario()).data == b"newer"

    def test_mtime_change_same_size_invalidates_for_non_writer(self, cluster, nfs):
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/m")
            yield from c0.write(f, 0, Payload(b"AAAA"))
            yield from c0.close(f)
            # c1 reads (cache primed, no local writes)
            g = yield from c1.open("/m")
            yield from c1.read(g, 0, 4)
            yield from c1.close(g)
            # c0 rewrites same size; mtime on the server moves
            h = yield from c0.open("/m")
            yield from c0.write(h, 0, Payload(b"BBBB"))
            yield from c0.close(h)
            # c1 reopens: mtime mismatch -> refetch
            k = yield from c1.open("/m")
            return (yield from c1.read(k, 0, 4))

        assert drive(cluster.sim, scenario()).data == b"BBBB"

    def test_dirty_data_never_leaks_across_handles(self, cluster, nfs):
        c0, _c1, _server = nfs

        def scenario():
            f = yield from c0.create("/h")
            yield from c0.write(f, 0, Payload(b"1111"))
            yield from c0.close(f)
            g = yield from c0.open("/h")
            yield from c0.write(g, 0, Payload(b"2222"))
            # not yet closed: a second open of the same path sees the
            # last *committed* state through its own handle
            yield from c0.fsync(g)
            h = yield from c0.open("/h")
            data = yield from c0.read(h, 0, 4)
            yield from c0.close(g)
            yield from c0.close(h)
            return data

        assert drive(cluster.sim, scenario()).data == b"2222"
