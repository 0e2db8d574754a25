"""Direct wire-level tests of NFSv4 server handlers (no client cache)."""

import pytest

from repro import rpc
from repro.nfs import Nfs4Server, NfsConfig
from repro.vfs import NoEntry, Payload
from repro.vfs.api import InvalidArgument

from tests.conftest import build_cluster, drive
from tests.localfs import LocalClient, LocalFileSystem


@pytest.fixture
def server(cluster):
    backing = LocalFileSystem()
    srv = Nfs4Server(
        cluster.sim, cluster.storage[0], LocalClient(cluster.sim, backing), NfsConfig()
    )
    return srv, backing


def call(cluster, srv, proc, args, payload=None):
    def gen():
        return (yield from rpc.call(cluster.clients[0], srv.rpc, proc, args, payload))

    return drive(cluster.sim, gen())


class TestHandlers:
    def test_mount_returns_root(self, cluster, server):
        srv, _backing = server
        result, _ = call(cluster, srv, "mount", {})
        assert result["root"] == 1

    def test_read_reports_eof(self, cluster, server):
        srv, _backing = server
        result, _ = call(cluster, srv, "open", {"path": "/r", "create": True})
        fh = result["fh"]
        call(cluster, srv, "write", {"fh": fh, "offset": 0}, payload=Payload(b"abc"))
        rd, data = call(cluster, srv, "read", {"fh": fh, "offset": 0, "nbytes": 10})
        assert rd["eof"] is True
        assert data.data == b"abc"
        rd2, _ = call(cluster, srv, "read", {"fh": fh, "offset": 0, "nbytes": 3})
        assert rd2["eof"] is False

    def test_missing_path_propagates_noent(self, cluster, server):
        srv, _backing = server
        with pytest.raises(NoEntry):
            call(cluster, srv, "open", {"path": "/ghost"})

    def test_write_without_data_is_invalid(self, cluster, server):
        """A WRITE that carries no payload is NFS4ERR_INVAL, not a
        server fault (nor, under ``python -O``, an AttributeError)."""
        srv, _backing = server
        result, _ = call(cluster, srv, "open", {"path": "/w", "create": True})
        with pytest.raises(InvalidArgument):
            call(cluster, srv, "write", {"fh": result["fh"], "offset": 0}, payload=None)

    def test_rename_and_readdir(self, cluster, server):
        srv, _backing = server
        call(cluster, srv, "mkdir", {"path": "/d"})
        call(cluster, srv, "open", {"path": "/d/a", "create": True})
        call(cluster, srv, "rename", {"old": "/d/a", "new": "/d/b"})
        result, _ = call(cluster, srv, "readdir", {"path": "/d"})
        assert result["names"] == ["b"]

    def test_commit_flushes_backend(self, cluster, server):
        srv, _backing = server
        opened, _ = call(cluster, srv, "open", {"path": "/c", "create": True})
        call(cluster, srv, "commit", {"fh": opened["fh"]})  # no error = pass

    def test_stateids_increment(self, cluster, server):
        srv, _backing = server
        r1, _ = call(cluster, srv, "open", {"path": "/x1", "create": True})
        r2, _ = call(cluster, srv, "open", {"path": "/x2", "create": True})
        assert r2["stateid"] > r1["stateid"]

    def test_lazy_fh_binding_via_open_by_handle(self, cluster, server):
        """A READ for a never-opened fh binds through the backend."""
        srv, backing = server
        entry = backing.namespace.create("/lazy")
        backing.data_for(entry.handle).write(0, Payload(b"bound"))
        rd, data = call(
            cluster, srv, "read", {"fh": entry.handle, "offset": 0, "nbytes": 5}
        )
        assert data.data == b"bound"
