"""Wire-level tests of the pNFS metadata server's layout operations."""

import pytest

from repro import rpc
from repro.nfs import Nfs4Server, NfsConfig
from repro.pnfs import PnfsMetadataServer, SyntheticFileLayoutProvider
from repro.rpc import RpcServer
from repro.vfs import Payload

from tests.conftest import build_cluster, drive
from tests.localfs import LocalClient, LocalFileSystem


@pytest.fixture
def mds(cluster):
    cfg = NfsConfig()
    backing = LocalFileSystem()
    data_servers = [
        Nfs4Server(cluster.sim, node, LocalClient(cluster.sim, backing), cfg)
        for node in cluster.storage
    ]
    server = PnfsMetadataServer(
        cluster.sim,
        cluster.storage[0],
        LocalClient(cluster.sim, backing),
        cfg,
        data_servers,
        SyntheticFileLayoutProvider(3, 64 * 1024),
    )
    return server, data_servers, backing


def call(cluster, server, proc, args):
    def gen():
        return (yield from rpc.call(cluster.clients[0], server.rpc, proc, args))

    return drive(cluster.sim, gen())


class TestLayoutOps:
    def test_getdevlist_returns_endpoints(self, cluster, mds):
        server, data_servers, _ = mds
        result, _ = call(cluster, server, "getdevlist", {})
        assert result["devices"] == data_servers

    def test_layoutget_registers_grant(self, cluster, mds):
        server, _, _ = mds
        opened, _ = call(cluster, server, "open", {"path": "/f", "create": True})
        result, _ = call(
            cluster, server, "layoutget", {"fh": opened["fh"], "path": "/f"}
        )
        layout = result["layout"]
        assert len(layout.device_slots) == 3
        assert server.layouts_granted == 1
        assert [lo.stateid for lo, _cb in server._issued[opened["fh"]]] == [layout.stateid]

    def test_layoutreturn_by_stateid(self, cluster, mds):
        server, _, _ = mds
        opened, _ = call(cluster, server, "open", {"path": "/g", "create": True})
        r1, _ = call(cluster, server, "layoutget", {"fh": opened["fh"], "path": "/g"})
        r2, _ = call(cluster, server, "layoutget", {"fh": opened["fh"], "path": "/g"})
        assert len(server._issued[opened["fh"]]) == 2
        call(
            cluster,
            server,
            "layoutreturn",
            {"fh": opened["fh"], "stateid": r1["layout"].stateid},
        )
        remaining = [
            lo.stateid for lo, _cb in server._issued[opened["fh"]]
        ]
        assert remaining == [r2["layout"].stateid]

    def test_layoutcommit_records_size(self, cluster, mds):
        server, _, backing = mds
        opened, _ = call(cluster, server, "open", {"path": "/h", "create": True})
        call(
            cluster,
            server,
            "layoutcommit",
            {"fh": opened["fh"], "size": 123_456},
        )
        entry = backing.namespace.by_handle(opened["fh"])
        assert entry.attrs.size == 123_456

    def test_recall_without_callbacks_is_noop(self, cluster, mds):
        server, _, _ = mds
        opened, _ = call(cluster, server, "open", {"path": "/i", "create": True})
        call(cluster, server, "layoutget", {"fh": opened["fh"], "path": "/i"})

        def gen():
            yield from server.recall_layouts(opened["fh"])

        drive(cluster.sim, gen())
        assert opened["fh"] not in server._issued
        assert server.layouts_recalled == 0  # no callback endpoint given

    def test_recall_with_callback_round_trips(self, cluster, mds):
        server, _, _ = mds
        recalls = []
        cb = RpcServer(
            cluster.sim, cluster.clients[1], "cb", NfsConfig().costs, threads=1
        )

        def on_recall(args, payload):
            recalls.append(args["fh"])
            return None, None
            yield  # pragma: no cover

        cb.register("cb_layoutrecall", on_recall)
        opened, _ = call(cluster, server, "open", {"path": "/j", "create": True})
        call(
            cluster,
            server,
            "layoutget",
            {"fh": opened["fh"], "path": "/j", "callback": cb},
        )

        def gen():
            yield from server.recall_layouts(opened["fh"])

        drive(cluster.sim, gen())
        assert recalls == [opened["fh"]]
        assert server.layouts_recalled == 1
