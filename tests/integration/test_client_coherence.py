"""What one client may keep about a file while others change it, on
every row of the architecture table.

* REMOVE and RENAME recall the read delegations other clients hold on
  the file (RFC 7530 §10.4.4), so a holder's next open asks the server
  and finds the name gone, as native PVFS2 does.
* Close-to-open (RFC 7530 §10.3, ROADMAP item 21a): a reopen after
  another client's close sees that client's bytes.  Every NFS-fronted
  row still serves its own stale pages when the size did not change;
  the marker goes with item 21's fix.
* The client's own size is authoritative while it still owes the
  server dirty bytes, after a close whose flush failed too.
"""

import pytest

from repro.cluster.configs import make_deployment
from repro.rpc import RpcPolicy, RpcTimeout
from repro.vfs import NoEntry, Payload

from tests.conftest import drive

NFS_FRONTED = ["nfsv4", "pnfs-2tier", "pnfs-3tier", "direct-pnfs", "direct-pnfs-sharded"]


def mounted(arch: str, n: int = 3, **nfs):
    """``(deployment, sim, clients)``: ``n`` mounted clients of ``arch``."""
    dep = make_deployment(arch, n_clients=n, nfs_overrides=nfs or None, seed=1)
    sim = dep.testbed.sim
    clients = [dep.make_client(node) for node in dep.testbed.client_nodes[:n]]
    for client in clients:
        drive(sim, client.mount())
    return dep, sim, clients


@pytest.mark.parametrize("op", ["remove", "rename"])
@pytest.mark.parametrize("arch", [*NFS_FRONTED, "pvfs2"])
def test_remove_and_rename_end_a_read_delegation(arch, op):
    """A read-opens ``/d/s/x`` (a delegation on NFS rows); after B
    removes or renames it, A's next open finds no such name.  The
    directories keep both names on one metadata shard."""
    _dep, sim, (a, b, _c) = mounted(arch)

    def scenario():
        yield from b.mkdir("/d")
        yield from b.mkdir("/d/s")
        f = yield from b.create("/d/s/x")
        yield from b.write(f, 0, Payload(b"x" * 100))
        yield from b.close(f)
        g = yield from a.open("/d/s/x", write=False)
        yield from a.read(g, 0, 100)
        yield from a.close(g)
        if op == "remove":
            yield from b.remove("/d/s/x")
        else:
            yield from b.rename("/d/s/x", "/d/s/y")
        yield sim.timeout(1.0)  # the recall runs detached from B's reply
        try:
            h = yield from a.open("/d/s/x", write=False)
        except NoEntry:
            return None
        return (yield from a.read(h, 0, 100)).nbytes

    assert drive(sim, scenario()) is None


@pytest.mark.parametrize(
    "arch",
    [
        *(
            pytest.param(arch, marks=pytest.mark.xfail(strict=True, reason="ROADMAP 21a"))
            for arch in NFS_FRONTED
        ),
        "pvfs2",
    ],
)
def test_a_reopen_sees_another_clients_closed_write(arch):
    """A writes ``AAAA``, fsyncs and closes; B overwrites ``BBBB`` and
    closes.  A second later a fresh client reads ``BBBB``, and so must
    A's reopen."""
    _dep, sim, (a, b, c) = mounted(arch)

    def read_once(client):
        f = yield from client.open("/f", write=False)
        data = yield from client.read(f, 0, 4)
        yield from client.close(f)
        return data.data

    def scenario():
        f = yield from a.create("/f")
        yield from a.write(f, 0, Payload(b"AAAA"))
        yield from a.fsync(f)
        yield from a.close(f)
        g = yield from b.open("/f")
        yield from b.write(g, 0, Payload(b"BBBB"))
        yield from b.close(g)
        yield sim.timeout(1.0)
        fresh = yield from read_once(c)
        return fresh, (yield from read_once(a))

    assert drive(sim, scenario()) == (b"BBBB", b"BBBB")


@pytest.mark.parametrize("arch", ["nfsv4", "direct-pnfs"])
def test_getattr_after_a_failed_close_reports_the_own_extend(arch):
    """A extends a 1 000-byte file to 4 000 bytes; every server dies
    under the close's flush, so close fails and the pages stay dirty.
    Once the servers are back, A's getattr reports 4 000 bytes (the
    server still says 1 000), as Linux keeps i_size while write-backs
    are outstanding."""
    dep, sim, (a,) = mounted(arch, n=1, rpc_policy=RpcPolicy(timeout=0.2, max_retries=1))

    def scenario():
        f = yield from a.create("/s")
        yield from a.write(f, 0, Payload(b"s" * 1000))
        yield from a.close(f)
        g = yield from a.open("/s")
        yield from a.write(g, 0, Payload(b"L" * 4000))
        for server in dep.servers:
            server.rpc.fail()
        with pytest.raises(RpcTimeout):
            yield from a.close(g)
        for server in dep.servers:
            server.rpc.restore()
        return (yield from a.getattr("/s")).size

    assert drive(sim, scenario()) == 4000
